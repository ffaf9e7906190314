"""Differential harness: fast path vs reference kernel, under full checks.

The PR 1 kernel selects one of two pre-bound loop bodies at ``run()`` time:
the *fast* untraced body and the *traced* reference body (the original,
straightforward loop shape).  Both must produce bit-identical simulations —
a divergence would silently corrupt every figure the repo reproduces.

:class:`CheckedRun` executes one :class:`~repro.platforms.config.PlatformConfig`
twice — once per loop body, each leg inside its own :func:`repro.check.checked`
session — and asserts:

* identical processed-event counts and final simulation time,
* field-for-field identical :class:`~repro.platforms.result.RunResult`
  (execution time, transaction/byte counts, latency statistics,
  utilization, extras),
* zero invariant violations from the full monitor suite on both legs.

:func:`random_config` derives small-but-diverse platform configurations
from an integer seed (every protocol, both topologies, both memory kinds,
bridge/two-phase/CPU variations), sized so a differential pair completes in
well under a second — suitable for hypothesis-driven sweeps
(``tests/test_kernel_fastpath.py``) and the ``check_smoke`` CI tier.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.kernel import Simulator
from ..platforms.config import (
    ClusterSpec,
    CpuConfig,
    IpSpec,
    MemoryConfig,
    PlatformConfig,
    TwoPhaseSpec,
)
from ..interconnect.types import StbusType
from ..platforms.result import RunResult
from ..sweep import Run
from .violations import Violation


def _noop_trace(time_ps, event) -> None:
    """A trace that records nothing — forces the traced (reference) loop
    body without the cost or side effects of real tracing."""


#: Generous drain bound for the small randomized configurations (1 ms).
_DEFAULT_MAX_PS = 10**9


@dataclass
class DifferentialResult:
    """Outcome of one fast-vs-reference differential run."""

    label: str
    fast: RunResult
    reference: RunResult
    fast_events: int
    reference_events: int
    fast_now: int
    reference_now: int
    #: Invariant violations from both legs (component, time, rule, txn).
    violations: List[Violation] = field(default_factory=list)
    #: Human-readable fast-vs-reference divergences (empty when identical).
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.mismatches

    def format(self) -> str:
        from .violations import format_report

        lines = [f"differential run {self.label}: "
                 f"{self.fast_events} events, now={self.fast_now}ps"]
        if self.mismatches:
            lines.append("fast path diverged from the reference kernel:")
            lines.extend(f"  {m}" for m in self.mismatches)
        else:
            lines.append("fast path and reference kernel are bit-identical")
        lines.append(format_report(self.violations, limit=20))
        return "\n".join(lines)


def _run_leg(config: PlatformConfig, max_ps: Optional[int],
             reference: bool):
    """One leg: build, simulate and finalize under its own check session."""
    from . import checked

    with checked() as session:
        run = Run(config, max_ps,
                  sim=Simulator(trace=_noop_trace) if reference else None)
        result = run.finish().result
    return run.sim, result, session.finalize(expect_drained=True)


def CheckedRun(config: PlatformConfig,
               max_ps: Optional[int] = _DEFAULT_MAX_PS) -> DifferentialResult:
    """Run ``config`` on both kernel paths with all monitors; compare.

    Returns a :class:`DifferentialResult`; check ``.ok`` (or raise on
    ``.format()``) rather than trusting either leg alone.
    """
    fast_sim, fast_result, fast_violations = _run_leg(
        config, max_ps, reference=False)
    ref_sim, ref_result, ref_violations = _run_leg(
        config, max_ps, reference=True)

    mismatches: List[str] = []
    if fast_sim.processed_events != ref_sim.processed_events:
        mismatches.append(
            f"processed_events: fast={fast_sim.processed_events} "
            f"reference={ref_sim.processed_events}")
    if fast_sim.now != ref_sim.now:
        mismatches.append(f"final time: fast={fast_sim.now}ps "
                          f"reference={ref_sim.now}ps")
    for f in dataclasses.fields(RunResult):
        fast_value = getattr(fast_result, f.name)
        ref_value = getattr(ref_result, f.name)
        if fast_value != ref_value:
            mismatches.append(f"RunResult.{f.name}: fast={fast_value!r} "
                              f"reference={ref_value!r}")

    return DifferentialResult(
        label=config.label(),
        fast=fast_result,
        reference=ref_result,
        fast_events=fast_sim.processed_events,
        reference_events=ref_sim.processed_events,
        fast_now=fast_sim.now,
        reference_now=ref_sim.now,
        violations=list(fast_violations) + list(ref_violations),
        mismatches=mismatches,
    )


def random_config(seed: int) -> PlatformConfig:
    """A small randomized :class:`PlatformConfig`, deterministic in ``seed``.

    Covers every fabric protocol, both topologies, on-chip and LMI/SDRAM
    memory, posted/non-posted traffic mixes, bridge-split overrides,
    two-phase IPs and the occasional CPU — while staying small enough
    (a handful of IPs, tens of transactions) that the differential pair
    runs in milliseconds.
    """
    rng = random.Random(seed)
    protocol = rng.choice(["stbus", "stbus", "ahb", "axi",
                           "wishbone", "apb", "axi4lite", "avalon",
                           "tilelink"])
    topology = rng.choice(["distributed", "collapsed"])

    clusters = []
    for c in range(rng.randint(1, 2)):
        ips = []
        for i in range(rng.randint(1, 2)):
            ips.append(IpSpec(
                name=f"c{c}_ip{i}",
                transactions=rng.randint(3, 8),
                burst_beats=rng.choice([1, 2, 4, 8]),
                read_fraction=rng.choice([0.0, 0.5, 1.0]),
                idle_cycles=rng.randint(0, 6),
                message_packets=rng.choice([1, 1, 2]),
                pattern=rng.choice(["seq", "random", "strided"]),
                max_outstanding=rng.choice([1, 2, 4]),
                priority=rng.choice([0, 0, 1]),
            ))
        clusters.append(ClusterSpec(
            name=f"c{c}",
            freq_mhz=rng.choice([200.0, 266.0, 400.0]),
            data_width_bytes=rng.choice([4, 8]),
            stbus_type=rng.choice([StbusType.T2, StbusType.T3]),
            ips=tuple(ips),
        ))

    memory = MemoryConfig(kind=rng.choice(["onchip", "onchip", "lmi"]),
                          wait_states=rng.randint(0, 2))
    cpu = CpuConfig(enabled=rng.random() < 0.25, blocks=8,
                    working_set=1 << 12, seed=seed & 0xFFFF)
    two_phase = (TwoPhaseSpec(fraction=0.5, idle_multiplier=4.0)
                 if rng.random() < 0.25 else None)

    return PlatformConfig(
        protocol=protocol,
        topology=topology,
        memory=memory,
        cpu=cpu,
        clusters=tuple(clusters),
        central_freq_mhz=rng.choice([200.0, 250.0]),
        central_width_bytes=rng.choice([4, 8]),
        central_stbus_type=rng.choice(
            [StbusType.T2, StbusType.T3, StbusType.T3, StbusType.T1]),
        traffic_scale=1.0,
        bridge_crossing_cycles=rng.choice([1, 4]),
        bridge_split_override=rng.choice([None, None, True, False]),
        lmi_bridge_split=rng.random() < 0.25,
        two_phase=two_phase,
        message_arbitration=rng.random() < 0.75,
        central_crossbar=(protocol == "stbus" and rng.random() < 0.25),
        seed=seed,
    )


__all__ = ["CheckedRun", "DifferentialResult", "random_config"]
