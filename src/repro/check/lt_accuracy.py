"""LT-vs-CA accuracy harness: the executable half of ``docs/FAST_SIM.md``.

The loosely-timed (LT) mode fast-forwards contention-free stretches
analytically instead of scheduling them cycle by cycle.  It is only
useful if its deviation from the cycle-accurate (CA) reference is both
small and *bounded by contract*.  This module owns that contract's
numbers — the constants below are quoted verbatim in ``docs/FAST_SIM.md``
and a documentation test asserts the two never drift apart.

:func:`LtRun` runs one configuration twice (CA then LT) and returns an
:class:`LtComparison` whose :meth:`~LtComparison.within_bounds` lists
every violated clause of the contract.  ``benchmarks/lt_gate.py`` applies
it to the golden corpus in CI; ``tests/test_lt_mode.py`` applies it to
randomized configurations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from ..platforms.config import PlatformConfig
from ..platforms.result import RunResult
from ..sweep import Run

# ---------------------------------------------------------------------------
# The published accuracy contract (docs/FAST_SIM.md, "The contract").
#
# The contract is layered.  The *universal* clauses hold for any
# configuration: LT never creates, drops or fails work, and never
# processes more events than CA.  The *numeric drift bounds* below are
# validated over the golden corpus — the paper's experiment space — and
# enforced there by ``benchmarks/lt_gate.py``; outside that space LT's
# intra-timestamp reordering can compound through arbitration (measured
# up to ~6% execution-time drift on adversarial randomized STBus
# configurations, worse with the random-pattern CPU in the mix), so
# publication-grade numbers for unusual configs should use ``--mode ca``
# or measure their own drift with :func:`LtRun`.
# ---------------------------------------------------------------------------

#: RunResult fields LT must reproduce *exactly* — fast-forwarding moves
#: events in time, it must never create, drop or fail work.
EXACT_FIELDS = ("transactions", "bytes_transferred")

#: Maximum relative drift of the run's execution time (Fig. 3/4/5 x-axis).
EXECUTION_TIME_DRIFT = 0.01

#: Maximum relative drift of mean and p95 transaction latency.  Looser
#: than execution time: on-chip read batching legitimately moves the
#: instants at which intermediate burst beats surface, which shows up in
#: the latency *tail* (worst measured: 5.4% p95 on the Fig. 4
#: distributed instance) while leaving totals almost untouched.
LATENCY_DRIFT = 0.08

#: Maximum absolute drift of the bus-utilization fraction (0..1 scale).
UTILIZATION_ABS_DRIFT = 0.02

#: Maximum relative drift of total platform energy.  LT charges through
#: the very same per-beat taps as CA (batching moves events, never beat
#: counts), so per-beat energy is exact; what drifts is the
#: time-integrated SDRAM background power (bounded by the execution-time
#: clause) and the command-count-based standby/ACT terms (worst measured:
#: 0.61% on the Fig. 5 instances, where LT's merge timing shifts a couple
#: of ACTIVATE/PRECHARGE pairs).
ENERGY_DRIFT = 0.01

#: Minimum CA-events / LT-events ratio on the STBus reference platform
#: (the ``platform_run`` benchmark scenario).  The headline claim; the
#: collapsed topologies have fewer hops to fast-forward and sit lower
#: (docs/FAST_SIM.md, "Measured effect").
MIN_EVENT_SPEEDUP = 5.0

#: Minimum CA-events / LT-events ratio of *every* golden-corpus entry.
#: No fabric schedules per-cycle events through a stall in LT (worst
#: measured: 3.03x on ``fig3_collapsed_stbus``); one that starts ticking
#: again drops below this at once (``fig3_full_ahb`` did 1.46x when AHB
#: ticked through its wait states).
MIN_CORPUS_EVENT_RATIO = 2.5


def _relative(lt_value: float, ca_value: float) -> float:
    """Relative deviation, safe around zero denominators."""
    if ca_value == 0:
        return 0.0 if lt_value == 0 else float("inf")
    return abs(lt_value - ca_value) / abs(ca_value)


@dataclass
class LtComparison:
    """CA and LT runs of one configuration, plus the contract verdict."""

    label: str
    ca: RunResult
    lt: RunResult
    ca_events: int
    lt_events: int
    ca_now: int
    lt_now: int
    #: Events the LT run skipped by analytic fast-forwarding.
    lt_fastforwards: int
    #: Contract clauses this pair violates (empty means compliant).
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def event_ratio(self) -> float:
        """CA events per LT event — the deterministic speedup measure."""
        if self.lt_events == 0:
            return float("inf")
        return self.ca_events / self.lt_events

    @property
    def execution_time_drift(self) -> float:
        return _relative(self.lt.execution_time_ps, self.ca.execution_time_ps)

    @property
    def mean_latency_drift(self) -> float:
        return _relative(self.lt.mean_latency_ps, self.ca.mean_latency_ps)

    @property
    def p95_latency_drift(self) -> float:
        return _relative(self.lt.p95_latency_ps, self.ca.p95_latency_ps)

    @property
    def energy_drift(self) -> float:
        return _relative(self.lt.energy_total_pj, self.ca.energy_total_pj)

    @property
    def utilization_drift(self) -> float:
        """Worst absolute per-component utilization deviation."""
        keys = set(self.ca.utilization) | set(self.lt.utilization)
        return max((abs(self.lt.utilization.get(key, 0.0)
                        - self.ca.utilization.get(key, 0.0))
                    for key in keys), default=0.0)

    def describe(self) -> str:
        """One human-readable block per comparison (gate/report output)."""
        lines = [
            f"{self.label}: events ca={self.ca_events} lt={self.lt_events} "
            f"(ratio {self.event_ratio:.2f}x, "
            f"{self.lt_fastforwards} fastforwards)",
            f"  execution_time drift {self.execution_time_drift * 100:.3f}% "
            f"(bound {EXECUTION_TIME_DRIFT * 100:.0f}%)",
            f"  latency drift mean {self.mean_latency_drift * 100:.3f}% "
            f"p95 {self.p95_latency_drift * 100:.3f}% "
            f"(bound {LATENCY_DRIFT * 100:.0f}%)",
            f"  utilization drift {self.utilization_drift:.4f} "
            f"(bound {UTILIZATION_ABS_DRIFT})",
            f"  energy drift {self.energy_drift * 100:.3f}% "
            f"(bound {ENERGY_DRIFT * 100:.0f}%)",
        ]
        if self.failures:
            lines.append("  FAILED contract clauses:")
            lines.extend(f"    - {failure}" for failure in self.failures)
        return "\n".join(lines)


def universal_failures(comparison: LtComparison) -> List[str]:
    """Violations of the clauses that hold for *any* configuration.

    These are the structural guarantees of the LT design: the fast paths
    collapse events, they never change what work gets done, and they can
    only remove scheduling — never add it.
    """
    failures: List[str] = []
    for name in EXACT_FIELDS:
        ca_value = getattr(comparison.ca, name)
        lt_value = getattr(comparison.lt, name)
        if ca_value != lt_value:
            failures.append(f"{name} must be exact: "
                            f"ca={ca_value!r} lt={lt_value!r}")
    if comparison.lt_events > comparison.ca_events:
        failures.append(
            f"LT processed more events than CA: "
            f"lt={comparison.lt_events} ca={comparison.ca_events}")
    return failures


def within_bounds(comparison: LtComparison,
                  min_event_ratio: Optional[float] = None) -> List[str]:
    """Every violated clause of the full (corpus-domain) contract.

    Includes the universal clauses plus the numeric drift bounds, which
    are published for the golden-corpus experiment space.  Apply this to
    corpus entries and corpus-like configurations;
    :func:`universal_failures` is the right check for arbitrary ones.
    ``min_event_ratio`` additionally enforces a speedup floor — pass
    :data:`MIN_EVENT_SPEEDUP` for the STBus reference platform,
    :data:`MIN_CORPUS_EVENT_RATIO` for a corpus entry, leave it ``None``
    for arbitrary configurations.
    """
    failures = universal_failures(comparison)
    if comparison.execution_time_drift > EXECUTION_TIME_DRIFT:
        failures.append(
            f"execution_time drift {comparison.execution_time_drift:.4f} "
            f"exceeds {EXECUTION_TIME_DRIFT}")
    if comparison.mean_latency_drift > LATENCY_DRIFT:
        failures.append(
            f"mean latency drift {comparison.mean_latency_drift:.4f} "
            f"exceeds {LATENCY_DRIFT}")
    if comparison.p95_latency_drift > LATENCY_DRIFT:
        failures.append(
            f"p95 latency drift {comparison.p95_latency_drift:.4f} "
            f"exceeds {LATENCY_DRIFT}")
    if comparison.utilization_drift > UTILIZATION_ABS_DRIFT:
        failures.append(
            f"utilization drift {comparison.utilization_drift:.4f} "
            f"exceeds {UTILIZATION_ABS_DRIFT}")
    if comparison.energy_drift > ENERGY_DRIFT:
        failures.append(
            f"energy drift {comparison.energy_drift:.4f} "
            f"exceeds {ENERGY_DRIFT}")
    if (min_event_ratio is not None
            and comparison.event_ratio < min_event_ratio):
        failures.append(
            f"event ratio {comparison.event_ratio:.2f}x below the "
            f"required {min_event_ratio:.2f}x floor")
    return failures


def _run_mode(config: PlatformConfig, resolution: str,
              max_ps: Optional[int]):
    # Energy accounting is force-enabled on both legs so the energy
    # clause always has data to compare; with both sides instrumented
    # through the same taps this perturbs neither timing nor events.
    run = Run(config.scaled(
        resolution=resolution,
        energy=dataclasses.replace(config.energy, enabled=True)), max_ps)
    return run.sim, run.finish().result


def LtRun(config: PlatformConfig, max_ps: Optional[int] = 10**9,
          min_event_ratio: Optional[float] = None) -> LtComparison:
    """Run ``config`` at both resolutions and check the accuracy contract.

    The configuration's own ``resolution`` field is overridden for each
    leg, so callers can hand in any config (golden corpus entries,
    randomized ones) without preprocessing.  Returns an
    :class:`LtComparison` with :attr:`~LtComparison.failures` already
    populated — ``.ok`` is the gate condition.
    """
    ca_sim, ca_result = _run_mode(config, "ca", max_ps)
    lt_sim, lt_result = _run_mode(config, "lt", max_ps)
    comparison = LtComparison(
        label=config.label(),
        ca=ca_result,
        lt=lt_result,
        ca_events=ca_sim.processed_events,
        lt_events=lt_sim.processed_events,
        ca_now=ca_sim.now,
        lt_now=lt_sim.now,
        lt_fastforwards=lt_sim.lt_fastforwards,
    )
    comparison.failures = within_bounds(comparison,
                                        min_event_ratio=min_event_ratio)
    return comparison


__all__ = [
    "ENERGY_DRIFT",
    "EXACT_FIELDS",
    "EXECUTION_TIME_DRIFT",
    "LATENCY_DRIFT",
    "LtComparison",
    "LtRun",
    "MIN_CORPUS_EVENT_RATIO",
    "MIN_EVENT_SPEEDUP",
    "UTILIZATION_ABS_DRIFT",
    "universal_failures",
    "within_bounds",
]
