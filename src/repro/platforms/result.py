"""The result of one platform run.

The macroscopic metric of Figs. 3-5 is *execution time* (reported
normalised), backed by channel utilisations, latency populations and
throughput.  :class:`RunResult` is the value object
:meth:`~repro.platforms.reference.PlatformInstance.result` builds and every
experiment returns; ``repro.experiments.common.normalized`` normalises
result sets the way the paper's figures do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..interconnect.types import Transaction


@dataclass
class RunResult:
    """Outcome of one platform simulation."""

    label: str
    execution_time_ps: int
    transactions: int
    bytes_transferred: int
    #: Channel utilisations, keyed "<fabric>.<channel>".
    utilization: Dict[str, float] = field(default_factory=dict)
    mean_latency_ps: float = 0.0
    p95_latency_ps: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    #: Per-component energy in picojoules, keyed by component name
    #: (empty unless the run had an energy accountant attached).
    energy_pj: Dict[str, float] = field(default_factory=dict)
    #: Total platform energy in picojoules (0.0 = energy model disabled).
    energy_total_pj: float = 0.0

    @property
    def execution_time_ns(self) -> float:
        return self.execution_time_ps / 1_000

    @property
    def throughput_bytes_per_ns(self) -> float:
        if self.execution_time_ps == 0:
            return 0.0
        return self.bytes_transferred / (self.execution_time_ps / 1_000)

    @property
    def pj_per_byte(self) -> float:
        """Energy cost of moving one byte (0.0 on zero-traffic runs)."""
        if self.bytes_transferred == 0:
            return 0.0
        return self.energy_total_pj / self.bytes_transferred

    @property
    def energy_delay_product(self) -> float:
        """Energy-delay product in pJ*ns — the ranking metric that rewards
        neither a slow-but-frugal nor a fast-but-hungry corner."""
        return self.energy_total_pj * self.execution_time_ns


def summarize_transactions(label: str, execution_time_ps: int,
                           transactions: Iterable[Transaction],
                           utilization: Optional[Dict[str, float]] = None,
                           extra: Optional[Dict[str, float]] = None,
                           energy_pj: Optional[Dict[str, float]] = None,
                           energy_total_pj: float = 0.0) -> RunResult:
    """Build a :class:`RunResult` from a completed transaction population."""
    txns = list(transactions)
    done = [t for t in txns if t.t_done is not None]
    latencies = sorted(t.latency_ps for t in done if t.latency_ps is not None)
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else 0.0
    return RunResult(
        label=label,
        execution_time_ps=execution_time_ps,
        transactions=len(done),
        bytes_transferred=sum(t.total_bytes for t in done),
        utilization=dict(utilization or {}),
        mean_latency_ps=mean,
        p95_latency_ps=float(p95),
        extra=dict(extra or {}),
        energy_pj=dict(energy_pj or {}),
        energy_total_pj=energy_total_pj,
    )
