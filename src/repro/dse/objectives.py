"""The objective registry: run results -> canonical minimisation vectors.

Every optimisation axis the explorer can trade off lives here, with three
facts per objective: how to extract it from an evaluated design point,
its unit (for reports), and the loosely-timed screening drift bound the
pruning rule may assume (the docs/FAST_SIM.md contract, re-exported from
:mod:`repro.check.lt_accuracy` so the two can never diverge).

Vectors are canonicalised to *non-negative minimisation*: utilisation —
which the designer wants high — enters as ``1 - mean utilisation`` (the
idle fraction), so every component is minimised and stays ``>= 0``,
which the relative error bars of :func:`repro.dse.pareto.prune_screened`
require.  The wire-cost objective is computed from the protocol
registry's signal tables without simulating, so its drift bound is zero:
LT and CA evaluations agree on it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..check.lt_accuracy import (
    ENERGY_DRIFT,
    EXECUTION_TIME_DRIFT,
    LATENCY_DRIFT,
    UTILIZATION_ABS_DRIFT,
)
from ..platforms.config import PlatformConfig
from ..platforms.result import RunResult
from .cost import platform_cost


def _idle_fraction(result: RunResult) -> float:
    """1 - mean utilisation, clamped into [0, 1]."""
    if not result.utilization:
        return 1.0
    mean = sum(result.utilization.values()) / len(result.utilization)
    return min(1.0, max(0.0, 1.0 - mean))


@dataclass(frozen=True)
class Objective:
    """One optimisation axis: extraction, unit, screening error bar."""

    name: str
    unit: str
    description: str
    #: ("rel", b): |true - screened| <= b * screened.
    #: ("abs", b): |true - screened| <= b.
    drift: Tuple[str, float]
    extract: Callable[[RunResult, PlatformConfig], float]


#: EDP multiplies energy by execution time, so its relative screening
#: error compounds: (1 + e)(1 + t) - 1.
_EDP_DRIFT = (1 + ENERGY_DRIFT) * (1 + EXECUTION_TIME_DRIFT) - 1

OBJECTIVES: Dict[str, Objective] = {obj.name: obj for obj in (
    Objective(
        name="latency",
        unit="ps",
        description="mean end-to-end transaction latency",
        drift=("rel", LATENCY_DRIFT),
        extract=lambda result, config: result.mean_latency_ps,
    ),
    Objective(
        name="execution_time",
        unit="ps",
        description="workload makespan",
        drift=("rel", EXECUTION_TIME_DRIFT),
        extract=lambda result, config: float(result.execution_time_ps),
    ),
    Objective(
        name="utilization",
        unit="idle fraction",
        description="1 - mean fabric utilisation (minimised, so high "
                    "utilisation wins)",
        drift=("abs", UTILIZATION_ABS_DRIFT),
        extract=lambda result, config: _idle_fraction(result),
    ),
    Objective(
        name="energy",
        unit="pJ",
        description="total transaction energy (needs energy.enabled)",
        drift=("rel", ENERGY_DRIFT),
        extract=lambda result, config: result.energy_total_pj,
    ),
    Objective(
        name="edp",
        unit="pJ*ns",
        description="energy-delay product (needs energy.enabled)",
        drift=("rel", _EDP_DRIFT),
        extract=lambda result, config: result.energy_delay_product,
    ),
    Objective(
        name="cost",
        unit="wire bits",
        description="interconnect wire count + FIFO storage, from the "
                    "protocol registry signal tables (simulation-free)",
        drift=("rel", 0.0),
        extract=lambda result, config: float(platform_cost(config)),
    ),
)}

#: What `repro dse` optimises when the spec does not say: the paper's
#: latency/throughput story plus the crossbar cost it buys.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("latency", "utilization", "cost")


def resolve_objectives(names: Sequence[str]) -> List[Objective]:
    """Map objective names to registry entries, rejecting unknowns."""
    if not names:
        raise ValueError("at least one objective is required")
    out = []
    seen = set()
    for name in names:
        objective = OBJECTIVES.get(str(name))
        if objective is None:
            raise ValueError(f"unknown objective {name!r}; registered: "
                             f"{sorted(OBJECTIVES)}")
        if objective.name in seen:
            raise ValueError(f"objective {name!r} listed twice")
        seen.add(objective.name)
        out.append(objective)
    return out


def drift_bounds(objectives: Sequence[Objective],
                 margin: float = 1.0) -> List[Tuple[str, float]]:
    """Per-objective ``(kind, bound)`` error bars, scaled by a safety
    margin, in the shape :func:`repro.dse.pareto.prune_screened` takes."""
    if margin < 1.0:
        raise ValueError("safety margin must be >= 1 (shrinking the "
                         "documented drift bound is unsound)")
    return [(obj.drift[0], obj.drift[1] * margin) for obj in objectives]


__all__ = [
    "DEFAULT_OBJECTIVES",
    "OBJECTIVES",
    "Objective",
    "drift_bounds",
    "resolve_objectives",
]
