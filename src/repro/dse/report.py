"""Front rendering and export, routed through the repro.obs exporters.

A Pareto front is just another metric set: each member's objective
values flatten into ``front.<rank>.<objective>`` rows, so the JSON and
CSV shapes (and their sorted-row diffability) are exactly the ones every
other ``--json``/``--csv`` surface in the CLI emits.  The JSON header's
``dse`` block carries the search provenance — mode, space size,
simulation spend, per-member assignments and the verifier's verdict —
so an exported front is a self-contained experiment record.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..obs.export import format_table, metrics_csv, metrics_json
from .optimizer import DseOutcome


def front_rows(outcome: DseOutcome) -> List[Dict[str, Any]]:
    """One plain dict per front member, in the front's stable order."""
    rows = []
    for rank, member in enumerate(outcome.front):
        rows.append({
            "rank": rank,
            "label": member.label,
            "assignment": dict(member.assignment),
            "objectives": dict(member.objectives),
            "cached": member.cached,
        })
    return rows


def _flat(outcome: DseOutcome) -> Dict[str, float]:
    rows: Dict[str, float] = {}
    for rank, member in enumerate(outcome.front):
        for name, value in member.objectives.items():
            rows[f"front.{rank}.{name}"] = value
    return rows


def _provenance(outcome: DseOutcome) -> Dict[str, Any]:
    return {
        "mode": outcome.mode,
        "objectives": list(outcome.objectives),
        "space_size": outcome.space_size,
        "generations": outcome.generations,
        "evaluated": len(outcome.evaluated),
        "pruned": len(outcome.pruned),
        "simulations": outcome.simulations,
        "verified": not outcome.violations,
        "violations": list(outcome.violations),
        "front": front_rows(outcome),
    }


def front_json(outcome: DseOutcome) -> str:
    """The full exploration record as a JSON document."""
    return metrics_json(_flat(outcome), experiment="dse",
                        extra={"dse": _provenance(outcome)})


def front_csv(outcome: DseOutcome) -> str:
    """``metric,value`` CSV of the front's objective values."""
    return metrics_csv(_flat(outcome))


def front_table(outcome: DseOutcome) -> str:
    """Aligned terminal table: one line per front member."""
    if not outcome.front:
        return "(empty front)"
    rows = [[str(rank), member.label]
            + [f"{member.objectives[name]:.6g}" for name in outcome.objectives]
            for rank, member in enumerate(outcome.front)]
    return format_table(["#", "configuration"] + list(outcome.objectives),
                        rows)


__all__ = ["front_csv", "front_json", "front_rows", "front_table"]
