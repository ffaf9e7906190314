"""Application-specific crossbar selection via DSE (extension).

The related work motivates *application-specific* STBus crossbars:
Murali & De Micheli synthesise partial crossbars that meet an
application's traffic demands at a fraction of a full crossbar's wiring
(see PAPERS.md).  This experiment reruns that decision on our
memory-centric platform with :mod:`repro.dse` doing the arguing: a small
exhaustive search over {shared bus, partial multi-layer, full crossbar}
x FIFO depth x memory speed, minimising (latency, idle fraction, wire
cost).

Expected shape: the front captures the paper's trade-off.  A shared bus
is the cheapest member; adding interconnect parallelism (the crossbar or
the bridged multi-layer organisation) buys strictly better latency at
strictly higher wire cost, so neither end dominates the other and both
survive on the front.  The search is exhaustive here, so the front is
exact — and the independent verifier must agree.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..dse import explore, front_table, parse_dse
from .common import claim


def spec_document(traffic_scale: float = 0.25) -> Dict[str, Any]:
    """The experiment's DSE document (mirrors
    ``examples/configs/dse_crossbar.json``, scaled for CI)."""
    return {
        "base": {
            "protocol": "stbus",
            "topology": "collapsed",
            "traffic_scale": traffic_scale,
            "cpu": {"enabled": False},
        },
        "max_us": 20_000.0,
        "axes": {
            "topology": ["shared", "partial", "crossbar"],
            "fifo_depth": [1, 4],
            "memory.wait_states": [1, 4],
        },
        "objectives": ["latency", "utilization", "cost"],
        "optimizer": {"seed": 1},
    }


def run(traffic_scale: float = 1.0, jobs: Optional[int] = None) -> Dict:
    """Search the topology space and return the verified front."""
    spec = parse_dse(spec_document(traffic_scale=0.25 * traffic_scale))
    outcome = explore(spec, jobs=jobs)
    by_cost = sorted(outcome.front,
                     key=lambda m: m.objectives["cost"])
    by_latency = sorted(outcome.front,
                        key=lambda m: m.objectives["latency"])
    return {
        "outcome": outcome,
        "cheapest": by_cost[0] if by_cost else None,
        "fastest": by_latency[0] if by_latency else None,
    }


def report(data: Dict) -> str:
    outcome = data["outcome"]
    header = (f"Application-specific crossbar choice — {outcome.mode} "
              f"search, {len(outcome.evaluated)} designs evaluated, "
              f"{len(outcome.front)} on the Pareto front\n")
    lines = [header, front_table(outcome), ""]
    if data["cheapest"] is not None:
        lines.append(f"cheapest: {data['cheapest'].label}")
        lines.append(f"fastest:  {data['fastest'].label}")
    return "\n".join(lines)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    outcome = data["outcome"]
    claim(failures, not outcome.violations,
          "independent verifier accepts the front")
    claim(failures, outcome.mode == "exhaustive",
          "the space is small enough for an exact exhaustive front")
    claim(failures, len(outcome.front) >= 2,
          "latency vs wire cost is a real trade-off (front has both ends)")
    cheapest, fastest = data["cheapest"], data["fastest"]
    claim(failures,
          cheapest is not None
          and cheapest.assignment.get("topology") == "shared",
          "the shared bus is the cheapest front member")
    claim(failures,
          fastest is not None
          and fastest.assignment.get("topology") != "shared",
          "interconnect parallelism (crossbar/partial) wins on latency")
    claim(failures,
          fastest is None or cheapest is None
          or fastest.objectives["cost"] > cheapest.objectives["cost"],
          "the latency win costs wires (fastest is the pricier member)")
    return failures
