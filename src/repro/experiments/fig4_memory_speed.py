"""Fig. 4 — distributed vs centralized interconnect as a function of
memory speed.

"The performance ratio between collapsed and distributed interconnect
solutions ... changes if the memory device gets progressively slower in
responding to access requests.  Fig. 4 clearly shows the increasing
advantage of distributed solutions as the memory latency increases."

The sweep variable is the memory's initial response latency.  Per Section
4.2, the centralized instance carries the simple slave's single-slot,
non-pipelined target interface ("each transaction is blocking"), while the
distributed instance has the distributed buffering that lets multiple
outstanding transactions fill the master-to-slave path (guideline 3) — see
DESIGN.md for the modelling discussion.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import format_table
from ..platforms.variants import fig4_pair
from .common import claim, run_configs

DEFAULT_LATENCIES = (0, 2, 4, 8, 16, 32)


def run(latencies: Optional[List[int]] = None,
        traffic_scale: float = 0.5, jobs: Optional[int] = None) -> Dict:
    """Sweep memory response latency for both topologies."""
    if latencies is None:
        latencies = list(DEFAULT_LATENCIES)
    # Flatten the (latency x topology) grid into one fan-out, then regroup.
    grid = [(latency, label, config) for latency in latencies
            for label, config in
            fig4_pair(latency, traffic_scale=traffic_scale).items()]
    results = run_configs([config for _, __, config in grid], jobs=jobs)
    series = []
    for latency in latencies:
        pair = {label: result
                for (lat, label, _), result in zip(grid, results)
                if lat == latency}
        series.append({
            "latency": latency,
            "collapsed": pair["collapsed"],
            "distributed": pair["distributed"],
            "ratio": (pair["collapsed"].execution_time_ps
                      / pair["distributed"].execution_time_ps),
        })
    return {"series": series}


def report(data: Dict) -> str:
    headers = ["mem latency (cyc)", "centralized (ns)", "distributed (ns)",
               "centralized/distributed"]
    rows = [[point["latency"],
             point["collapsed"].execution_time_ns,
             point["distributed"].execution_time_ns,
             point["ratio"]] for point in data["series"]]
    header = ("Fig. 4 — execution-time ratio, centralized over distributed, "
              "vs memory response latency\n")
    return header + format_table(headers, rows, float_digits=3)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    series = data["series"]
    first, last = series[0], series[-1]
    claim(failures, 0.85 <= first["ratio"] <= 1.15,
          "fast memory: topologies within 15% (crossing latency vs blocking)")
    claim(failures, last["ratio"] > 1.5,
          "slow memory: distributed wins by a wide margin")
    ratios = [point["ratio"] for point in series]
    claim(failures,
          all(ratios[i] <= ratios[i + 1] + 0.05 for i in range(len(ratios) - 1)),
          "the distributed advantage grows (quasi-monotonically) with latency")
    return failures
