"""Fig. 3 — normalised execution time of MPSoC platform instances
(on-chip shared memory, 1 wait state).

Paper shape:

* collapsed AXI ~ collapsed STBus — "AXI and STBus collapsed variants
  exhibit almost the same performance";
* full (multi-layer) STBus ~ single-layer STBus — "the two solutions show
  negligible differences";
* full AHB clearly worse — "AHB solution is ineffective, due to the fact
  that AHB-AHB bridges are blocking on each transaction";
* distributed AXI degraded towards full AHB — "advanced features of AXI
  ... are vanished by poor bridge functionality".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import bar_chart
from ..platforms.variants import fig3_instances
from .common import claim, normalized, run_configs

#: Order the bars appear in the figure.
BAR_ORDER = ("collapsed_axi", "collapsed_stbus", "full_stbus", "full_ahb",
             "distributed_axi")


def run(traffic_scale: float = 1.0, jobs: Optional[int] = None) -> Dict:
    """Simulate the five platform instances of Fig. 3."""
    instances = fig3_instances(traffic_scale=traffic_scale)
    results = dict(zip(instances, run_configs(instances.values(), jobs=jobs)))
    return {"results": results,
            "normalized": normalized(results, baseline="collapsed_axi")}


def report(data: Dict) -> str:
    norm = {label: data["normalized"][label] for label in BAR_ORDER}
    header = "Fig. 3 — normalised execution time (collapsed AXI = 1.0)\n"
    return header + bar_chart(norm, width=40)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    norm = data["normalized"]
    claim(failures, abs(norm["collapsed_stbus"] - norm["collapsed_axi"]) < 0.10,
          "collapsed AXI ~ collapsed STBus")
    claim(failures, abs(norm["full_stbus"] - norm["collapsed_stbus"]) < 0.10,
          "full STBus ~ collapsed STBus (multi-layer compensation)")
    claim(failures, norm["full_ahb"] > 1.12,
          "full AHB clearly worse (blocking AHB-AHB bridges)")
    claim(failures, norm["distributed_axi"] > 1.05,
          "distributed AXI degraded by lightweight blocking bridges")
    claim(failures, norm["distributed_axi"] <= norm["full_ahb"] + 0.05,
          "distributed AXI lands in full-AHB territory, not above it")
    stbus_group = max(norm["collapsed_stbus"], norm["full_stbus"],
                      norm["collapsed_axi"])
    claim(failures, norm["full_ahb"] > stbus_group and
          norm["distributed_axi"] > stbus_group,
          "bridge-limited variants are the slowest group")
    return failures
