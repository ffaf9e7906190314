"""Fig. 5 — platform instances with the LMI memory controller and off-chip
DDR SDRAM.

Paper shape:

* distributed STBus best;
* collapsed STBus "can approach the performance of distributed STBus"
  (native STBus interface, no bridge, outstanding transactions fill the
  LMI input FIFO, controller optimisations kick in);
* collapsed AXI "much worst than collapsed STBus" — its simple protocol
  converter cannot perform split transactions, so the LMI FIFO never holds
  more than one pending transaction and the optimisation engine starves;
* distributed AHB worst, and "the performance gap between STBus and AHB
  has increased a lot with respect to Fig. 3" because of the 11-cycle
  memory response latency behind non-split blocking bridges.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import bar_chart
from ..platforms.variants import fig5_instances
from .common import claim, normalized, run_configs

BAR_ORDER = ("distributed_stbus", "collapsed_stbus", "collapsed_axi",
             "distributed_ahb")


def run(traffic_scale: float = 1.0, jobs: Optional[int] = None) -> Dict:
    """Simulate the four LMI platform instances of Fig. 5."""
    instances = fig5_instances(traffic_scale=traffic_scale)
    results = dict(zip(instances, run_configs(instances.values(), jobs=jobs)))
    return {"results": results,
            "normalized": normalized(results, baseline="distributed_stbus")}


def report(data: Dict) -> str:
    norm = {label: data["normalized"][label] for label in BAR_ORDER}
    lines = ["Fig. 5 — normalised execution time with LMI + DDR SDRAM "
             "(distributed STBus = 1.0)",
             bar_chart(norm, width=40), ""]
    for label in BAR_ORDER:
        result = data["results"][label]
        lines.append(
            f"{label:18s} lmi merges={result.extra.get('lmi_merges', 0):5.0f} "
            f"row-hit rate={result.extra.get('lmi_row_hit_rate', 0):.2f}")
    return "\n".join(lines)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    norm = data["normalized"]
    results = data["results"]
    claim(failures, min(norm.values()) == norm["distributed_stbus"],
          "distributed STBus is the fastest instance")
    claim(failures, norm["collapsed_stbus"] < 1.25,
          "collapsed STBus approaches distributed STBus")
    claim(failures, norm["collapsed_axi"] > 1.5 * norm["collapsed_stbus"],
          "collapsed AXI much worse than collapsed STBus (non-split converter)")
    claim(failures, norm["distributed_ahb"] == max(norm.values()),
          "distributed AHB is the slowest instance")
    claim(failures, norm["distributed_ahb"] > 1.8,
          "the STBus-AHB gap increased a lot vs Fig. 3")
    # The mechanism: split paths feed the optimisation engine, non-split
    # paths starve it — visible directly in the opcode-merge counters.
    claim(failures, results["distributed_stbus"].extra["lmi_merges"] > 0,
          "LMI opcode merging active on the split STBus path")
    claim(failures, results["collapsed_axi"].extra["lmi_merges"] == 0,
          "LMI optimisations starved behind the non-split converter")
    claim(failures, results["distributed_ahb"].extra["lmi_merges"] == 0,
          "LMI optimisations starved behind blocking AHB bridges")
    return failures
