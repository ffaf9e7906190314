"""Path-segmentation study (extension; guideline 5).

"More research is needed to understand whether it is really worth
increasing bridge complexity, instead of keeping lightweight bridges for
path segmentation and traffic routing and pushing complexity at the
system interconnect boundaries, which is known as the network-on-chip
solution." (Section 6, guideline 5)

This experiment quantifies the trade the guideline poses: a master-to-
memory path segmented into 1..N hops, once with lightweight (blocking)
bridges and once with split-capable GenConv converters, under pipelined
read traffic.  Expected shape: with split bridges, each extra hop costs
only its crossing latency (the pipeline stays filled — throughput is
nearly flat); with blocking bridges every hop multiplies the serialised
round trip, so execution time grows steeply with hop count.  That
difference *is* the cost of cheap path segmentation, and the motivation
for pushing complexity to the boundaries.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import format_table
from ..platforms.config import PlatformConfig
from ..platforms.netlist import NetEntry
from .common import claim, run_configs

_SPAN = 1 << 20

_BRIDGE_KINDS = ("lightweight", "genconv")


def chain_config(hops: int, bridge: str, transactions: int = 20,
                 initiators: int = 2) -> PlatformConfig:
    """``hops`` bridges of kind ``bridge`` in series, node ``chain0`` ->
    ``hop0`` -> ``chain1`` -> ... -> a 2-wait-state memory, with
    ``initiators`` pipelined burst readers on ``chain0``."""
    netlist = [NetEntry.of("fabric", f"chain{i}", freq_mhz=250,
                           width_bytes=8, stbus_type=3)
               for i in range(hops + 1)]
    netlist.extend(
        NetEntry.of("bridge", f"hop{i}", source=f"chain{i}",
                    dest=f"chain{i + 1}", base=0, span=_SPAN,
                    split=bridge == "genconv")
        for i in range(hops))
    netlist.append(NetEntry.of("onchip", "mem", fabric=f"chain{hops}",
                               base=0, span=_SPAN, wait_states=2,
                               request_depth=2, response_depth=4))
    window = _SPAN // initiators
    netlist.extend(
        NetEntry.of("iptg", f"ip{i}", fabric="chain0", base=i * window,
                    span=window, transactions=transactions, seed=4 + i)
        for i in range(initiators))
    return PlatformConfig(netlist=tuple(netlist))


def run(max_hops: int = 3, transactions: int = 20,
        jobs: Optional[int] = None) -> Dict:
    """Sweep hop count for both bridge kinds."""
    results = iter(run_configs(
        [chain_config(hops, kind, transactions)
         for hops in range(max_hops + 1) for kind in _BRIDGE_KINDS],
        jobs=jobs))
    series = []
    for hops in range(max_hops + 1):
        point = {"hops": hops}
        for kind in _BRIDGE_KINDS:
            result = next(results)
            point[kind] = {"execution_ps": result.execution_time_ps,
                           "mean_latency_ps": result.mean_latency_ps}
        series.append(point)
    return {"series": series}


def report(data: Dict) -> str:
    headers = ["hops", "lightweight exec (ns)", "genconv exec (ns)",
               "lightweight/genconv", "genconv mean lat (ns)"]
    rows = []
    for point in data["series"]:
        lw = point["lightweight"]["execution_ps"]
        gc = point["genconv"]["execution_ps"]
        rows.append([point["hops"], lw / 1000, gc / 1000, lw / gc,
                     point["genconv"]["mean_latency_ps"] / 1000])
    header = ("Path segmentation: hops through blocking vs split bridges "
              "(guideline 5)\n")
    return header + format_table(headers, rows, float_digits=2)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    series = data["series"]
    direct = series[0]
    deepest = series[-1]
    claim(failures,
          abs(direct["lightweight"]["execution_ps"]
              - direct["genconv"]["execution_ps"])
          < 0.02 * direct["genconv"]["execution_ps"],
          "with zero hops the bridge kind is irrelevant")
    lw_growth = (deepest["lightweight"]["execution_ps"]
                 / direct["lightweight"]["execution_ps"])
    gc_growth = (deepest["genconv"]["execution_ps"]
                 / direct["genconv"]["execution_ps"])
    claim(failures, lw_growth > 1.5 * gc_growth,
          "blocking bridges make segmentation much more expensive than "
          "split bridges")
    claim(failures, gc_growth < 1.6,
          "split bridges keep multi-hop throughput nearly flat")
    latencies = [p["genconv"]["mean_latency_ps"] for p in series]
    claim(failures,
          all(a < b for a, b in zip(latencies, latencies[1:])),
          "every hop adds transport latency, even with split bridges")
    return failures
