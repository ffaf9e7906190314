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

from typing import Dict, List, Optional, Tuple

from ..bridge.genconv import GenConvBridge
from ..bridge.lightweight import LightweightBridge
from ..core.kernel import Simulator
from ..interconnect.stbus import StbusNode
from ..interconnect.types import AddressRange, StbusType
from ..memory.onchip import OnChipMemory
from ..obs.export import format_table
from ..sweep import parallel_map
from .common import claim

_BRIDGE_KINDS = {"lightweight": LightweightBridge, "genconv": GenConvBridge}

_SPAN = 1 << 20


def build_chain(sim: Simulator, hops: int, bridge_cls,
                wait_states: int = 2, crossing_cycles: int = 2):
    """``hops`` bridges in series: node0 -> br -> node1 -> ... -> memory.

    Returns ``(first_node, memory)``; initiators attach to the first node.
    """
    nodes = []
    for i in range(hops + 1):
        clock = sim.clock(freq_mhz=250, name=f"chain{i}.clk")
        nodes.append(StbusNode(sim, f"chain{i}", clock, data_width_bytes=8,
                               bus_type=StbusType.T3))
    window = AddressRange(0, _SPAN)
    for i in range(hops):
        bridge_cls(sim, f"hop{i}", nodes[i], nodes[i + 1], window,
                   crossing_cycles=crossing_cycles)
    port = nodes[-1].add_target("mem", window, request_depth=2,
                                response_depth=4)
    memory = OnChipMemory(sim, "mem", port, nodes[-1].clock,
                          wait_states=wait_states, width_bytes=8)
    return nodes[0], memory


def _run_chain(hops: int, bridge_cls, initiators: int = 2,
               transactions: int = 20) -> Dict:
    from ..traffic.iptg import Iptg, IptgPhase
    from ..traffic.patterns import Fixed, Sequential

    sim = Simulator()
    first, __ = build_chain(sim, hops, bridge_cls)
    iptgs = []
    for i in range(initiators):
        base = i * (_SPAN // initiators)
        phase = IptgPhase(transactions=transactions, burst_beats=Fixed(8),
                          beat_bytes=8, idle_cycles=Fixed(0),
                          read_fraction=1.0,
                          address_pattern=Sequential(base,
                                                     _SPAN // initiators))
        port = first.connect_initiator(f"ip{i}", max_outstanding=4)
        iptgs.append(Iptg(sim, f"ip{i}", port, [phase], seed=4 + i))
    finish = {}
    sim.all_of([ip.done for ip in iptgs]).add_callback(
        lambda _e: finish.update(ps=sim.now))
    sim.run(until=1_000_000_000_000)
    if "ps" not in finish:
        raise RuntimeError(f"chain with {hops} hops did not finish")
    latencies = [lat for ip in iptgs for lat in
                 (t.latency_ps for t in ip.transactions)]
    return {"execution_ps": finish["ps"],
            "mean_latency_ps": sum(latencies) / len(latencies)}


def _chain_job(payload: Tuple[int, str, int]) -> Dict:
    """Picklable worker: the bridge class is rebuilt by kind name."""
    hops, kind, transactions = payload
    return _run_chain(hops, _BRIDGE_KINDS[kind], transactions=transactions)


def run(max_hops: int = 3, transactions: int = 20,
        jobs: Optional[int] = None) -> Dict:
    """Sweep hop count for both bridge kinds."""
    plan = [(hops, kind, transactions) for hops in range(max_hops + 1)
            for kind in ("lightweight", "genconv")]
    results = parallel_map(_chain_job, plan, jobs=jobs)
    series = []
    for index in range(max_hops + 1):
        series.append({
            "hops": index,
            "lightweight": results[2 * index],
            "genconv": results[2 * index + 1],
        })
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
