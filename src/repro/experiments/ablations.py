"""Ablation studies behind the paper's design guidelines (Section 6).

Each ablation isolates one mechanism the guidelines call out:

``bridge_split``
    Guideline 3(ii)/5: replace the lightweight blocking bridges of the
    distributed AXI platform with split-capable ones — the AXI platform
    recovers most of the STBus platform's performance, confirming that
    "advanced features of AXI ... are vanished by poor bridge
    functionality", i.e. it is the bridge, not the protocol.

``max_outstanding``
    Guideline 3(i): sweep the initiators' outstanding-transaction budget on
    the distributed STBus + LMI platform.

``lmi_optimisations``
    Guideline 2: turn the LMI's lookahead and opcode merging off/on and
    watch execution time and the row-hit rate.

``message_arbitration``
    Section 3: message-granularity arbitration keeps optimisable sequences
    together "all the way to the controller"; without it the LMI sees
    interleaved traffic and merges less.

``lmi_fifo_depth``
    Guideline 2: the memory bus interface's buffering bounds how much the
    controller can optimise.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..memory.lmi import LmiConfig
from ..obs.export import format_table
from ..platforms.config import PlatformConfig
from ..platforms.variants import instance, lmi_memory
from .common import claim, run_configs


def _with_outstanding(config: PlatformConfig, depth: int) -> PlatformConfig:
    clusters = tuple(
        replace(cluster, ips=tuple(replace(ip, max_outstanding=depth)
                                   for ip in cluster.ips))
        for cluster in config.clusters)
    return config.scaled(clusters=clusters)


def _plan(traffic_scale: float) -> List[Tuple[str, object, PlatformConfig]]:
    """Every ablation point as ``(section, key, config)`` — one flat list
    so the whole study fans out through a single :func:`run_configs` call.
    """
    plan: List[Tuple[str, object, PlatformConfig]] = []

    # -- bridge split capability (distributed AXI) ----------------------
    base_axi = instance("axi", "distributed", lmi_memory(),
                        traffic_scale=traffic_scale)
    plan.append(("bridge_split", "blocking_bridges", base_axi))
    plan.append(("bridge_split", "split_bridges", base_axi.scaled(
        bridge_split_override=True, lmi_bridge_split=True)))
    plan.append(("bridge_split", "stbus_reference", instance(
        "stbus", "distributed", lmi_memory(), traffic_scale=traffic_scale)))

    # -- initiator max outstanding (distributed STBus + LMI) -------------
    base_stbus = instance("stbus", "distributed", lmi_memory(),
                          traffic_scale=traffic_scale)
    for depth in (1, 2, 4, 8):
        plan.append(("max_outstanding", depth,
                     _with_outstanding(base_stbus, depth)))

    # -- LMI optimisation engine -----------------------------------------
    dumb = lmi_memory(LmiConfig(lookahead_depth=1, merge_limit=1))
    smart = lmi_memory(LmiConfig(lookahead_depth=4, merge_limit=4))
    plan.append(("lmi_optimisations", "fifo_order_no_merge", instance(
        "stbus", "distributed", dumb, traffic_scale=traffic_scale)))
    plan.append(("lmi_optimisations", "lookahead_and_merge", instance(
        "stbus", "distributed", smart, traffic_scale=traffic_scale)))

    # -- message arbitration ----------------------------------------------
    plan.append(("message_arbitration", "packet_granularity", instance(
        "stbus", "distributed", lmi_memory(),
        traffic_scale=traffic_scale, message_arbitration=False)))
    plan.append(("message_arbitration", "message_granularity", instance(
        "stbus", "distributed", lmi_memory(),
        traffic_scale=traffic_scale, message_arbitration=True)))

    # -- LMI input FIFO depth ----------------------------------------------
    for depth in (1, 2, 4, 8):
        memory = lmi_memory(LmiConfig(input_fifo_depth=depth,
                                      lookahead_depth=min(4, depth)))
        plan.append(("lmi_fifo_depth", depth, instance(
            "stbus", "distributed", memory, traffic_scale=traffic_scale)))

    # -- read priority over posted writes -----------------------------------
    plan.append(("read_priority", "fifo_order", instance(
        "stbus", "distributed", lmi_memory(LmiConfig(read_priority=False)),
        traffic_scale=traffic_scale)))
    plan.append(("read_priority", "reads_bypass_writes", instance(
        "stbus", "distributed", lmi_memory(LmiConfig(read_priority=True)),
        traffic_scale=traffic_scale)))

    # -- SDR vs DDR device --------------------------------------------------
    # "The controller can drive both SDR SDRAM and DDR SDRAM memory
    # devices" (Section 3.1): same platform, halved data rate.
    from ..memory.timing import DDR_SDRAM, SDR_SDRAM
    from ..platforms.config import MemoryConfig

    plan.append(("sdram_device", "sdr", instance(
        "stbus", "distributed", MemoryConfig(kind="lmi", sdram=SDR_SDRAM),
        traffic_scale=traffic_scale)))
    plan.append(("sdram_device", "ddr", instance(
        "stbus", "distributed", MemoryConfig(kind="lmi", sdram=DDR_SDRAM),
        traffic_scale=traffic_scale)))
    return plan


def run(traffic_scale: float = 0.5, jobs: Optional[int] = None) -> Dict:
    """Run every ablation; returns one result table per mechanism."""
    plan = _plan(traffic_scale)
    results = run_configs([config for _, __, config in plan], jobs=jobs)
    data: Dict = {}
    for (section, key, _), result in zip(plan, results):
        data.setdefault(section, {})[key] = result
    return data


def report(data: Dict) -> str:
    sections = []

    bs = data["bridge_split"]
    sections.append("Ablation: bridge split capability (distributed AXI + LMI)")
    sections.append(format_table(
        ["variant", "exec (ns)"],
        [[k, v.execution_time_ns] for k, v in bs.items()], float_digits=0))

    mo = data["max_outstanding"]
    sections.append("\nAblation: initiator max outstanding (distributed STBus + LMI)")
    sections.append(format_table(
        ["outstanding", "exec (ns)"],
        [[k, v.execution_time_ns] for k, v in mo.items()], float_digits=0))

    lo = data["lmi_optimisations"]
    sections.append("\nAblation: LMI optimisation engine")
    sections.append(format_table(
        ["variant", "exec (ns)", "rw commands", "merges"],
        [[k, v.execution_time_ns, v.extra["lmi_rw_commands"],
          v.extra["lmi_merges"]] for k, v in lo.items()], float_digits=2))

    ma = data["message_arbitration"]
    sections.append("\nAblation: message-based arbitration")
    sections.append(format_table(
        ["variant", "exec (ns)", "merges"],
        [[k, v.execution_time_ns, v.extra["lmi_merges"]]
         for k, v in ma.items()], float_digits=0))

    fd = data["lmi_fifo_depth"]
    sections.append("\nAblation: LMI input FIFO depth")
    sections.append(format_table(
        ["depth", "exec (ns)", "merges"],
        [[k, v.execution_time_ns, v.extra["lmi_merges"]]
         for k, v in fd.items()], float_digits=0))

    rp = data["read_priority"]
    sections.append("\nAblation: read priority over posted writes")
    sections.append(format_table(
        ["variant", "exec (ns)", "mean latency (ns)"],
        [[k, v.execution_time_ns, v.mean_latency_ps / 1000]
         for k, v in rp.items()], float_digits=1))

    sd = data["sdram_device"]
    sections.append("\nAblation: SDR vs DDR SDRAM device")
    sections.append(format_table(
        ["device", "exec (ns)"],
        [[k, v.execution_time_ns] for k, v in sd.items()], float_digits=0))

    return "\n".join(sections)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    bs = data["bridge_split"]
    claim(failures,
          bs["split_bridges"].execution_time_ps
          < 0.8 * bs["blocking_bridges"].execution_time_ps,
          "split-capable bridges recover a large share of AXI performance")

    mo = data["max_outstanding"]
    claim(failures,
          mo[4].execution_time_ps < mo[1].execution_time_ps,
          "more outstanding transactions speed up the distributed platform")

    lo = data["lmi_optimisations"]
    claim(failures,
          lo["lookahead_and_merge"].execution_time_ps
          <= lo["fifo_order_no_merge"].execution_time_ps,
          "LMI lookahead + merging do not slow the platform down")
    claim(failures,
          lo["lookahead_and_merge"].extra["lmi_rw_commands"]
          < lo["fifo_order_no_merge"].extra["lmi_rw_commands"],
          "opcode merging issues fewer SDRAM data commands for the same work")

    ma = data["message_arbitration"]
    claim(failures,
          ma["message_granularity"].extra["lmi_merges"]
          > ma["packet_granularity"].extra["lmi_merges"],
          "message arbitration delivers more mergeable sequences to the LMI")

    fd = data["lmi_fifo_depth"]
    claim(failures,
          fd[4].execution_time_ps <= fd[1].execution_time_ps,
          "a deeper LMI input FIFO does not hurt")
    claim(failures, fd[4].extra["lmi_merges"] > fd[1].extra["lmi_merges"],
          "a deeper LMI input FIFO enables more merging")

    rp = data["read_priority"]
    claim(failures,
          rp["reads_bypass_writes"].mean_latency_ps
          <= rp["fifo_order"].mean_latency_ps * 1.05,
          "read priority does not hurt mean transaction latency")

    sd = data["sdram_device"]
    claim(failures,
          sd["ddr"].execution_time_ps < sd["sdr"].execution_time_ps,
          "the DDR device outperforms SDR on the same platform")
    return failures
