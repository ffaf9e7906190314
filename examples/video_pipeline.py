#!/usr/bin/env python3
"""A set-top-box style video pipeline on the full platform stack.

Models the workload class the paper's introduction motivates: a video
stream is *decrypted*, *decoded* and *resized* by three dependent engines
(IPTG agents with inter-agent synchronisation points), all sharing one
off-chip DDR SDRAM behind the LMI memory controller, while an ST220 CPU
interferes with cache-miss traffic.

Run with::

    python examples/video_pipeline.py
"""

from repro import AddressRange, Simulator, StbusNode, StbusType
from repro.cpu import BenchmarkConfig, St220Core, SyntheticBenchmark
from repro.memory import LmiConfig, LmiController
from repro.obs import format_table
from repro.traffic import AgentSpec, Fixed, IptgPhase, MultiAgentIp

MEM_BASE = 0x8000_0000
MEM_SPAN = 1 << 26


def main() -> None:
    sim = Simulator()

    # Interconnect: one STBus T3 node at 250 MHz, 64-bit.
    node = StbusNode(sim, "n8", sim.clock(freq_mhz=250, name="bus_clk"),
                     data_width_bytes=8, bus_type=StbusType.T3)

    # Memory subsystem: LMI controller + DDR SDRAM at 166 MHz.
    lmi = LmiController.attach(
        sim, node, "lmi", MEM_BASE, MEM_SPAN,
        sim.clock(freq_mhz=166, name="lmi_clk"),
        config=LmiConfig(input_fifo_depth=6, lookahead_depth=4))

    # The video pipeline: three dependent agents, bounded frame buffers.
    frame_phase = IptgPhase(transactions=6, burst_beats=Fixed(8),
                            beat_bytes=8, idle_cycles=Fixed(2),
                            read_fraction=0.5)
    pipeline = MultiAgentIp(
        sim, "video", node,
        agents=[
            AgentSpec("decrypt", frame_phase, items=6, buffering=2,
                      max_outstanding=4),
            AgentSpec("decode", frame_phase, items=6, buffering=2,
                      max_outstanding=4),
            AgentSpec("resize", frame_phase, items=6, max_outstanding=4),
        ],
        address_base=MEM_BASE, address_span=1 << 22, seed=3)

    # The ST220 running a cache-miss-heavy synthetic benchmark.
    cpu_port = node.connect_initiator("st220", max_outstanding=2)
    cpu = St220Core(sim, "st220", cpu_port, SyntheticBenchmark(
        BenchmarkConfig(blocks=200, working_set=1 << 15,
                        data_base=MEM_BASE + 0x0100_0000,
                        code_base=MEM_BASE + 0x0200_0000)))

    sim.run(until=100_000_000_000)

    print("Video pipeline on STBus + LMI/DDR (with CPU interference)\n")
    rows = []
    stages = {}
    for iptg in pipeline.iptgs:
        stage = iptg.name.split(".")[1]
        stats = stages.setdefault(stage, {"txns": 0, "bytes": 0, "lat": []})
        stats["txns"] += iptg.completed
        stats["bytes"] += iptg.bytes_generated
        stats["lat"].append(iptg.mean_latency_ps())
    for stage, stats in stages.items():
        mean_lat = sum(stats["lat"]) / len(stats["lat"]) / 1000
        rows.append([stage, stats["txns"], stats["bytes"], mean_lat])
    print(format_table(["stage", "transactions", "bytes", "mean lat (ns)"],
                       rows, float_digits=1))
    print(f"\npipeline finished: {pipeline.done.triggered} "
          f"at {sim.now / 1000:.0f} ns")
    print(f"CPU blocks retired: {cpu.blocks_retired.value}, "
          f"D-cache miss rate {cpu.dcache.miss_rate:.1%}, "
          f"stall cycles {cpu.stall_cycles.value}")
    print(f"LMI: served {lmi.served.value} transactions, "
          f"{lmi.merges.value} opcode merges, "
          f"row-hit rate {lmi.device.row_hit_rate:.1%}, "
          f"{lmi.device.refreshes.value} refreshes")


if __name__ == "__main__":
    main()
