#!/usr/bin/env python3
"""Quickstart: build a small memory-centric system and measure it.

One STBus node, one on-chip memory with 1 wait state, two traffic
generators — the minimal many-to-one setup of Section 4.1.2.  Watch the
response channel settle at the 50% efficiency bound the paper derives.

Run with::

    python examples/quickstart.py
"""

from repro import AddressRange, OnChipMemory, Simulator, StbusNode, StbusType
from repro.obs import format_table
from repro.traffic import Fixed, Iptg, IptgPhase


def main() -> None:
    sim = Simulator()
    clk = sim.clock(freq_mhz=200, name="clk")

    # One STBus Type-2 node (split + pipelined transactions).
    node = StbusNode(sim, "n0", clk, data_width_bytes=4,
                     bus_type=StbusType.T2)

    # A 1-wait-state on-chip memory decoding the whole address map.
    mem_port = node.add_target("mem", AddressRange(0x0000_0000, 1 << 20),
                               request_depth=2, response_depth=4)
    OnChipMemory(sim, "mem", mem_port, clk, wait_states=1, width_bytes=4)

    # Two IPTGs issuing back-to-back 8-beat read bursts.
    iptgs = []
    for i in range(2):
        port = node.connect_initiator(f"iptg{i}", max_outstanding=4)
        phase = IptgPhase(transactions=100, burst_beats=Fixed(8),
                          beat_bytes=4, idle_cycles=Fixed(0),
                          read_fraction=1.0)
        iptgs.append(Iptg(sim, f"iptg{i}", port, [phase],
                          address_base=i * 0x10000, address_span=0x10000,
                          seed=i + 1))

    sim.run(until=10_000_000_000)

    print("Quickstart: 2 IPTGs -> STBus T2 node -> 1-ws on-chip memory\n")
    rows = []
    for iptg in iptgs:
        rows.append([iptg.name, iptg.completed,
                     iptg.bytes_generated,
                     iptg.mean_latency_ps() / 1000])
    print(format_table(["generator", "transactions", "bytes", "mean lat (ns)"],
                       rows, float_digits=1))
    print(f"\nexecution time: {sim.now / 1000:.0f} ns")
    print(f"request-channel utilisation:  "
          f"{node.req_channel.utilization():.1%}")
    print(f"response-channel utilisation: "
          f"{node.resp_channel.utilization():.1%}   "
          "<- the 50% bound of Section 4.1.2")


if __name__ == "__main__":
    main()
