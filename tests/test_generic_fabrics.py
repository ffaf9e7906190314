"""Behaviour of the spec-driven :class:`GenericFabric` engine.

Each registry entry must not just *run* — its declared semantics
(burst serialisation, setup/turnaround costs, split, posted writes,
packet-atomic responses) have to be visible in the timing.
"""

import pytest

from repro.core import Simulator
from repro.interconnect import get_spec
from repro.interconnect.generic import GenericFabric

from .helpers import add_memory, drive, make_node, read, run_transactions, write

GENERIC = ("wishbone", "apb", "axi4lite", "avalon", "tilelink")


class TestConstruction:
    def test_accepts_spec_or_name(self, sim):
        clk = sim.clock(freq_mhz=200, name="gclk")
        by_name = GenericFabric(sim, "f1", clk, "wishbone")
        by_spec = GenericFabric(sim, "f2", clk, get_spec("wishbone"))
        assert by_name.spec is by_spec.spec
        assert by_name.protocol == "wishbone"

    def test_refuses_ahb_spec(self, sim):
        # AHB is a model of its own, not a channel-engine instance: no
        # engine class takes its spec.
        from repro.interconnect import AxiFabric, StbusNode

        clk = sim.clock(freq_mhz=200, name="gclk")
        with pytest.raises(ValueError, match="engine"):
            GenericFabric(sim, "bad_ahb", clk, "ahb")
        assert {cls.engine for cls in (GenericFabric, StbusNode, AxiFabric)} \
            == {"generic", "stbus", "axi"}

    def test_stbus_and_axi_specs_are_served_through_their_classes(self, sim):
        # The same engine, but the class decides which channels exist
        # (message arbitration, AR/AW split): the bare engine sends the
        # caller there instead of guessing.
        from repro.interconnect import AxiFabric, StbusNode, StbusType

        clk = sim.clock(freq_mhz=200, name="gclk")
        for name in ("stbus_t1", "stbus_t2", "stbus_t3", "axi"):
            with pytest.raises(ValueError, match="engine"):
                GenericFabric(sim, f"bare_{name}", clk, name)
        for bus_type in StbusType:
            node = StbusNode(sim, f"t{int(bus_type)}", clk, bus_type=bus_type)
            assert isinstance(node, GenericFabric)
            assert node.spec is get_spec(f"stbus_t{int(bus_type)}")
            assert node.protocol == "stbus"
        axi = AxiFabric(sim, "axi", clk)
        assert isinstance(axi, GenericFabric)
        assert axi.spec is get_spec("axi") and axi.protocol == "axi"


class TestEndToEnd:
    @pytest.mark.parametrize("protocol", GENERIC)
    def test_mixed_workload_completes(self, protocol):
        sim = Simulator()
        node = make_node(sim, protocol)
        add_memory(sim, node)
        txns = [read(0x100, beats=8), write(0x200, beats=4, posted=True),
                read(0x400, beats=1), write(0x800, beats=1, posted=False)]
        port = node.connect_initiator("ip0", max_outstanding=2)
        run_transactions(sim, port, txns)
        assert all(t.t_done is not None for t in txns)

    @pytest.mark.parametrize("protocol", GENERIC)
    def test_lt_mode_completes_with_fewer_events(self, protocol):
        def run(resolution):
            sim = Simulator(resolution=resolution)
            node = make_node(sim, protocol)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=2)
            txns = [read(i * 0x100, beats=4) for i in range(4)]
            run_transactions(sim, port, txns)
            return sim.processed_events

        assert run("lt") <= run("ca")


class TestSpecSemantics:
    def test_apb_serialises_bursts_per_beat(self, sim):
        """Single-beat protocol: an 8-beat burst becomes 8 transfers,
        each paying its own SETUP cycle."""
        node = make_node(sim, "apb")
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        run_transactions(sim, port, [read(0x100, beats=8)])
        assert node.burst_segments.value == 7  # 8 transfers - 1

    def test_wishbone_keeps_bursts_whole(self, sim):
        node = make_node(sim, "wishbone")
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        run_transactions(sim, port, [read(0x100, beats=8)])
        assert node.burst_segments.value == 0

    def test_request_cycles_follow_setup_costs(self, sim):
        wb = make_node(sim, "wishbone", name="wb")
        av = make_node(sim, "avalon", name="av")
        burst = read(0x0, beats=4)
        # Wishbone pays a classic-cycle setup per transfer; Avalon does not.
        assert wb.request_cycles(burst) > av.request_cycles(burst)
        apb = make_node(sim, "apb", name="apb")
        # 4 beats -> 4 transfers x (1 setup + 1 address cell).
        assert apb.request_cycles(burst) == 8

    def test_apb_slower_than_axi4lite_end_to_end(self):
        def elapsed(protocol):
            sim = Simulator()
            node = make_node(sim, protocol)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=2)
            return run_transactions(
                sim, port, [read(i * 0x100, beats=8) for i in range(4)])

        # Same single-beat serialisation, but APB cannot split and pays
        # setup cycles, so the same workload takes strictly longer.
        assert elapsed("apb") > elapsed("axi4lite")

    def test_avalon_split_overlaps_target_latency(self):
        """Split spec: a second read is accepted while the first is being
        served; non-split Wishbone holds the bus end to end."""
        def overlap(protocol):
            sim = Simulator()
            node = make_node(sim, protocol)
            add_memory(sim, node, wait_states=6)
            port = node.connect_initiator("ip0", max_outstanding=2)
            txns = [read(0x100, beats=4), read(0x200, beats=4)]
            run_transactions(sim, port, txns)
            return txns[1].t_accepted < txns[0].t_done

        assert overlap("avalon") is True
        assert overlap("wishbone") is False

    def test_avalon_posted_write_completes_at_acceptance(self, sim):
        node = make_node(sim, "avalon")
        add_memory(sim, node, wait_states=4)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x100, beats=4, posted=True)
        run_transactions(sim, port, [txn])
        assert txn.t_done == txn.t_accepted
        assert txn.meta["needs_ack"] is False

    def test_tilelink_write_always_waits_for_d_response(self, sim):
        """Non-posted spec: the posted hint is ignored, every write gets
        an acknowledgement."""
        node = make_node(sim, "tilelink")
        add_memory(sim, node, wait_states=4)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x100, beats=1, posted=True)
        run_transactions(sim, port, [txn])
        assert txn.meta["needs_ack"] is True
        assert txn.t_done > txn.t_accepted

    def test_wishbone_resp_overhead_slows_reads(self):
        def elapsed(protocol):
            sim = Simulator()
            node = make_node(sim, protocol)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=1)
            return run_transactions(sim, port, [read(0x100, beats=8)])

        # Identical burst handling; Wishbone adds per-beat ack turnaround.
        assert elapsed("wishbone") > elapsed("avalon")


class TestDecodeAndSnapshot:
    def test_decode_error_policy_respond(self, sim):
        node = make_node(sim, "avalon")
        node.decode_error_policy = "respond"
        add_memory(sim, node)  # maps the low 1 MiB only
        port = node.connect_initiator("ip0", max_outstanding=1)
        bad = read(0x10000000)
        drive(sim, port, [bad])
        sim.run(until=1_000_000_000)
        assert bad.t_done is not None and bad.error
        assert node.decode_errors.value == 1

    def test_snapshot_state_names_protocol(self, sim):
        from repro.snapshot.state import StateEncoder

        node = make_node(sim, "apb")
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        run_transactions(sim, port, [read(0x100, beats=4)])
        state = node.snapshot_state(StateEncoder())
        assert state["protocol"] == "apb"
        assert state["burst_segments"] == 3
