"""Unit tests for the shared fabric machinery (ports, routing, widths)."""

import pytest

from repro.interconnect import AddressRange, FabricError
from repro.interconnect.base import Fabric

from .helpers import add_memory, make_node, read, run_transactions, write


class TestRouting:
    def test_route_by_address(self, sim):
        node = make_node(sim)
        a = node.add_target("a", AddressRange(0x0000, 0x1000))
        b = node.add_target("b", AddressRange(0x1000, 0x1000))
        assert node.try_route(0x0800) is a
        assert node.try_route(0x1800) is b

    def test_unmapped_address_decodes_to_none(self, sim):
        node = make_node(sim)
        node.add_target("a", AddressRange(0, 0x1000))
        assert node.try_route(0x9999) is None

    def test_overlapping_ranges_rejected(self, sim):
        node = make_node(sim)
        node.add_target("a", AddressRange(0, 0x1000))
        with pytest.raises(FabricError):
            node.add_target("b", AddressRange(0x800, 0x1000))


class TestWidths:
    def test_bus_cycles_for_beat(self, sim):
        node = make_node(sim, width=4)
        assert node.bus_cycles_for_beat(4) == 1
        assert node.bus_cycles_for_beat(2) == 1
        assert node.bus_cycles_for_beat(8) == 2

    def test_request_cycles(self, sim):
        node = make_node(sim, width=4)
        assert node.request_cycles(read(0, beats=8)) == 1
        assert node.request_cycles(write(0, beats=8, beat_bytes=4)) == 8
        assert node.request_cycles(write(0, beats=4, beat_bytes=8)) == 8

    def test_invalid_width_rejected(self, sim):
        clk = sim.clock(freq_mhz=100)
        with pytest.raises(ValueError):
            Fabric(sim, "f", clk, data_width_bytes=3)


class TestInitiatorPort:
    def test_outstanding_limit_enforced(self, sim):
        node = make_node(sim)
        add_memory(sim, node, wait_states=4)
        port = node.connect_initiator("ip0", max_outstanding=2)
        txns = [read(i * 64) for i in range(6)]
        run_transactions(sim, port, txns)
        # With 2 credits, transaction i+2 can only be *granted* (it only
        # enters arbitration) after transaction i completed and returned
        # its credit.  (t_issued is the presentation time at the IP, which
        # is not throttled.)
        for early, late in zip(txns, txns[2:]):
            assert late.t_granted >= early.t_done

    def test_counters_track_lifecycle(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=4)
        txns = [read(i * 64) for i in range(5)]
        run_transactions(sim, port, txns)
        assert port.issued.value == 5
        assert port.completed.value == 5
        assert port.latency.count == 5
        assert port.latency.minimum > 0

    def test_invalid_outstanding(self, sim):
        node = make_node(sim)
        with pytest.raises(ValueError):
            node.connect_initiator("ip0", max_outstanding=0)


class TestTimestamps:
    def test_monotonic_lifecycle_timestamps(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=2)
        txns = [read(i * 64) for i in range(4)]
        run_transactions(sim, port, txns)
        for txn in txns:
            assert (txn.t_created <= txn.t_issued <= txn.t_granted
                    <= txn.t_accepted <= txn.t_first_data <= txn.t_done)

    def test_posted_write_completes_at_acceptance(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x100, posted=True)
        run_transactions(sim, port, [txn])
        assert txn.t_done == txn.t_accepted
