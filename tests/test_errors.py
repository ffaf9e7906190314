"""Tests for bus-error semantics: decode errors and target error responses."""

import pytest

from repro.core import Simulator
from repro.interconnect import AddressRange, FabricError, ResponseBeat

from .helpers import add_memory, drive, make_node, read, write


class TestDecodeErrorPolicy:
    @pytest.mark.parametrize("protocol", ["stbus", "ahb", "axi"])
    def test_strict_policy_raises(self, protocol):
        sim = Simulator()
        node = make_node(sim, protocol=protocol)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        port.issue(read(0xDEAD_0000))  # far outside the mapped window
        with pytest.raises(FabricError):
            sim.run(until=1_000_000_000)

    @pytest.mark.parametrize("protocol", ["stbus", "ahb", "axi"])
    def test_respond_policy_returns_bus_error(self, protocol):
        sim = Simulator()
        node = make_node(sim, protocol=protocol)
        node.decode_error_policy = "respond"
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = read(0xDEAD_0000)
        drive(sim, port, [txn])
        sim.run(until=1_000_000_000)
        assert txn.t_done is not None
        assert txn.error
        assert node.decode_errors.value == 1

    @pytest.mark.parametrize("protocol", ["stbus", "ahb", "axi"])
    def test_traffic_continues_after_decode_error(self, protocol):
        """A stray access must not wedge the layer: the next (mapped)
        transaction still completes normally."""
        sim = Simulator()
        node = make_node(sim, protocol=protocol)
        node.decode_error_policy = "respond"
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=2)
        bad = read(0xDEAD_0000)
        good = read(0x100)
        drive(sim, port, [bad, good])
        sim.run(until=1_000_000_000)
        assert bad.error and not good.error
        assert good.t_first_data is not None

    def test_write_decode_error(self, sim):
        node = make_node(sim)
        node.decode_error_policy = "respond"
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0xDEAD_0000, posted=True)
        drive(sim, port, [txn])
        sim.run(until=1_000_000_000)
        assert txn.error


class TestTargetErrorResponses:
    def _faulty_target(self, sim, node):
        """A device that answers every request with an error response."""
        port = node.add_target("faulty", AddressRange(0x400000, 0x1000),
                               request_depth=2, response_depth=2)

        def server():
            while True:
                txn = yield port.get_request()
                yield port.response_fifo.put(
                    ResponseBeat(txn, index=0, is_last=True, error=True))

        sim.process(server(), name="faulty")
        return port

    def test_error_beat_fails_transaction(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        self._faulty_target(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=2)
        bad = read(0x400000, beats=1)
        good = read(0x100)
        drive(sim, port, [bad, good])
        sim.run(until=1_000_000_000)
        assert bad.error and bad.t_done is not None
        assert not good.error

    def test_error_flag_survives_completion(self):
        txn = read(0x0)
        txn.complete_with_error(100)
        assert txn.error
        assert txn.t_done == 100


class TestErrorsAcrossBridges:
    def _bridged(self, sim, bridge_cls):
        from repro.bridge import GenConvBridge, LightweightBridge
        from repro.interconnect import StbusNode
        from repro.memory import OnChipMemory

        source = make_node(sim)
        dest_clk = sim.clock(freq_mhz=250, name="dclk")
        dest = StbusNode(sim, "dest", dest_clk, data_width_bytes=8)
        dest.decode_error_policy = "respond"
        port = dest.add_target("mem", AddressRange(0, 0x1000),
                               request_depth=2, response_depth=4)
        OnChipMemory(sim, "mem", port, dest_clk, wait_states=1,
                     width_bytes=8)
        # The bridge window is larger than the far side's mapped space, so
        # some addresses decode-error on the destination layer.
        bridge_cls(sim, "br", source, dest, AddressRange(0, 0x10000))
        return source

    @pytest.mark.parametrize("bridge_name", ["lightweight", "genconv"])
    def test_far_side_decode_error_reaches_initiator(self, sim, bridge_name):
        from repro.bridge import GenConvBridge, LightweightBridge

        cls = LightweightBridge if bridge_name == "lightweight" \
            else GenConvBridge
        source = self._bridged(sim, cls)
        port = source.connect_initiator("ip0", max_outstanding=2)
        bad = read(0x8000)   # beyond the far side's mapped 0x1000
        good = read(0x100)
        drive(sim, port, [bad, good])
        sim.run(until=2_000_000_000)
        assert bad.t_done is not None and bad.error
        assert good.t_done is not None and not good.error

    @pytest.mark.parametrize("bridge_name", ["lightweight", "genconv"])
    def test_far_side_write_error_acknowledged(self, sim, bridge_name):
        from repro.bridge import GenConvBridge, LightweightBridge

        cls = LightweightBridge if bridge_name == "lightweight" \
            else GenConvBridge
        source = self._bridged(sim, cls)
        port = source.connect_initiator("ip0", max_outstanding=1)
        bad = write(0x8000, posted=False)
        drive(sim, port, [bad])
        sim.run(until=2_000_000_000)
        assert bad.t_done is not None
        assert bad.error
