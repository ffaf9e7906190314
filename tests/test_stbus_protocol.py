"""Tests for the STBus packet/opcode protocol layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect.stbus_protocol import (
    RequestPacket,
    StbusOpcode,
    VALID_SIZES,
    request_packet,
)

from .helpers import read, write


class TestOpcodes:
    def test_encode_load(self):
        assert StbusOpcode.encode(True, 8) is StbusOpcode.LD8
        assert StbusOpcode.LD8.is_load
        assert StbusOpcode.LD8.value == ("load", 8)

    def test_encode_store(self):
        assert StbusOpcode.encode(False, 4) is StbusOpcode.ST4
        assert not StbusOpcode.ST4.is_load

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            StbusOpcode.encode(True, 3)

    @pytest.mark.parametrize("size", VALID_SIZES)
    def test_full_repertoire(self, size):
        assert StbusOpcode.encode(True, size).value == ("load", size)
        assert StbusOpcode.encode(False, size).value == ("store", size)


class TestPackets:
    def test_read_request_is_single_cell(self):
        txn = read(0x0, beats=16, beat_bytes=8)
        packet = request_packet(txn, bus_width_bytes=8)
        assert packet.cells == 1
        assert packet.opcode is StbusOpcode.LD8
        assert packet.source == txn.initiator

    def test_write_request_carries_data_cells(self):
        txn = write(0x0, beats=8, beat_bytes=4)
        assert request_packet(txn, bus_width_bytes=4).cells == 8
        assert request_packet(txn, bus_width_bytes=8).cells == 4

    def test_packet_validation(self):
        with pytest.raises(ValueError):
            RequestPacket(StbusOpcode.LD4, 0, cells=0)

    @given(beats=st.sampled_from([1, 2, 4, 8, 16]),
           beat_bytes=st.sampled_from([1, 2, 4, 8]),
           width=st.sampled_from([4, 8, 16]))
    @settings(max_examples=60, deadline=None)
    def test_byte_conservation(self, beats, beat_bytes, width):
        """Data cells always cover exactly the transaction's bytes."""
        txn = write(0x0, beats=beats, beat_bytes=beat_bytes)
        packet = request_packet(txn, bus_width_bytes=width)
        assert (packet.cells - 1) * width < txn.total_bytes <= \
            packet.cells * width


class TestNodeIntegration:
    def test_node_cycles_match_packet_cells(self, sim):
        from .helpers import make_node

        node = make_node(sim, width=4)
        txn_r = read(0x0, beats=8, beat_bytes=4)
        txn_w = write(0x0, beats=8, beat_bytes=4)
        assert node.request_cycles(txn_r) == \
            request_packet(txn_r, 4).cells == 1
        assert node.request_cycles(txn_w) == \
            request_packet(txn_w, 4).cells == 8
