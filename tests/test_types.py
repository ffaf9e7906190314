"""Unit tests for transactions, address ranges and messages."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulator
from repro.interconnect import AddressRange, Opcode, ResponseBeat, Transaction

from .helpers import make_node


def _decoder(window):
    """A fabric whose one target claims ``window``: decode is where the
    program tests an address against a range."""
    fabric = make_node(Simulator())
    target = fabric.add_target("mem", window)
    return fabric, target


class TestAddressRange:
    def test_decode_is_half_open(self):
        fabric, target = _decoder(AddressRange(0x1000, 0x100))
        assert fabric.try_route(0x1000) is target
        assert fabric.try_route(0x10FF) is target
        assert fabric.try_route(0x1100) is None
        assert fabric.try_route(0xFFF) is None

    def test_overlap(self):
        a = AddressRange(0, 100)
        assert a.overlaps(AddressRange(50, 100))
        assert not a.overlaps(AddressRange(100, 100))

    def test_validation(self):
        with pytest.raises(ValueError):
            AddressRange(0, 0)
        with pytest.raises(ValueError):
            AddressRange(-1, 10)

    @given(st.integers(0, 2**32), st.integers(1, 2**20), st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_decode_matches_interval(self, base, size, addr):
        fabric, target = _decoder(AddressRange(base, size))
        assert (fabric.try_route(addr) is target) == \
            (base <= addr < base + size)


class TestTransaction:
    def _txn(self, **kw):
        args = dict(initiator="ip0", opcode=Opcode.READ, address=0x100,
                    beats=8, beat_bytes=4)
        args.update(kw)
        return Transaction(**args)

    def test_basics(self):
        txn = self._txn()
        assert txn.is_read and not txn.is_write
        assert txn.total_bytes == 32
        assert txn.end_address == 0x120

    def test_validation(self):
        with pytest.raises(ValueError):
            self._txn(beats=0)
        with pytest.raises(ValueError):
            self._txn(beat_bytes=3)
        with pytest.raises(ValueError):
            self._txn(address=-4)

    def test_unique_ids(self):
        ids = {self._txn().tid for _ in range(100)}
        assert len(ids) == 100

    def test_bind_and_complete(self):
        sim = Simulator()
        txn = self._txn().bind(sim)
        assert txn.t_created == 0
        assert txn.ev_done is not None and not txn.ev_done.triggered
        txn.mark_accepted(50)
        txn.complete(120)
        assert txn.t_accepted == 50
        assert txn.latency_ps == 120
        sim.run()
        assert txn.ev_done.value is txn

    def test_double_bind_rejected(self):
        sim = Simulator()
        txn = self._txn().bind(sim)
        with pytest.raises(RuntimeError):
            txn.bind(sim)

    def test_latency_none_until_done(self):
        txn = self._txn()
        assert txn.latency_ps is None

    def test_child_converts_width(self):
        parent = self._txn(beats=8, beat_bytes=4)  # 32 bytes
        child = parent.child(beats=4, beat_bytes=8)
        assert child.total_bytes == parent.total_bytes
        assert child.tid != parent.tid
        assert child.meta["parent"] is parent
        assert child.ev_done is None  # fresh, unbound

    def test_mark_accepted_idempotent(self):
        sim = Simulator()
        txn = self._txn().bind(sim)
        txn.mark_accepted(10)
        txn.mark_accepted(99)
        assert txn.t_accepted == 10


class TestResponseBeat:
    def test_write_ack_flag(self):
        txn = Transaction(initiator="x", opcode=Opcode.WRITE, address=0,
                          beats=1)
        ack = ResponseBeat(txn, index=-1, is_last=True)
        data = ResponseBeat(txn, index=0, is_last=False)
        assert ack.is_write_ack
        assert not data.is_write_ack
