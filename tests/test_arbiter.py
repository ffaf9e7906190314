"""Unit and property tests for arbitration policies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.interconnect import Opcode, Transaction
from repro.interconnect.arbiter import (
    FixedPriority,
    LeastRecentlyGranted,
    MessageArbiter,
    MessageLockStall,
    RoundRobin,
    WeightedLottery,
)


def txn(priority=0, message_id=None, message_last=True):
    return Transaction(initiator="ip", opcode=Opcode.READ, address=0,
                       beats=1, priority=priority, message_id=message_id,
                       message_last=message_last)


class TestFixedPriority:
    def test_highest_priority_wins(self):
        arb = FixedPriority()
        candidates = [("a", txn(priority=1)), ("b", txn(priority=5)),
                      ("c", txn(priority=3))]
        assert arb.select(candidates)[0] == "b"

    def test_tie_breaks_on_order(self):
        arb = FixedPriority()
        candidates = [("a", txn(priority=2)), ("b", txn(priority=2))]
        assert arb.select(candidates)[0] == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FixedPriority().select([])


class TestRoundRobin:
    def test_rotates(self):
        arb = RoundRobin()
        candidates = [("a", txn()), ("b", txn()), ("c", txn())]
        grants = [arb.select(candidates)[0] for _ in range(6)]
        assert grants == ["a", "b", "c", "a", "b", "c"]

    def test_skips_absent_sources(self):
        arb = RoundRobin()
        everyone = [("a", txn()), ("b", txn()), ("c", txn())]
        assert arb.select(everyone)[0] == "a"
        only_bc = [("b", txn()), ("c", txn())]
        assert arb.select(only_bc)[0] == "b"
        assert arb.select(everyone)[0] == "c"

    def test_new_source_joins_rotation(self):
        """A newly appearing source is granted within one full rotation."""
        arb = RoundRobin()
        assert arb.select([("a", txn())])[0] == "a"
        candidates = [("a", txn()), ("z", txn())]
        grants = [arb.select(candidates)[0] for _ in range(2)]
        assert "z" in grants

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4,
                    unique=True))
    @settings(max_examples=50, deadline=None)
    def test_no_starvation(self, sources):
        """Every persistent candidate is granted within len(sources) rounds."""
        arb = RoundRobin()
        candidates = [(s, txn()) for s in sources]
        grants = [arb.select(candidates)[0] for _ in range(2 * len(sources))]
        for source in sources:
            assert source in grants


class TestLeastRecentlyGranted:
    def test_longest_waiter_wins(self):
        arb = LeastRecentlyGranted()
        candidates = [("a", txn()), ("b", txn())]
        assert arb.select(candidates)[0] == "a"
        assert arb.select(candidates)[0] == "b"
        assert arb.select(candidates)[0] == "a"

    def test_never_granted_beats_granted(self):
        arb = LeastRecentlyGranted()
        arb.select([("a", txn())])
        assert arb.select([("a", txn()), ("new", txn())])[0] == "new"


class TestWeightedLottery:
    def test_deterministic_with_seed(self):
        candidates = [("a", txn()), ("b", txn())]
        grants1 = [WeightedLottery(seed=9).select(candidates)[0]
                   for _ in range(1)]
        grants2 = [WeightedLottery(seed=9).select(candidates)[0]
                   for _ in range(1)]
        assert grants1 == grants2

    def test_weights_bias_bandwidth(self):
        arb = WeightedLottery(tickets={"heavy": 9, "light": 1}, seed=3)
        candidates = [("heavy", txn()), ("light", txn())]
        grants = [arb.select(candidates)[0] for _ in range(500)]
        heavy_share = grants.count("heavy") / len(grants)
        assert heavy_share > 0.8

    def test_bad_default_tickets(self):
        with pytest.raises(ValueError):
            WeightedLottery(default_tickets=0)


class TestMessageArbiter:
    def test_locks_until_message_end(self):
        arb = MessageArbiter(RoundRobin())
        msg = [txn(message_id=7, message_last=False),
               txn(message_id=7, message_last=True)]
        other = ("b", txn())
        first = arb.select([("a", msg[0]), other])
        assert first[0] == "a" and arb._locked_key is not None
        second = arb.select([("a", msg[1]), other])
        assert second[0] == "a" and arb._locked_key is None
        third = arb.select([("a", txn()), other])
        assert third[0] == "b"  # round robin resumes

    def test_stall_when_locked_source_absent(self):
        arb = MessageArbiter(RoundRobin())
        arb.select([("a", txn(message_id=1, message_last=False))])
        with pytest.raises(MessageLockStall):
            arb.select([("b", txn())])

    def test_break_lock(self):
        arb = MessageArbiter(RoundRobin())
        arb.select([("a", txn(message_id=1, message_last=False))])
        arb.break_lock()
        assert arb.select([("b", txn())])[0] == "b"

    def test_release_when_absent(self):
        arb = MessageArbiter(RoundRobin(), release_when_absent=True)
        arb.select([("a", txn(message_id=1, message_last=False))])
        assert arb.select([("b", txn())])[0] == "b"
        assert arb._locked_key is None

    def test_single_packet_messages_do_not_lock(self):
        arb = MessageArbiter(RoundRobin())
        arb.select([("a", txn(message_id=4, message_last=True))])
        assert arb._locked_key is None
