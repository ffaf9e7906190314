"""Behavioural tests for the STBus node model."""

import pytest

from repro.interconnect import Opcode, StbusType, Transaction

from .helpers import add_memory, drive, make_node, read, run_transactions, write


def make_unbound_message(initiator, base, message_id, packets=3, beats=4):
    """Message packets ready for ``port.issue``."""
    txns = []
    for i in range(packets):
        txns.append(Transaction(
            initiator=initiator, opcode=Opcode.READ,
            address=base + i * beats * 4, beats=beats, beat_bytes=4,
            message_id=message_id, message_last=(i == packets - 1)))
    return txns


class TestManyToOneEfficiency:
    def test_response_channel_50_percent(self, sim):
        """Section 4.1.2: 1-wait-state memory forces 1 data + 1 idle cycle;
        zero-handover arbitration sustains exactly 50% efficiency."""
        node = make_node(sim, bus_type=StbusType.T2)
        add_memory(sim, node, wait_states=1)
        ports = [node.connect_initiator(f"ip{i}", max_outstanding=4)
                 for i in range(4)]
        batches = [[read(i * 0x100 + j * 32, initiator=f"ip{i}")
                    for j in range(8)] for i, __ in enumerate(ports)]
        for port, batch in zip(ports, batches):
            for txn in batch:
                port.issue(txn)
        sim.run(until=2_000_000_000)
        for batch in batches:
            assert all(t.t_done is not None for t in batch)
        assert node.resp_channel.utilization() == pytest.approx(0.5, abs=0.05)


class TestWriteAcknowledge:
    def test_ack_is_one_response_cell_whatever_the_beat_width(self, sim):
        """A store acknowledge is one response cell, also when
        the write's beats are wider than the node's data path."""
        node = make_node(sim, bus_type=StbusType.T1, width=4)
        add_memory(sim, node)
        port = node.connect_initiator("ip0")
        txn = write(0x100, beats=2, beat_bytes=8, posted=False)
        run_transactions(sim, port, [txn])
        assert node.resp_channel.busy_ps == node.clock.period_ps
        assert node.resp_channel.transfers == 1


class TestSplitBehaviour:
    def test_t2_overlaps_transactions(self, sim):
        """With split support, a second read is accepted by the target
        while the first is still in progress."""
        node = make_node(sim, bus_type=StbusType.T2)
        add_memory(sim, node, wait_states=4, request_depth=2)
        port = node.connect_initiator("ip0", max_outstanding=2)
        t0, t1 = read(0x000), read(0x100)
        run_transactions(sim, port, [t0, t1])
        assert t1.t_accepted < t0.t_done

    def test_t1_serialises_transactions(self, sim):
        """Type 1 has no split support: the node is held end to end."""
        node = make_node(sim, bus_type=StbusType.T1)
        add_memory(sim, node, wait_states=4, request_depth=2)
        port = node.connect_initiator("ip0", max_outstanding=2)
        t0, t1 = read(0x000), read(0x100)
        run_transactions(sim, port, [t0, t1])
        assert t1.t_accepted >= t0.t_done

    def test_t1_slower_than_t2_under_load(self, sim):
        def elapsed(bus_type):
            from repro.core import Simulator

            local = Simulator()
            node = make_node(local, bus_type=bus_type)
            add_memory(local, node, wait_states=2)
            port = node.connect_initiator("ip0", max_outstanding=4)
            txns = [read(i * 64) for i in range(12)]
            return run_transactions(local, port, txns)

        assert elapsed(StbusType.T1) > elapsed(StbusType.T2)


class TestPostedWrites:
    def test_t2_write_completes_at_acceptance(self, sim):
        node = make_node(sim, bus_type=StbusType.T2)
        __, memory = add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x40, posted=True)
        run_transactions(sim, port, [txn])
        assert txn.t_done == txn.t_accepted
        assert memory.writes.value == 1

    def test_t1_write_waits_for_ack(self, sim):
        node = make_node(sim, bus_type=StbusType.T1)
        add_memory(sim, node, wait_states=2)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x40, posted=True)  # posted request, but T1 cannot post
        run_transactions(sim, port, [txn])
        assert txn.t_done > txn.t_accepted

    def test_write_data_occupies_request_channel(self, sim):
        node = make_node(sim, bus_type=StbusType.T2, width=4)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x0, beats=8, beat_bytes=4)
        run_transactions(sim, port, [txn])
        # 8 beats on a 4-byte bus: the request channel was busy 8 cycles.
        assert node.req_channel.busy_ps == 8 * node.clock.period_ps


class TestMessageArbitration:
    def _run_messages(self, sim, message_arbitration):
        node = make_node(sim, bus_type=StbusType.T3,
                         message_arbitration=message_arbitration)
        add_memory(sim, node, request_depth=4)
        a = node.connect_initiator("a", max_outstanding=4)
        b = node.connect_initiator("b", max_outstanding=4)
        msg_a = make_unbound_message("a", 0x0000, message_id=901)
        msg_b = make_unbound_message("b", 0x8000, message_id=902)
        drive(sim, a, msg_a)
        drive(sim, b, msg_b)
        sim.run(until=1_000_000_000)
        assert all(t.t_done is not None for t in msg_a + msg_b)
        return msg_a, msg_b

    def test_messages_kept_together(self, sim):
        msg_a, msg_b = self._run_messages(sim, message_arbitration=True)
        # Grant order: all of one message before any of the other.
        grants = sorted(msg_a + msg_b, key=lambda t: t.t_granted)
        sources = [t.initiator for t in grants]
        assert sources in (["a"] * 3 + ["b"] * 3, ["b"] * 3 + ["a"] * 3)

    def test_packet_arbitration_interleaves(self, sim):
        msg_a, msg_b = self._run_messages(sim, message_arbitration=False)
        grants = sorted(msg_a + msg_b, key=lambda t: t.t_granted)
        sources = [t.initiator for t in grants]
        assert sources not in (["a"] * 3 + ["b"] * 3, ["b"] * 3 + ["a"] * 3)


class TestPrefetchThreshold:
    def test_deeper_prefetch_fifo_improves_t2_throughput(self):
        """The Section 4.1.1 remedy: T2's packet-atomic response channel
        wastes wait-state gaps unless the prefetch FIFO can buffer packets."""
        from repro.core import Simulator

        def elapsed(response_depth):
            sim = Simulator()
            node = make_node(sim, bus_type=StbusType.T2)
            for t in range(2):
                add_memory(sim, node, base=t * 0x20_0000, wait_states=3,
                           response_depth=response_depth)
            ports = [node.connect_initiator(f"ip{i}", max_outstanding=4)
                     for i in range(2)]
            batches = []
            for i, port in enumerate(ports):
                txns = [read(i * 0x20_0000 + j * 32, initiator=f"ip{i}")
                        for j in range(10)]
                batches.append(txns)
            for port, batch in zip(ports, batches):
                drive(sim, port, batch)
            sim.run(until=2_000_000_000)
            assert all(t.t_done is not None for b in batches for t in b)
            return sim.now

        assert elapsed(response_depth=8) < elapsed(response_depth=1)


class TestTypeFeatureFlags:
    @pytest.mark.parametrize("bus_type,split,posted,interleave", [
        (StbusType.T1, False, False, False),
        (StbusType.T2, True, True, False),
        (StbusType.T3, True, True, True),
    ])
    def test_gates(self, sim, bus_type, split, posted, interleave):
        node = make_node(sim, bus_type=bus_type)
        assert node.spec.split == split
        assert node.posted_writes == posted
        assert node.spec.response_interleave == interleave
