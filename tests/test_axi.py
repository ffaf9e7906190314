"""Behavioural tests for the AMBA AXI fabric model."""

import pytest

from repro.interconnect import Opcode

from .helpers import add_memory, drive, make_node, read, run_transactions, write


class TestArbiters:
    def test_write_path_has_its_own_round_robin(self, sim):
        from repro.interconnect.arbiter import RoundRobin

        fabric = make_node(sim, protocol="axi")
        assert type(fabric.arbiter) is RoundRobin
        assert type(fabric.write_arbiter) is RoundRobin
        assert fabric.write_arbiter is not fabric.arbiter


class TestOutstandingTransactions:
    def test_multiple_outstanding_reads(self, sim):
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric, wait_states=4, request_depth=4)
        port = fabric.connect_initiator("ip0", max_outstanding=4)
        txns = [read(i * 64) for i in range(4)]
        run_transactions(sim, port, txns)
        # All four requests were accepted before the first data returned.
        assert txns[3].t_accepted < txns[0].t_done

    def test_burst_overlap_sustains_efficiency(self, sim):
        """Section 4.1.2: the AR channel keeps issuing while R streams, so
        the R channel sustains the 50% bound of a 1-ws memory."""
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric, wait_states=1)
        port = fabric.connect_initiator("ip0", max_outstanding=4)
        txns = [read(i * 32) for i in range(16)]
        run_transactions(sim, port, txns)
        assert fabric.r_channel.utilization() == pytest.approx(0.5, abs=0.06)


class TestChannelIndependence:
    def test_reads_and_writes_use_separate_channels(self, sim):
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric, wait_states=1, request_depth=4)
        port_r = fabric.connect_initiator("reader", max_outstanding=4)
        port_w = fabric.connect_initiator("writer", max_outstanding=4)
        reads = [read(i * 32, initiator="reader") for i in range(6)]
        writes = [write(0x40000 + i * 32, initiator="writer")
                  for i in range(6)]
        drive(sim, port_r, reads)
        drive(sim, port_w, writes)
        sim.run(until=1_000_000_000)
        assert all(t.t_done is not None for t in reads + writes)
        assert fabric.ar_channel.transfers > 0
        assert fabric.w_channel.transfers > 0
        assert fabric.r_channel.transfers > 0
        assert fabric.b_channel.transfers > 0

    def test_write_gets_b_response(self, sim):
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric)
        port = fabric.connect_initiator("ip0", max_outstanding=1)
        txn = write(0x100, posted=True)  # AXI always returns a B response
        run_transactions(sim, port, [txn])
        assert txn.t_done > txn.t_accepted
        assert fabric.b_channel.transfers == 1


class TestPerBeatArbitration:
    def test_r_channel_interleaves_bursts(self, sim):
        """Fine-granularity arbitration: beats of concurrent bursts from
        different targets interleave on R."""
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric, base=0x000000, wait_states=2)
        add_memory(sim, fabric, base=0x200000, wait_states=2)
        a = fabric.connect_initiator("a", max_outstanding=2)
        b = fabric.connect_initiator("b", max_outstanding=2)
        ra = read(0x000000, beats=8, initiator="a")
        rb = read(0x200000, beats=8, initiator="b")
        drive(sim, a, [ra])
        drive(sim, b, [rb])
        sim.run(until=1_000_000_000)
        # Concurrent service: neither serialised behind the other.
        assert ra.t_first_data < rb.t_done
        assert rb.t_first_data < ra.t_done

    def test_wait_state_masking_beats_serial_ahb(self):
        """With parallel slow targets, AXI masks wait states that AHB
        exposes (Section 4.1.1)."""
        from repro.core import Simulator

        def elapsed(protocol):
            sim = Simulator()
            fabric = make_node(sim, protocol=protocol)
            add_memory(sim, fabric, base=0x000000, wait_states=3)
            add_memory(sim, fabric, base=0x200000, wait_states=3)
            ports = [fabric.connect_initiator(f"ip{i}", max_outstanding=4)
                     for i in range(2)]
            batches = [[read(i * 0x200000 + j * 32, initiator=f"ip{i}")
                        for j in range(8)] for i in range(2)]
            for port, batch in zip(ports, batches):
                drive(sim, port, batch)
            sim.run(until=2_000_000_000)
            assert all(t.t_done is not None for b in batches for t in b)
            return sim.now

        assert elapsed("axi") < elapsed("ahb")


class TestMixedQueueRegression:
    def test_write_behind_reads_is_not_stranded(self, sim):
        """Regression: a write surfacing at a port's queue head after reads
        drained must wake the AW engine (lost-wakeup deadlock)."""
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric, wait_states=2, request_depth=1,
                   response_depth=1)
        port = fabric.connect_initiator("ip0", max_outstanding=6)
        txns = [read(i * 32) for i in range(3)]
        txns += [write(0x40000 + i * 32) for i in range(2)]
        txns += [read(0x1000 + i * 32) for i in range(3)]
        run_transactions(sim, port, txns)
        assert all(t.t_done is not None for t in txns)

    def test_heavily_mixed_multimaster_traffic_drains(self, sim):
        fabric = make_node(sim, protocol="axi")
        add_memory(sim, fabric, wait_states=2, request_depth=1,
                   response_depth=1)
        batches = []
        for i in range(4):
            port = fabric.connect_initiator(f"ip{i}", max_outstanding=6)
            batch = []
            for j in range(10):
                maker = read if (i + j) % 3 else write
                batch.append(maker(i * 0x1000 + j * 64, initiator=f"ip{i}"))
            drive(sim, port, batch)
            batches.append(batch)
        sim.run(until=2_000_000_000)
        assert all(t.t_done is not None for b in batches for t in b)
