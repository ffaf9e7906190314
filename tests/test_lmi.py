"""Behavioural tests for the LMI memory controller."""

import pytest

from repro.core import Simulator
from repro.interconnect import StbusType
from repro.memory import LmiConfig, LmiController

from .helpers import drive, make_node, read, write

MEM_SPAN = 1 << 26


def lmi_system(sim, config=None, bus_type=StbusType.T3, freq_mhz=166):
    node = make_node(sim, protocol="stbus", freq_mhz=freq_mhz, width=8,
                     bus_type=bus_type)
    clk = sim.clock(freq_mhz=freq_mhz, name="lmi_clk")
    lmi = LmiController.attach(sim, node, "lmi", 0, MEM_SPAN, clk,
                               config=config or LmiConfig())
    return node, lmi


class TestLatencyCalibration:
    def test_row_hit_first_read_data_about_11_cycles(self, sim):
        """Section 4.2: '11 cycles to get the first read data word since
        the request was sampled'.  We calibrate the back-annotated pipeline
        to land in that neighbourhood for a row-hit read."""
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=2)
        warmup = read(0x0, beats=8, beat_bytes=8)
        probe = read(0x40, beats=8, beat_bytes=8)
        drive(sim, port, [warmup])
        sim.run(until=1_000_000_000)
        drive(sim, port, [probe])
        sim.run(until=2_000_000_000)
        cycles = (probe.t_first_data - probe.t_accepted) / lmi.clock.period_ps
        assert 8 <= cycles <= 14

    def test_row_miss_costs_more(self, sim):
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=1)
        geom = lmi.device.geometry
        row_bytes = (1 << geom.col_bits) * geom.width_bytes * geom.banks
        t0 = read(0x0, beats=8, beat_bytes=8)
        hit = read(0x40, beats=8, beat_bytes=8)
        miss = read(row_bytes * 2, beats=8, beat_bytes=8)
        for txn in (t0, hit, miss):
            drive(sim, port, [txn])
            sim.run(until=5_000_000_000)
        latency = lambda t: t.t_first_data - t.t_accepted  # noqa: E731
        assert latency(miss) > latency(hit)


class TestOptimisationEngine:
    def test_opcode_merging_contiguous_bursts(self, sim):
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=4)
        txns = [read(i * 64, beats=8, beat_bytes=8) for i in range(4)]
        drive(sim, port, txns)
        sim.run(until=5_000_000_000)
        assert all(t.t_done is not None for t in txns)
        assert lmi.merges.value > 0
        # Merged work issues fewer device READ commands than transactions.
        assert lmi.device.reads.value < len(txns)

    def test_merge_limit_respected(self, sim):
        config = LmiConfig(merge_limit=2, input_fifo_depth=8)
        node, lmi = lmi_system(sim, config=config)
        port = node.connect_initiator("ip0", max_outstanding=8)
        txns = [read(i * 64, beats=8, beat_bytes=8) for i in range(8)]
        drive(sim, port, txns)
        sim.run(until=5_000_000_000)
        # With at most 2 fused per access, >= 4 READ commands are needed.
        assert lmi.device.reads.value >= 4

    def test_lookahead_prefers_row_hits(self, sim):
        """With a row-conflicting head and a row-hit behind it, lookahead
        promotes the hit."""
        config = LmiConfig(lookahead_depth=4, merge_limit=1,
                           input_fifo_depth=4)
        node, lmi = lmi_system(sim, config=config)
        port = node.connect_initiator("ip0", max_outstanding=4)
        geom = lmi.device.geometry
        row_stride = (1 << geom.col_bits) * geom.width_bytes * geom.banks
        # The opener keeps the engine busy while the conflict + hit pile up
        # in the input FIFO, giving the lookahead a window to reorder.
        opener = read(0x0, beats=8, beat_bytes=8)
        conflict = read(2 * row_stride, beats=8, beat_bytes=8)
        hit = read(0x40, beats=8, beat_bytes=8)
        drive(sim, port, [opener, conflict, hit])
        sim.run(until=5_000_000_000)
        assert lmi.lookahead_promotions.value >= 1
        assert hit.t_first_data < conflict.t_first_data

    def test_fifo_order_without_lookahead(self, sim):
        config = LmiConfig(lookahead_depth=1, merge_limit=1)
        node, lmi = lmi_system(sim, config=config)
        port = node.connect_initiator("ip0", max_outstanding=4)
        txns = [read(i * 4096, beats=8, beat_bytes=8) for i in range(4)]
        drive(sim, port, txns)
        sim.run(until=5_000_000_000)
        assert lmi.lookahead_promotions.value == 0
        first_data = [t.t_first_data for t in txns]
        assert first_data == sorted(first_data)


class TestSplitDependence:
    def test_single_outstanding_starves_optimiser(self, sim):
        """The Fig. 5 mechanism: with one transaction in flight at a time,
        the input FIFO never holds more than one entry and no merging can
        happen."""
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=1)
        txns = [read(i * 64, beats=8, beat_bytes=8) for i in range(6)]
        drive(sim, port, txns)
        sim.run(until=5_000_000_000)
        assert all(t.t_done is not None for t in txns)
        assert lmi.merges.value == 0

    def test_pipelined_initiator_fills_fifo_and_wins(self):
        def elapsed(outstanding):
            sim = Simulator()
            node, lmi = lmi_system(sim)
            port = node.connect_initiator("ip0", max_outstanding=outstanding)
            txns = [read(i * 64, beats=8, beat_bytes=8) for i in range(12)]
            drive(sim, port, txns)
            sim.run(until=10_000_000_000)
            assert all(t.t_done is not None for t in txns)
            return sim.now

        assert elapsed(6) < elapsed(1)


class TestWrites:
    def test_posted_write_stream(self, sim):
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=4)
        txns = [write(i * 64, beats=8, beat_bytes=8, posted=True)
                for i in range(6)]
        drive(sim, port, txns)
        sim.run(until=5_000_000_000)
        assert all(t.t_done is not None for t in txns)
        assert lmi.device.writes.value >= 1

    def test_mixed_read_write(self, sim):
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=4)
        txns = []
        for i in range(8):
            maker = read if i % 2 else write
            txns.append(maker(i * 64, beats=8, beat_bytes=8))
        drive(sim, port, txns)
        sim.run(until=5_000_000_000)
        assert all(t.t_done is not None for t in txns)


class TestRefresh:
    def test_refresh_issued_during_long_runs(self, sim):
        node, lmi = lmi_system(sim)
        port = node.connect_initiator("ip0", max_outstanding=2)
        # Spread transactions over several tREFI periods.
        txns = [read(i * 64, beats=4, beat_bytes=8) for i in range(30)]
        drive(sim, port, txns, gap_ps=lmi.clock.to_ps(600))
        sim.run(until=200_000_000_000)
        assert all(t.t_done is not None for t in txns)
        assert lmi.device.refreshes.value >= 1

    def test_refresh_can_be_disabled(self, sim):
        config = LmiConfig(refresh_enabled=False)
        node, lmi = lmi_system(sim, config=config)
        port = node.connect_initiator("ip0", max_outstanding=2)
        txns = [read(i * 64, beats=4, beat_bytes=8) for i in range(20)]
        drive(sim, port, txns, gap_ps=lmi.clock.to_ps(600))
        sim.run(until=200_000_000_000)
        assert lmi.device.refreshes.value == 0


class TestReadPriority:
    def test_read_bypasses_queued_writes(self, sim):
        """With read_priority, a read behind posted writes is promoted."""
        config = LmiConfig(lookahead_depth=4, merge_limit=1,
                           read_priority=True, input_fifo_depth=4)
        node, lmi = lmi_system(sim, config=config)
        port = node.connect_initiator("ip0", max_outstanding=4)
        opener = write(0x0, beats=8, beat_bytes=8)
        w1 = write(0x1000, beats=8, beat_bytes=8)
        w2 = write(0x2000, beats=8, beat_bytes=8)
        r = read(0x3000, beats=8, beat_bytes=8)
        drive(sim, port, [opener, w1, w2, r])
        sim.run(until=5_000_000_000)
        assert r.t_done is not None
        assert lmi.lookahead_promotions.value >= 1

    def test_read_latency_improves(self):
        """Read latency drops when reads bypass the write queue."""
        def mean_read_latency(read_priority):
            sim = Simulator()
            config = LmiConfig(read_priority=read_priority,
                               input_fifo_depth=6, merge_limit=1)
            node, lmi = lmi_system(sim, config=config)
            port = node.connect_initiator("ip0", max_outstanding=6)
            txns = []
            for i in range(18):
                maker = read if i % 3 == 2 else write
                txns.append(maker(i * 4096, beats=8, beat_bytes=8))
            drive(sim, port, txns)
            sim.run(until=10_000_000_000)
            lats = [t.latency_ps for t in txns if t.is_read]
            assert all(lat is not None for lat in lats)
            return sum(lats) / len(lats)

        assert mean_read_latency(True) < mean_read_latency(False)


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            LmiConfig(input_fifo_depth=0)
        with pytest.raises(ValueError):
            LmiConfig(lookahead_depth=0)
        with pytest.raises(ValueError):
            LmiConfig(merge_limit=0)
        with pytest.raises(ValueError):
            LmiConfig(pipeline_front_cycles=-1)
