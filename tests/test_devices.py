"""Tests for the functional device models (DMA engine, display)."""

import pytest

from repro.core import Simulator
from repro.devices import DisplayController, DmaDescriptor, DmaEngine

from .helpers import add_memory, drive, make_node, read


class TestDmaDescriptor:
    def test_burst_count(self):
        # 200 bytes in 64-byte bursts: four reads, each with its write.
        sim = Simulator()
        node = make_node(sim, width=8)
        add_memory(sim, node, width=8)
        engine = DmaEngine(sim, "dma", node.connect_initiator("dma"),
                           beat_bytes=8)
        engine.program([DmaDescriptor(source=0, destination=0x1000,
                                      length=200, burst_bytes=64)])
        engine.start()
        sim.run(until=10_000_000_000)
        assert engine.bursts_issued.value == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaDescriptor(source=0, destination=0, length=0)
        with pytest.raises(ValueError):
            DmaDescriptor(source=0, destination=0, length=64, burst_bytes=6)
        with pytest.raises(ValueError):
            DmaDescriptor(source=-4, destination=0, length=64)


class TestDmaEngine:
    def _engine(self, sim, wait_states=1):
        node = make_node(sim, width=8)
        add_memory(sim, node, wait_states=wait_states, width=8,
                   request_depth=2, response_depth=4)
        port = node.connect_initiator("dma", max_outstanding=4)
        return DmaEngine(sim, "dma", port, beat_bytes=8), node

    def test_single_channel_copy(self, sim):
        engine, __ = self._engine(sim)
        channel = engine.program([DmaDescriptor(0x0000, 0x8000, 512)])
        engine.start()
        sim.run(until=10_000_000_000)
        assert channel.done.triggered
        assert channel.bytes_moved == 512
        assert engine.total_bytes_moved == 512

    def test_multi_channel_round_robin(self, sim):
        engine, __ = self._engine(sim)
        a = engine.program([DmaDescriptor(0x0000, 0x8000, 256),
                            DmaDescriptor(0x0100, 0x9000, 256)])
        b = engine.program([DmaDescriptor(0x4000, 0xA000, 256)])
        done = engine.start()
        sim.run(until=10_000_000_000)
        assert done.triggered
        assert done.value == 768
        assert a.bytes_moved == 512 and b.bytes_moved == 256

    def test_partial_tail_burst(self, sim):
        engine, __ = self._engine(sim)
        channel = engine.program([DmaDescriptor(0x0, 0x8000, 100,
                                                burst_bytes=64)])
        engine.start()
        sim.run(until=10_000_000_000)
        assert channel.bytes_moved == 100

    def test_cannot_reprogram_after_start(self, sim):
        engine, __ = self._engine(sim)
        engine.program([DmaDescriptor(0x0, 0x8000, 64)])
        engine.start()
        with pytest.raises(RuntimeError):
            engine.program([DmaDescriptor(0x0, 0x8000, 64)])
        with pytest.raises(RuntimeError):
            engine.start()

    def test_start_requires_channels(self, sim):
        engine, __ = self._engine(sim)
        with pytest.raises(RuntimeError):
            engine.start()

    def test_pipelines_bursts(self):
        """Copy throughput beats strictly serial burst round trips."""
        def copy_time(outstanding):
            sim = Simulator()
            node = make_node(sim, width=8)
            add_memory(sim, node, wait_states=4, width=8,
                       request_depth=2, response_depth=4)
            port = node.connect_initiator("dma",
                                          max_outstanding=outstanding)
            engine = DmaEngine(sim, "dma", port, beat_bytes=8)
            engine.program([DmaDescriptor(0x0, 0x8000, 1024,
                                          burst_bytes=64)])
            engine.start()
            sim.run(until=100_000_000_000)
            assert engine.total_bytes_moved == 1024
            return sim.now

        assert copy_time(4) < copy_time(1)


class TestDisplayController:
    def _display(self, sim, line_period_cycles, wait_states=1, **kwargs):
        node = make_node(sim, width=8)
        add_memory(sim, node, wait_states=wait_states, width=8,
                   request_depth=2, response_depth=4)
        port = node.connect_initiator("disp", max_outstanding=4)
        return DisplayController(
            sim, "disp", port, framebuffer_base=0x0, line_bytes=256,
            lines=12, line_period_cycles=line_period_cycles,
            beat_bytes=8, **kwargs), node

    def test_relaxed_deadlines_no_underruns(self, sim):
        display, __ = self._display(sim, line_period_cycles=400)
        sim.run(until=100_000_000_000)
        assert display.done.triggered
        assert display.underruns.value == 0
        assert display.lines_displayed.value == 12
        assert display.worst_margin_ps > 0

    def test_impossible_deadlines_underrun(self, sim):
        # A 256-byte line cannot arrive every 10 cycles.
        display, __ = self._display(sim, line_period_cycles=10)
        sim.run(until=100_000_000_000)
        assert display.done.triggered
        assert display.underruns.value > 0
        assert display.underruns.value > 0.3 * display.lines_displayed.value
        assert display.worst_margin_ps < 0

    def test_contention_causes_underruns(self, sim):
        """A hog sharing the memory pushes a tight display over the edge."""
        display, node = self._display(sim, line_period_cycles=72)
        hog_port = node.connect_initiator("hog", max_outstanding=8)
        hog = [read(0x40000 + i * 64, beats=8, beat_bytes=8,
                    initiator="hog") for i in range(120)]
        drive(sim, hog_port, hog)
        sim.run(until=100_000_000_000)
        assert display.done.triggered
        contended_underruns = display.underruns.value

        # Same display alone: clean.
        sim2 = Simulator()
        alone, __ = self._display(sim2, line_period_cycles=72)
        sim2.run(until=100_000_000_000)
        assert alone.underruns.value < contended_underruns

    def test_margins_recorded_per_line(self, sim):
        display, __ = self._display(sim, line_period_cycles=400)
        sim.run(until=100_000_000_000)
        assert len(display.margins_ps) == 12

    def test_validation(self, sim):
        node = make_node(sim)
        port = node.connect_initiator("d")
        with pytest.raises(ValueError):
            DisplayController(sim, "d", port, 0, line_bytes=0)
        with pytest.raises(ValueError):
            DisplayController(sim, "d", port, 0, line_buffer_lines=0)
