"""Tests for the hierarchical metric registry (repro.obs.registry)."""

import pytest

from repro.core import Fifo, Simulator
from repro.obs.registry import (
    STATE_FULL,
    STATE_IDLE,
    STATE_STORING,
    FifoProbe,
    InterfaceProbe,
    MetricRegistry,
)

from .helpers import add_memory, make_node, read, run_transactions


class TestRegistryBasics:
    def test_lazy_singleton_on_simulator(self, sim):
        assert sim._metrics is None
        registry = sim.metrics
        assert isinstance(registry, MetricRegistry)
        assert sim.metrics is registry

    def test_factories_register_by_path(self, sim):
        metrics = sim.metrics
        counter = metrics.counter("node.ip0.issued")
        histogram = metrics.histogram("node.ip0.latency")
        assert metrics.get("node.ip0.issued") is counter
        assert metrics.get("node.ip0.latency") is histogram
        assert "node.ip0.issued" in metrics
        assert len(metrics) == 2

    def test_empty_path_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.metrics.counter("")

    def test_collisions_get_deterministic_suffix(self, sim):
        metrics = sim.metrics
        first = metrics.counter("dup")
        second = metrics.counter("dup")
        third = metrics.counter("dup")
        assert first is metrics.get("dup")
        assert second is metrics.get("dup~2")
        assert third is metrics.get("dup~3")


class TestSnapshot:
    def test_counter_rows(self, sim):
        sim.metrics.counter("hits").add(3)
        assert sim.metrics.snapshot() == {"hits": 3.0}

    def test_histogram_rows(self, sim):
        latency = sim.metrics.histogram("lat")
        for value in (100, 200, 300):
            latency.add(value)
        rows = sim.metrics.snapshot()
        assert rows["lat.count"] == 3.0
        assert rows["lat.mean"] == 200.0
        assert rows["lat.min"] == 100.0
        assert rows["lat.max"] == 300.0

    def test_empty_histogram_emits_only_count(self, sim):
        sim.metrics.histogram("lat")
        rows = sim.metrics.snapshot()
        assert rows["lat.count"] == 0.0
        assert "lat.mean" not in rows

    def test_states_rows_sum_to_one(self, sim):
        states = sim.metrics.phased_states("unit", initial="idle")

        def body():
            yield sim.timeout(400)
            states.set_state("busy")
            yield sim.timeout(600)

        sim.process(body())
        sim.run()
        rows = sim.metrics.snapshot()
        assert rows["unit.phase0.frac.idle"] == pytest.approx(0.4)
        assert rows["unit.phase0.frac.busy"] == pytest.approx(0.6)


class TestFifoProbe:
    def test_waiting_times_pair_level_changes(self, sim):
        fifo = Fifo(sim, 4, name="f")
        probe = sim.metrics.fifo("f", fifo)
        assert isinstance(probe, FifoProbe)

        def body():
            fifo.try_put("a")
            yield sim.timeout(100)
            fifo.try_put("b")
            yield sim.timeout(150)
            assert fifo.try_get() == "a"   # waited 250
            yield sim.timeout(50)
            assert fifo.try_get() == "b"   # waited 200

        sim.process(body())
        sim.run()
        assert probe.wait.count == 2
        assert sorted(probe.wait.samples) == [200, 250]

    def test_snapshot_rows_include_occupancy_and_waits(self, sim):
        fifo = Fifo(sim, 4, name="f")
        sim.metrics.fifo("lmi.input", fifo)
        fifo.try_put("a")
        rows = sim.metrics.snapshot()
        assert rows["lmi.input.level"] == 1.0
        assert rows["lmi.input.capacity"] == 4.0
        assert rows["lmi.input.high_water"] == 1.0
        assert rows["lmi.input.wait.count"] == 0.0


class TestInterfaceProbe:
    def test_state_partition(self, sim):
        node = make_node(sim)
        port, __ = add_memory(sim, node, request_depth=1, wait_states=6)
        probe = InterfaceProbe(port)
        assert port.interface_probe is probe
        ip = node.connect_initiator("ip0", max_outstanding=4)
        txns = [read(i * 64) for i in range(6)]
        run_transactions(sim, ip, txns)
        report = probe.report()
        assert set(report) == {"phase1"}
        row = report["phase1"]
        total = row[STATE_FULL] + row[STATE_STORING] + row[STATE_IDLE]
        assert total == pytest.approx(1.0, abs=0.01)
        assert row[STATE_STORING] > 0.0
        assert 0.0 <= row["fifo_empty"] <= 1.0

    def test_phases_split_the_timeline(self, sim):
        node = make_node(sim)
        port, __ = add_memory(sim, node)
        probe = InterfaceProbe(port)

        def body():
            yield sim.timeout(1_000)
            probe.begin_phase("phase2")
            yield sim.timeout(1_000)

        sim.process(body())
        sim.run()
        report = probe.report()
        assert list(report) == ["phase1", "phase2"]

    def test_idle_system_is_all_idle(self, sim):
        node = make_node(sim)
        port, __ = add_memory(sim, node)
        probe = InterfaceProbe(port)
        sim.timeout(10_000)
        sim.run()
        row = probe.report()["phase1"]
        assert row[STATE_IDLE] == pytest.approx(1.0)
        assert row["fifo_empty"] == pytest.approx(1.0)

    def test_platform_probes_its_memory_port_only_under_capture(self):
        from repro.obs import capture
        from repro.platforms import build_platform, quick_config

        plain = build_platform(Simulator(), quick_config())
        assert plain.monitor is None
        memory_port, = plain.fabrics["central"].targets
        assert memory_port.interface_probe is None
        with capture():
            traced = build_platform(Simulator(), quick_config())
        memory_port, = traced.fabrics["central"].targets
        assert memory_port.interface_probe is traced.monitor
        assert "mem.iface.states" in traced.sim.metrics


class TestFifoHighWater:
    def test_high_water_survives_drain(self, sim):
        fifo = Fifo(sim, 8, name="f")
        for item in range(5):
            fifo.try_put(item)
        for _ in range(5):
            fifo.try_get()
        assert fifo.level == 0
        assert fifo.high_water == 5


class TestOneProbePerFifo:
    def test_capture_probes_the_lmi_request_fifo_once(self):
        """The Fig. 6 interface probe reads the FIFO its ``TargetPort``
        already probes as ``<fabric>.<port>.req_fifo``; it adds no second
        ``FifoProbe``."""
        from repro.obs import capture
        from repro.platforms import instance, lmi_memory
        from repro.sweep import Run

        with capture():
            run = Run(instance("stbus", "distributed", lmi_memory(),
                               traffic_scale=0.05))
        metrics = run.sim.metrics
        probes = [metrics.get(path) for path in metrics.paths()
                  if isinstance(metrics.get(path), FifoProbe)]
        watched = [id(probe.fifo) for probe in probes]
        assert len(watched) == len(set(watched))
        assert id(run.platform.monitor.port.request_fifo) in watched
