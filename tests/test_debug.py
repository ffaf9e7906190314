"""Tests for the stall-diagnosis utilities."""

from repro.core import Component, Fifo, Simulator
from repro.core.debug import diagnose

from .helpers import add_memory, make_node, read


class TestDiagnose:
    def test_reports_blocked_process_and_fifo(self, sim):
        root = Component(sim, "root")
        child = Component(sim, "child", parent=root)
        child.fifo = Fifo(sim, 1, name="stuck_fifo")
        child.fifo.try_put("x")  # full

        def blocked():
            yield child.fifo.put("y")  # blocks forever

        child.process(blocked(), name="writer")
        sim.run(until=1_000)
        text = diagnose(root)
        assert "root.child" in text
        assert "writer" in text
        assert "stuck_fifo: FULL" in text
        assert "blocked put" in text

    def test_live_system_diagnosis_is_clean(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=2)
        txns = [read(i * 64) for i in range(3)]
        from .helpers import drive

        drive(sim, port, txns)
        sim.run(until=10_000_000_000)
        text = diagnose(node)
        # Everything drained: the fabric processes wait on work signals.
        assert "req_work" in text
        assert "FULL" not in text

    def test_counts_a_put_run_as_one_blocked_producer(self):
        sim = Simulator(resolution="lt")
        root = Component(sim, "root")
        root.fifo = Fifo(sim, 2, name="packet")

        def relay():
            yield root.fifo.put_run(list(range(5)))

        root.process(relay(), name="relay")
        sim.run(until=1_000)
        assert "packet: FULL [3 item(s) held by 1 blocked put(s)]" \
            in diagnose(root)

    def test_deadlocked_process_shows_no_scheduled_wake(self, sim):
        root = Component(sim, "root")
        root.fifo = Fifo(sim, 1, name="wedge")
        root.fifo.try_put("x")

        def blocked():
            yield root.fifo.put("y")  # nothing will ever drain it

        root.process(blocked(), name="writer")
        sim.run(until=1_000)
        assert "no scheduled wake" in diagnose(root)

    def test_sleeping_process_shows_wake_time(self, sim):
        root = Component(sim, "root")

        def sleeper():
            yield sim.timeout(5_000)

        root.process(sleeper(), name="napper")
        sim.run(until=1_000)
        text = diagnose(root)
        assert "wakes at t=5000 ps" in text
        assert "no scheduled wake" not in text

    def test_fifo_high_water_reported_after_drain(self, sim):
        root = Component(sim, "root")
        root.fifo = Fifo(sim, 8, name="burst")
        for i in range(6):
            root.fifo.try_put(i)
        while root.fifo.try_get() is not None:
            pass

        def idle():
            yield sim.timeout(10)

        root.process(idle(), name="p")
        sim.run()
        assert "burst: empty" in diagnose(root)
        assert "high_water=6" in diagnose(root)

    @staticmethod
    def _backpressured_node(sim, drain_at_ps=None):
        """Two reads into a depth-1 target: the second one stalls the
        request channel until the target drains (never, or late)."""
        from repro.interconnect import AddressRange

        node = make_node(sim)
        target = node.add_target("slow", AddressRange(0, 1 << 20),
                                 request_depth=1)
        if drain_at_ps is not None:
            def late_device():
                yield sim.timeout(drain_at_ps)
                yield target.get_request()
            sim.process(late_device(), name="late_device")
        port = node.connect_initiator("ip0", max_outstanding=2)
        txns = [read(0x0), read(0x40)]
        for txn in txns:
            port.issue(txn)
        return node, txns

    @staticmethod
    def _req_line(text):
        return next(line for line in text.splitlines()
                    if "process node.req:" in line)

    def test_stalled_channel_is_not_reported_as_deadlocked(self, sim):
        node, txns = self._backpressured_node(sim)  # never drains
        sim.run(until=1_000_000)
        assert txns[1].t_accepted is None
        line = self._req_line(diagnose(node))
        # The request channel ticks on its clock while the target is
        # full: stalled, with a scheduled re-check — not a lost wake-up.
        assert "no scheduled wake" not in line
        assert "stalled since t=" in line and "on node_clk" in line
        period = node.clock.period_ps
        next_edge = sim.now + period - sim.now % period
        assert f"(next edge t={next_edge} ps)" in line
        since = int(line.split("stalled since t=")[1].split()[0])
        assert 0 < since < 1_000_000 and since % period == 0

    def test_stall_ends_when_the_target_drains_late(self, sim):
        node, txns = self._backpressured_node(sim, drain_at_ps=2_000_000)
        sim.run(until=1_000_000)
        assert "stalled since t=" in self._req_line(diagnose(node))
        sim.run(until=3_000_000)
        assert txns[1].t_accepted is not None
        line = self._req_line(diagnose(node))
        assert "stalled" not in line and "req_work" in line

    def test_loosely_timed_stall_is_not_reported_as_deadlocked(self):
        sim = Simulator(resolution="lt")
        node, txns = self._backpressured_node(sim)  # never drains
        sim.run(until=1_000_000)
        assert txns[1].t_accepted is None
        line = self._req_line(diagnose(node))
        # The channel sleeps through the backpressure and nothing is
        # scheduled for it, yet it is live: a drain notifies the signal.
        assert "no scheduled wake" not in line
        assert "stalled since t=" in line and "on node_clk" in line
        assert line.rstrip(")").endswith("waiting for node.req_work")
        since = int(line.split("stalled since t=")[1].split()[0])
        assert 0 < since < 1_000_000
        assert since % node.clock.period_ps == 0

    def test_loosely_timed_stall_ends_when_the_target_drains_late(self):
        sim = Simulator(resolution="lt")
        node, txns = self._backpressured_node(sim, drain_at_ps=2_002_000)
        sim.run(until=1_000_000)
        assert "waiting for node.req_work" in self._req_line(diagnose(node))
        # Notified between two edges: realigning, with a scheduled wake.
        sim.run(until=2_003_000)
        assert txns[1].t_accepted is None
        assert "(next edge t=2005000 ps)" in self._req_line(diagnose(node))
        sim.run(until=3_000_000)
        assert txns[1].t_accepted is not None
        line = self._req_line(diagnose(node))
        assert "stalled" not in line and "req_work" in line
