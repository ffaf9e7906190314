"""Regression coverage for the kernel fast path.

The optimised kernel batches same-timestamp events and pre-binds its loop
body on the ``trace`` setting.  These tests pin down what those
optimisations must preserve: deterministic ``(time, priority, sequence)``
ordering, bit-identical ``processed_events`` counts versus the seed kernel,
and the documented ``run(until=...)`` boundary behaviour.
"""

import pytest

from repro.core import AllOf, Fifo, Simulator
from repro.core.events import (
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Timeout,
)

from .helpers import clock_edges, fifo_pipeline, timeout_storm


class TestSameTimestampBatching:
    def test_priority_then_sequence_within_cluster(self, sim):
        order = []
        for i, priority in enumerate([PRIORITY_LOW, PRIORITY_NORMAL,
                                      PRIORITY_URGENT, PRIORITY_NORMAL,
                                      PRIORITY_LOW, PRIORITY_URGENT]):
            Timeout(sim, 100, priority=priority).add_callback(
                lambda _e, k=(priority, i): order.append(k))
        sim.run()
        # Priorities ascend; within a priority, insertion sequence holds.
        assert order == sorted(order)

    def test_event_scheduled_mid_cluster_joins_cluster(self, sim):
        """A callback scheduling for the *current* time runs in the same
        timestamp cluster, after everything already queued there."""
        order = []

        def first(_e):
            order.append("first")
            sim.timeout(0).add_callback(lambda _e: order.append("chained"))

        sim.timeout(50).add_callback(first)
        sim.timeout(50).add_callback(lambda _e: order.append("second"))
        sim.run()
        assert order == ["first", "second", "chained"]
        assert sim.now == 50

    def test_urgent_event_scheduled_mid_cluster_preempts(self, sim):
        order = []

        def first(_e):
            order.append("first")
            Timeout(sim, 0, priority=PRIORITY_URGENT).add_callback(
                lambda _e: order.append("urgent"))

        sim.timeout(50).add_callback(first)
        Timeout(sim, 50, priority=PRIORITY_LOW).add_callback(
            lambda _e: order.append("low"))
        sim.run()
        # The urgent event outranks the already-queued low-priority one.
        assert order == ["first", "urgent", "low"]

    def test_traced_and_untraced_runs_identical(self):
        def workload(sim):
            fifo = Fifo(sim, 2)

            def producer():
                for i in range(20):
                    yield fifo.put(i)
                    yield sim.timeout(3)

            def consumer():
                for _ in range(20):
                    yield fifo.get()
                    yield sim.timeout(5)

            sim.process(producer())
            sim.process(consumer())

        plain = Simulator()
        workload(plain)
        plain.run()

        seen = []
        traced = Simulator(trace=lambda t, e: seen.append(t))
        workload(traced)
        traced.run()

        assert traced.processed_events == plain.processed_events
        assert traced.now == plain.now
        assert len(seen) == traced.processed_events
        assert seen == sorted(seen)

    def test_sliced_run_matches_straight_totals(self):
        def build():
            sim = Simulator()
            for i in range(30):
                sim.timeout(i % 7)
            return sim

        free = build()
        free.run()
        sliced = build()
        while sliced.peek() is not None:
            sliced.run(until=sliced.peek())
        assert sliced.processed_events == free.processed_events
        assert sliced.now == free.now


class TestSeedDeterminism:
    """Event counts the seed (pre-optimisation) kernel produced.

    The CA numbers were recorded on the unoptimised kernel; the fast path
    must reproduce them bit-identically.  LT schedules a different event
    population by design (FIFO hand-offs resolve inline), so it has its
    own exact counts.
    """

    @pytest.mark.parametrize("resolution,expected", [
        ("ca", (8_008, 14_000)), ("lt", (8_004, 14_000))], ids=["ca", "lt"])
    def test_timeout_storm_count(self, resolution, expected):
        assert timeout_storm(resolution=resolution) == expected

    @pytest.mark.parametrize("resolution,expected", [
        ("ca", (8_007, 0)), ("lt", (5, 0))], ids=["ca", "lt"])
    def test_fifo_pipeline_count(self, resolution, expected):
        assert fifo_pipeline(resolution=resolution) == expected

    @pytest.mark.parametrize("resolution,expected", [
        ("ca", (9_006, 18_072_000)), ("lt", (9_003, 18_072_000))],
        ids=["ca", "lt"])
    def test_clock_edges_count(self, resolution, expected):
        assert clock_edges(resolution=resolution) == expected


class TestRunUntilClamping:
    def test_until_clamps_now_before_future_events(self, sim):
        sim.timeout(10_000)
        assert sim.run(until=4_000) == 4_000
        assert sim.now == 4_000
        assert sim.processed_events == 0

    def test_until_exactly_at_event_processes_it(self, sim):
        sim.timeout(4_000)
        sim.run(until=4_000)
        assert sim.processed_events == 1
        assert sim.now == 4_000

    def test_drained_queue_does_not_jump_to_until(self, sim):
        sim.timeout(1_000)
        assert sim.run(until=9_999_999) == 1_000

    def test_traced_run_respects_until(self):
        sim = Simulator(trace=lambda t, e: None)
        sim.timeout(10_000)
        assert sim.run(until=123) == 123


class TestEdgeTimeouts:
    def test_edge_timeouts_fire_in_order(self, sim):
        clk = sim.clock(period_ps=1_000)
        ticks = []

        def spinner():
            for _ in range(10):
                yield clk.edge()
                ticks.append(sim.now)

        sim.process(spinner())
        sim.run()
        assert ticks == [1_000 * (i + 1) for i in range(10)]

    def test_condition_over_edges_reads_processed_children(self, sim):
        clk_a = sim.clock(period_ps=1_000, name="a")
        clk_b = sim.clock(period_ps=1_500, name="b")
        edge_a, edge_b = clk_a.edge(), clk_b.edge()
        cond = AllOf(sim, [edge_a, edge_b])
        sim.run()
        assert cond.processed
        assert edge_a.processed and edge_b.processed
        assert cond.value == {edge_a: None, edge_b: None}

    def test_isinstance_timeout_still_holds(self, sim):
        clk = sim.clock(period_ps=100)
        assert isinstance(clk.edge(), Timeout)

    def test_each_edge_wait_is_its_own_timeout(self, sim):
        clk = sim.clock(freq_mhz=200)
        waited = []

        def spinner():
            for _ in range(50):
                edge = clk.edge()
                waited.append(edge)
                yield edge

        sim.process(spinner())
        sim.run()
        assert len({id(edge) for edge in waited}) == 50
        assert all(type(edge) is Timeout and edge.processed
                   for edge in waited)

    def test_a_fired_edge_keeps_its_state_after_later_waits(self, sim):
        clk = sim.clock(period_ps=10)
        first = clk.edge()
        sim.run()
        assert first.processed
        second = clk.edge()
        assert second is not first
        assert first.processed and not second.processed
        assert first.delay == 10 and second.delay == 10
        sim.run()
        assert second.processed and first.processed and sim.now == 20

    def test_edges_builds_what_a_constructed_timeout_holds(self, sim):
        # Clock.edges skips Timeout.__init__: its event must carry the
        # same state, in the same kind of queue slot, as one built by it.
        clk = sim.clock(period_ps=1_000, name="bus")
        sim.timeout(250)
        sim.run()
        built = clk.edges(3)
        constructed = sim.timeout(built.delay, name="bus.edge")
        assert type(built) is Timeout and built.delay == 2_750
        for slot in ("name", "callbacks", "_value", "_ok", "_processed",
                     "delay"):
            assert getattr(built, slot) == getattr(constructed, slot), slot
        slots = {event: (when, priority, sequence)
                 for when, priority, sequence, event in sim._queue}
        assert slots[built][:2] == slots[constructed][:2]
        assert slots[built][:2] == (3_000, PRIORITY_NORMAL)
        assert slots[built][2] + 1 == slots[constructed][2]

    def test_edge_waits_in_both_loop_bodies(self):
        runs = []
        for kwargs in ({"trace": lambda t, e: None}, {}):
            sim = Simulator(**kwargs)
            clk = sim.clock(period_ps=100)
            ticks, waited = [], []

            def spinner():
                for n in (1, 2, 1, 3, 1):
                    edge = clk.edge() if n == 1 else clk.edges(n)
                    waited.append(edge)
                    yield edge
                    ticks.append(sim.now)

            sim.process(spinner())
            sim.run()
            assert len({id(edge) for edge in waited}) == 5
            assert all(edge.processed for edge in waited)
            runs.append((ticks, sim.processed_events))
        assert runs[0] == runs[1]
        assert runs[0][0] == [100, 300, 400, 700, 800]


class TestDifferentialBitIdentity:
    """Fast-path vs reference (traced) loop body, under randomized
    platform configurations and the full invariant-monitor suite.

    ``random_config`` maps an integer seed to a small platform covering
    every protocol/topology/memory combination; ``CheckedRun`` executes it
    on both kernel paths and compares event counts and every RunResult
    field bit for bit, so a fast-path divergence fails here at PR time
    instead of skewing a reproduced figure.
    """

    def test_single_seed_smoke(self):
        from repro.check import CheckedRun, random_config

        outcome = CheckedRun(random_config(seed=1))
        assert outcome.ok, outcome.format()
        assert outcome.fast_events == outcome.reference_events
        assert outcome.fast_now == outcome.reference_now

    def test_hypothesis_randomized_configs(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings

        from repro.check import CheckedRun, random_config

        from .strategies import config_seeds

        @settings(max_examples=25, derandomize=True, deadline=None)
        @given(seed=config_seeds)
        def run_one(seed):
            outcome = CheckedRun(random_config(seed))
            assert outcome.ok, outcome.format()

        run_one()

    def test_divergence_is_reported(self, monkeypatch):
        """A doctored reference leg must surface as a mismatch, proving
        the comparison is not vacuous."""
        import dataclasses

        import repro.check.differential as differential

        real_leg = differential._run_leg

        def doctored_leg(config, max_ps, reference):
            sim, result, violations = real_leg(config, max_ps, reference)
            if reference:
                result = dataclasses.replace(
                    result, transactions=result.transactions + 1)
            return sim, result, violations

        monkeypatch.setattr(differential, "_run_leg", doctored_leg)
        outcome = differential.CheckedRun(differential.random_config(seed=2))
        assert not outcome.ok
        assert any("RunResult.transactions" in m for m in outcome.mismatches)
        assert "diverged" in outcome.format()
