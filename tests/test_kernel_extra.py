"""Additional kernel coverage: tracing, time constants and
scheduling-order properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MS, NS, US, Simulator
from repro.core.events import PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_URGENT


class TestConstants:
    def test_scale_relations(self):
        assert NS == 1_000
        assert US == 1_000 * NS
        assert MS == 1_000 * US


class TestTraceHook:
    def test_trace_sees_every_processed_event(self):
        seen = []
        sim = Simulator(trace=lambda t, e: seen.append(t))
        sim.timeout(10)
        sim.timeout(20)
        sim.run()
        assert seen == [10, 20]
        assert sim.processed_events == 2


class TestClockFactoryBookkeeping:
    def test_clocks_tracked_by_simulator(self):
        sim = Simulator()
        sim.clock(freq_mhz=100)
        sim.clock(period_ps=1234)
        assert len(sim._clocks) == 2


class TestSchedulingProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_events_processed_in_time_order(self, delays):
        sim = Simulator()
        order = []
        for delay in delays:
            sim.timeout(delay).add_callback(
                lambda _e, d=delay: order.append(d))
        sim.run()
        assert order == sorted(delays)

    @given(st.lists(st.tuples(st.integers(0, 100),
                              st.sampled_from([PRIORITY_URGENT,
                                               PRIORITY_NORMAL,
                                               PRIORITY_LOW])),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_priority_respected_within_timestep(self, jobs):
        from repro.core.events import Timeout

        sim = Simulator()
        order = []
        for delay, priority in jobs:
            Timeout(sim, delay, priority=priority).add_callback(
                lambda _e, k=(delay, priority): order.append(k))
        sim.run()
        # Within each timestep, priorities are non-decreasing.
        for (t_a, p_a), (t_b, p_b) in zip(order, order[1:]):
            assert t_a <= t_b
            if t_a == t_b:
                assert p_a <= p_b

    @given(st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_chained_processes_deterministic(self, n):
        def run_once():
            sim = Simulator()
            log = []

            def hopper(i):
                yield sim.timeout(i * 7 % 13 + 1)
                log.append(i)

            for i in range(n):
                sim.process(hopper(i))
            sim.run()
            return log

        assert run_once() == run_once()


class TestConditionValues:
    def test_all_of_value_maps_events_to_values(self):
        sim = Simulator()
        t1 = sim.timeout(5, value="x")
        t2 = sim.timeout(9, value="y")
        cond = sim.all_of([t1, t2])
        sim.run()
        assert cond.value == {t1: "x", t2: "y"}
