"""Unit tests for the discrete-event kernel (events, processes, conditions)."""

import pytest

from repro.core import (
    AllOf,
    Event,
    EventError,
    Simulator,
)
from repro.core.events import PRIORITY_URGENT


class TestTime:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_timeout_advances_time(self, sim):
        sim.timeout(1500)
        sim.run()
        assert sim.now == 1500

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_run_until_bounds_time(self, sim):
        sim.timeout(10_000)
        sim.run(until=4_000)
        assert sim.now == 4_000
        sim.run()
        assert sim.now == 10_000

    def test_run_does_not_jump_to_until_when_queue_drains(self, sim):
        sim.timeout(1_000)
        sim.run(until=1_000_000)
        assert sim.now == 1_000


class TestEvents:
    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        sim.run()
        assert event.value == 42
        assert event.ok and event.processed

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(EventError):
            event.succeed()

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(EventError):
            _ = event.value

    def test_callback_after_processing_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [7]

    def test_callbacks_run_in_registration_order(self, sim):
        event = sim.event()
        order = []
        event.add_callback(lambda e: order.append(1))
        event.add_callback(lambda e: order.append(2))
        event.succeed()
        sim.run()
        assert order == [1, 2]


class TestProcesses:
    def test_process_return_value(self, sim):
        def body():
            yield sim.timeout(10)
            return "done"

        proc = sim.process(body())
        sim.run()
        assert proc.value == "done"

    def test_process_sequencing(self, sim):
        trace = []

        def body(name, delay):
            yield sim.timeout(delay)
            trace.append(name)

        sim.process(body("b", 20))
        sim.process(body("a", 10))
        sim.run()
        assert trace == ["a", "b"]

    def test_process_waits_on_event(self, sim):
        gate = sim.event()
        trace = []

        def waiter():
            value = yield gate
            trace.append(value)

        def opener():
            yield sim.timeout(100)
            gate.succeed("open")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert trace == ["open"]
        assert sim.now == 100

    def test_yield_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(EventError):
            sim.run()

    def test_unhandled_process_exception_propagates(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        sim.process(bad())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_watched_process_failure_delivered_to_waiter(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        caught = []

        def watcher():
            proc = sim.process(bad())
            try:
                yield proc
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(watcher())
        sim.run()
        assert caught == ["boom"]

    def test_is_alive(self, sim):
        def body():
            yield sim.timeout(10)

        proc = sim.process(body())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive


class TestConditions:
    def test_all_of_waits_for_everything(self, sim):
        t1, t2 = sim.timeout(10, value="a"), sim.timeout(30, value="b")
        done = []

        def body():
            result = yield sim.all_of([t1, t2])
            done.append(sorted(result.values()))

        sim.process(body())
        sim.run()
        assert done == [["a", "b"]]
        assert sim.now == 30

    def test_empty_all_of_fires_immediately(self, sim):
        cond = sim.all_of([])
        sim.run()
        assert cond.processed

    def test_all_of_failure_propagates(self, sim):
        good = sim.timeout(10)
        bad = sim.event()

        failures = []

        def body():
            try:
                yield sim.all_of([good, bad])
            except RuntimeError as exc:
                failures.append(str(exc))

        sim.process(body())
        bad.fail(RuntimeError("child failed"))
        sim.run()
        assert failures == ["child failed"]

    def test_cross_simulator_condition_rejected(self, sim):
        other = Simulator()
        with pytest.raises(EventError):
            AllOf(sim, [other.event()])


class TestDeterminism:
    def _workload(self):
        sim = Simulator()
        log = []

        def worker(name, period):
            for _ in range(20):
                yield sim.timeout(period)
                log.append((sim.now, name))

        for i, period in enumerate([70, 110, 130]):
            sim.process(worker(f"w{i}", period))
        sim.run()
        return log, sim.processed_events

    def test_identical_runs(self):
        first = self._workload()
        second = self._workload()
        assert first == second

    def test_same_time_events_fifo_ordered(self, sim):
        order = []
        for i in range(5):
            sim.timeout(100).add_callback(lambda e, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_beats_insertion_order(self, sim):
        order = []
        sim.timeout(100).add_callback(lambda e: order.append("normal"))
        from repro.core.events import Timeout

        Timeout(sim, 100, priority=PRIORITY_URGENT).add_callback(
            lambda e: order.append("urgent"))
        sim.run()
        assert order == ["urgent", "normal"]


class TestPeek:
    def test_peek(self, sim):
        assert sim.peek() is None
        sim.timeout(500)
        assert sim.peek() == 500
