"""Unit and property tests for the FIFO primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Fifo, Simulator
from repro.core.sync import WorkSignal
from repro.obs import FifoProbe


class TestBasics:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Fifo(sim, 0)

    def test_put_get_order(self, sim):
        fifo = Fifo(sim, 4)
        for i in range(3):
            assert fifo.try_put(i)
        assert [fifo.try_get() for _ in range(3)] == [0, 1, 2]

    def test_level_and_flags(self, sim):
        fifo = Fifo(sim, 2)
        assert fifo.is_empty and not fifo.is_full and fifo.capacity == 2
        fifo.try_put("x")
        assert fifo.level == 1 and len(fifo) == 1
        fifo.try_put("y")
        assert fifo.is_full and fifo.level == fifo.capacity
        assert not fifo.try_put("z")

    def test_try_get_empty_returns_none(self, sim):
        fifo = Fifo(sim, 1)
        assert fifo.try_get() is None

    def test_peek(self, sim):
        fifo = Fifo(sim, 2)
        with pytest.raises(LookupError):
            fifo.peek()
        fifo.try_put("a")
        assert fifo.peek() == "a"
        assert fifo.level == 1  # not consumed

    def test_snapshot_is_copy(self, sim):
        fifo = Fifo(sim, 4)
        fifo.try_put(1)
        snap = fifo.snapshot()
        fifo.try_get()
        assert snap == (1,)

    def test_remove_middle(self, sim):
        fifo = Fifo(sim, 4)
        for i in range(4):
            fifo.try_put(i)
        fifo.remove(2)
        assert fifo.snapshot() == (0, 1, 3)

    def test_remove_missing_raises(self, sim):
        fifo = Fifo(sim, 4)
        fifo.try_put(1)
        with pytest.raises(ValueError):
            fifo.remove(99)


class TestBlocking:
    def test_get_blocks_until_put(self, sim):
        fifo = Fifo(sim, 2)
        got = []

        def consumer():
            item = yield fifo.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(500)
            yield fifo.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(500, "late")]

    def test_put_blocks_until_space(self, sim):
        fifo = Fifo(sim, 1)
        fifo.try_put("first")
        done = []

        def producer():
            yield fifo.put("second")
            done.append(sim.now)

        def consumer():
            yield sim.timeout(800)
            fifo.try_get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert done == [800]

    def test_waiters_served_fifo_fair(self, sim):
        fifo = Fifo(sim, 1)
        order = []

        def consumer(name):
            item = yield fifo.get()
            order.append((name, item))

        sim.process(consumer("c0"))
        sim.process(consumer("c1"))

        def producer():
            yield sim.timeout(10)
            yield fifo.put("a")
            yield fifo.put("b")

        sim.process(producer())
        sim.run()
        assert order == [("c0", "a"), ("c1", "b")]

    def test_put_waiters_keep_order(self, sim):
        fifo = Fifo(sim, 1)
        fifo.try_put(0)

        def producer(value):
            yield fifo.put(value)

        sim.process(producer(1))
        sim.process(producer(2))

        drained = []

        def consumer():
            for _ in range(3):
                item = yield fifo.get()
                drained.append(item)
                yield sim.timeout(10)

        sim.process(consumer())
        sim.run()
        assert drained == [0, 1, 2]


class TestTelemetry:
    def test_listeners_see_level_changes(self, sim):
        fifo = Fifo(sim, 2)
        changes = []
        fifo.store_listeners.append(
            lambda: changes.append((sim.now, fifo.level - 1, fifo.level)))
        fifo.take_listeners.append(
            lambda: changes.append((sim.now, fifo.level + 1, fifo.level)))

        def body():
            yield fifo.put("a")
            yield sim.timeout(100)
            yield fifo.get()

        sim.process(body())
        sim.run()
        assert changes == [(0, 0, 1), (100, 1, 0)]

    def test_occupancy_histogram_integrates_time(self, sim):
        fifo = Fifo(sim, 2)
        probe = FifoProbe(fifo, "f")

        def body():
            yield sim.timeout(100)   # level 0 for 100 ps
            yield fifo.put("x")      # level 1
            yield sim.timeout(300)
            yield fifo.get()         # level 0 again
            yield sim.timeout(50)

        sim.process(body())
        sim.run()
        hist = probe.occupancy_histogram()
        assert hist[0] == 150
        assert hist[1] == 300

    def test_mean_occupancy(self, sim):
        fifo = Fifo(sim, 2)
        probe = FifoProbe(fifo, "f")

        def body():
            yield fifo.put("x")
            yield sim.timeout(100)
            yield fifo.put("y")
            yield sim.timeout(100)

        sim.process(body())
        sim.run()
        assert probe.mean_occupancy() == pytest.approx(1.5)


class TestListeners:
    """One notification mechanism: store/take listener lists, called in
    registration order right after each change."""

    @staticmethod
    def _logged(fifo, log):
        for name in ("a", "b"):
            fifo.store_listeners.append(
                lambda name=name: log.append(("store", name, fifo.level)))
            fifo.take_listeners.append(
                lambda name=name: log.append(("take", name, fifo.level)))

    def test_store_take_and_remove_in_registration_order(self, sim):
        fifo = Fifo(sim, 4)
        log = []
        self._logged(fifo, log)
        fifo.try_put("x")
        fifo.try_put("y")
        fifo.remove("y")
        assert fifo.try_get() == "x"
        assert log == [("store", "a", 1), ("store", "b", 1),
                       ("store", "a", 2), ("store", "b", 2),
                       ("take", "a", 1), ("take", "b", 1),
                       ("take", "a", 0), ("take", "b", 0)]

    def test_take_listeners_run_before_a_blocked_put_is_admitted(self, sim):
        fifo = Fifo(sim, 1)
        fifo.try_put("x")
        log = []
        self._logged(fifo, log)

        def producer():
            yield fifo.put("y")

        sim.process(producer())
        sim.run()
        fifo.remove("x")
        assert log == [("take", "a", 0), ("take", "b", 0),
                       ("store", "a", 1), ("store", "b", 1)]

    def test_reentrant_listener_under_lt_inline(self):
        """A take listener whose wake-up resumes a producer inline (the
        LT fabric wake-up): the producer's store runs every store
        listener before the next take listener sees the FIFO."""
        sim = Simulator(resolution="lt")
        fifo = Fifo(sim, 1)
        signal = WorkSignal(sim)
        log = []
        fifo.take_listeners.append(signal.notify)
        self._logged(fifo, log)

        def producer():
            yield signal.wait()
            fifo.try_put("refill")

        sim.process(producer())
        sim.run()
        fifo.try_put("x")
        del log[:]
        assert fifo.try_get() == "x"
        assert log == [("store", "a", 1), ("store", "b", 1),
                       ("take", "a", 1), ("take", "b", 1)]
        assert fifo.snapshot() == ("refill",)


class TestProperties:
    @given(st.lists(st.integers(), max_size=40),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_fifo_order_preserved(self, items, capacity):
        """Whatever the interleaving, items exit in insertion order."""
        sim = Simulator()
        fifo = Fifo(sim, capacity)
        got = []

        def producer():
            for item in items:
                yield fifo.put(item)

        def consumer():
            for _ in items:
                value = yield fifo.get()
                got.append(value)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == items

    @given(st.lists(st.tuples(st.booleans(), st.integers()), max_size=60),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_level_never_exceeds_capacity(self, ops, capacity):
        sim = Simulator()
        fifo = Fifo(sim, capacity)
        for is_put, value in ops:
            if is_put:
                fifo.try_put(value)
            else:
                fifo.try_get()
            assert 0 <= fifo.level <= capacity

    @given(st.lists(st.integers(), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_histogram_spans_elapsed_time(self, items):
        sim = Simulator()
        fifo = Fifo(sim, max(1, len(items)))
        probe = FifoProbe(fifo, "f")

        def body():
            for item in items:
                yield fifo.put(item)
                yield sim.timeout(7)

        sim.process(body())
        sim.run()
        hist = probe.occupancy_histogram()
        assert sum(hist.values()) == sim.now
