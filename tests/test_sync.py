"""Unit tests for synchronisation primitives (Semaphore, WorkSignal)."""

import pytest

from repro.core import Semaphore
from repro.core.sync import WorkSignal


class TestSemaphore:
    def test_initial_tokens(self, sim):
        sem = Semaphore(sim, 3)
        assert sem.available == 3

    def test_negative_tokens_rejected(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, -1)

    def test_try_acquire(self, sim):
        sem = Semaphore(sim, 1)
        assert sem.try_acquire()
        assert not sem.try_acquire()
        sem.release()
        assert sem.try_acquire()

    def test_acquire_blocks_when_exhausted(self, sim):
        sem = Semaphore(sim, 1)
        log = []

        def worker(name, hold):
            yield sem.acquire()
            log.append((sim.now, name, "got"))
            yield sim.timeout(hold)
            sem.release()

        sim.process(worker("a", 100))
        sim.process(worker("b", 50))
        sim.run()
        assert log == [(0, "a", "got"), (100, "b", "got")]

    def test_release_over_capacity_raises(self, sim):
        sem = Semaphore(sim, 1)
        with pytest.raises(RuntimeError):
            sem.release()

    def test_fifo_fairness(self, sim):
        sem = Semaphore(sim, 0)
        order = []

        def waiter(name):
            yield sem.acquire()
            order.append(name)

        for name in ("w0", "w1", "w2"):
            sim.process(waiter(name))

        def releaser():
            yield sim.timeout(10)
            for _ in range(3):
                sem.release()

        sim.process(releaser())
        sim.run()
        assert order == ["w0", "w1", "w2"]


class TestWorkSignal:
    def test_wait_after_notify_fires(self, sim):
        signal = WorkSignal(sim)
        woke = []

        def consumer():
            yield signal.wait()
            woke.append(sim.now)

        sim.process(consumer())

        def producer():
            yield sim.timeout(70)
            signal.notify()

        sim.process(producer())
        sim.run()
        assert woke == [70]

    def test_missed_notify_not_lost(self, sim):
        """Regression for the AXI channel-process deadlock: a notify that
        lands while no consumer is waiting must still wake the next wait."""
        signal = WorkSignal(sim)
        woke = []

        def late_consumer():
            yield sim.timeout(100)  # busy while the notify arrives
            yield signal.wait()
            woke.append(sim.now)

        def producer():
            yield sim.timeout(50)
            signal.notify()

        sim.process(late_consumer())
        sim.process(producer())
        sim.run()
        assert woke == [100]

    def test_consumed_notify_does_not_rewake(self, sim):
        signal = WorkSignal(sim)
        wakes = []

        def consumer():
            # First wait: consumes the pending notification.
            yield signal.wait()
            wakes.append(sim.now)
            # Second wait: no new notify -> must block forever.
            yield signal.wait()
            wakes.append(sim.now)

        signal.notify()
        sim.process(consumer())
        sim.run(until=10_000)
        assert wakes == [0]

    def test_multiple_consumers_all_wake(self, sim):
        signal = WorkSignal(sim)
        woke = []

        def consumer(name):
            yield signal.wait()
            woke.append(name)

        sim.process(consumer("a"))
        sim.process(consumer("b"))

        def producer():
            yield sim.timeout(5)
            signal.notify()

        sim.process(producer())
        sim.run()
        assert sorted(woke) == ["a", "b"]

    def test_notify_between_waits_by_other_consumer(self, sim):
        """A consumer arriving after an un-consumed notify wakes at once.

        Spurious wake-ups are allowed by design (consumers re-scan for
        work); what is forbidden is a consumer sleeping through queued
        work — so the late consumer must wake no later than the next
        notify, and may wake immediately on the stale one.
        """
        signal = WorkSignal(sim)
        woke = []

        def consumer(name, start):
            yield sim.timeout(start)
            yield signal.wait()
            woke.append((name, sim.now))

        sim.process(consumer("early", 0))
        sim.process(consumer("late", 200))

        def producer():
            yield sim.timeout(100)
            signal.notify()
            yield sim.timeout(200)
            signal.notify()

        sim.process(producer())
        sim.run()
        assert ("early", 100) in woke
        late = [t for name, t in woke if name == "late"]
        assert late and late[0] <= 300
