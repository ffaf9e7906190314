"""A process resumed in place by the dispatch loops, and freed when it ends.

``Simulator._run_fast`` and the :meth:`Event.succeed_inline` drain resume a
callback whose class is exactly :class:`Process` with the body of
``Process._resume`` instead of calling it; anything else, a ``Process``
subclass included, is called, and ``Process.__call__`` *is* ``_resume``.
So a trivial subclass runs the same model through ``_resume`` alone, and
the two must agree side effect by side effect, in both resolutions.  The
failure paths of the in-place copies are pinned one by one: an unwatched
failure propagates out of the run, a watched one is thrown into the
watcher, and a non-event yield names the process.

A process is also its own wake-up callback and holds no bound method of
itself, so a finished one is freed by reference counting, and a component
forgets the processes it spawned once they finish.
"""

import gc
import weakref

import pytest

from repro.core import Simulator
from repro.core.events import EventError, Process, completed_event
from repro.core.fifo import Fifo
from repro.core.sync import WorkSignal
from repro.platforms import build_platform, quick_config


class Called(Process):
    """Resumed through ``__call__`` by every loop: not exactly ``Process``."""

    __slots__ = ()


def _scenario(resolution, cls, trace=None):
    """Log of a small channel model — FIFOs, a work signal, a stalled
    consumer, a failure thrown in and a watched child that raises — with
    every process built as ``cls``."""
    sim = Simulator(trace=trace, resolution=resolution)
    clk = sim.clock(period_ps=1_000)
    requests, responses = Fifo(sim, 2, name="req"), Fifo(sim, 1, name="resp")
    work, space = WorkSignal(sim, "work"), WorkSignal(sim, "space")
    log = []

    def mark(*what):
        log.append((sim.now, sim.processed_events) + what)

    def stall(signal):
        if sim.lt_enabled:
            return clk.edge_after(signal)
        return clk.edge_until(signal)

    def producer():
        for i in range(12):
            yield requests.put(i)       # blocks while the consumer stalls
            mark("put", i)
            work.notify()
            if i % 3 == 2:
                yield clk.edges(12)     # long enough for the consumer to idle
        failed = sim.event("boom")
        failed.fail(RuntimeError("boom"))
        try:
            yield failed
        except RuntimeError as exc:
            mark("caught", str(exc))
        child = cls(sim, crasher(), name="crasher")
        try:
            yield child
        except ValueError as exc:
            mark("child failed", str(exc))
        return "producer done"

    def crasher():
        yield clk.edge()
        yield completed_event(sim)
        raise ValueError("crash")

    def consumer():
        while True:
            if not len(requests):
                yield stall(work)
                mark("woke")
            elif len(responses) == responses.capacity:
                yield stall(space)
                mark("unstalled")
            else:
                item = yield requests.get()
                yield responses.put(item)
                mark("moved", item)

    def drainer():
        for _ in range(12):
            yield clk.edges(3)
            mark("drained", (yield responses.get()))
            space.notify()
        return "drainer done"

    procs = [cls(sim, body, name=name) for body, name in (
        (producer(), "producer"), (consumer(), "consumer"),
        (drainer(), "drainer"))]
    sim.run(until=200_000)
    return (log, sim.now, sim.processed_events,
            [proc.value for proc in procs if not proc.is_alive])


@pytest.mark.parametrize("resolution", ["ca", "lt"])
def test_in_place_resume_equals_resume_through_call(resolution):
    in_place = _scenario(resolution, Process)
    assert _scenario(resolution, Called) == in_place
    # The traced loop calls every callback, plain processes included.
    assert _scenario(resolution, Process, trace=lambda *_: None) == in_place
    log, _now, _events, values = in_place
    assert values == ["producer done", "drainer done"]
    assert [entry[3] for entry in log if entry[2] == "drained"] \
        == list(range(12))
    assert ("caught", "boom") in [entry[2:] for entry in log]
    assert ("child failed", "crash") in [entry[2:] for entry in log]
    assert sum(entry[2] == "woke" for entry in log) >= 3
    assert sum(entry[2] == "unstalled" for entry in log) >= 3


# ----------------------------------------------------------------------
# failure paths: each way a process is woken
# ----------------------------------------------------------------------

WAKES = ["kernel", "drain", "resume_loop", "call"]


def _wake(sim, how):
    """The waits before a process acts: woken by the kernel loop, by the
    inline drain, or by ``Process._resume``'s loop over an already
    processed event (``call`` is the kernel calling a subclass)."""
    if how == "drain":
        gate = sim.event("gate")
        sim.timeout(1).callbacks.append(lambda _: gate.succeed_inline())
        yield gate
        return
    yield sim.timeout(1)
    if how == "resume_loop":
        yield completed_event(sim)


def _spawn(sim, how, body, name):
    return (Called if how == "call" else Process)(sim, body, name=name)


@pytest.mark.parametrize("resolution", ["ca", "lt"])
@pytest.mark.parametrize("how", WAKES)
class TestFailurePaths:
    def test_unwatched_failure_propagates_out_of_run(self, how, resolution):
        sim = Simulator(resolution=resolution)

        def bad():
            yield from _wake(sim, how)
            raise ValueError("boom")

        proc = _spawn(sim, how, bad(), "bad")
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert not proc.ok and isinstance(proc.value, ValueError)
        assert not sim._inline_active

    def test_watched_failure_is_thrown_into_the_watcher(self, how,
                                                          resolution):
        sim = Simulator(resolution=resolution)
        caught = []

        def bad():
            yield from _wake(sim, how)
            raise ValueError("boom")

        def watcher():
            try:
                yield _spawn(sim, how, bad(), "bad")
            except ValueError as exc:
                caught.append((sim.now, str(exc)))

        _spawn(sim, how, watcher(), "watcher")
        sim.run()
        assert caught == [(1, "boom")]

    def test_non_event_yield_names_the_process(self, how, resolution):
        sim = Simulator(resolution=resolution)

        def confused():
            yield from _wake(sim, how)
            yield 42

        _spawn(sim, how, confused(), "confused")
        with pytest.raises(EventError, match="'confused' yielded non-event 42"):
            sim.run()


# ----------------------------------------------------------------------
# lifetime
# ----------------------------------------------------------------------

def test_components_forget_finished_processes():
    # The on-chip memory spawns one access process per transaction.
    platform = build_platform(Simulator(), quick_config(traffic_scale=2.0))
    result = platform.run()
    held = [proc for component in platform.iter_tree()
            for proc in component.processes]
    alive = sum(proc.is_alive for proc in held)
    assert result.transactions > 1000
    assert len(held) <= 2 * alive + 16, (len(held), alive)


@pytest.mark.parametrize("resolution", ["ca", "lt"])
def test_a_finished_process_is_freed_without_the_cyclic_collector(
        resolution):
    # Process has __slots__ without __weakref__; a live process holds its
    # generator, so a dead generator proves the process was freed.
    sim = Simulator(resolution=resolution)
    done = []

    def body():
        yield sim.timeout(10)
        yield sim.timeout(5)
        return "finished"

    generator = body()
    freed = weakref.ref(generator)
    sim.process(generator, name="short").callbacks.append(
        lambda proc: done.append(proc.value))
    del generator
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim.run()
        assert done == ["finished"]
        assert freed() is None
    finally:
        if enabled:
            gc.enable()
