"""The discrete-event simulation kernel.

A :class:`Simulator` owns the event queue and the notion of *now*.  Time is an
integer number of **picoseconds**: with an integer timebase, clock domains at
arbitrary rational frequencies (400 MHz, 250 MHz, 166 MHz ...) stay exactly
phase-aligned for the whole run and results are bit-reproducible.

Typical usage::

    sim = Simulator()
    clk = sim.clock(freq_mhz=200)

    def producer(sim, fifo):
        for i in range(16):
            yield fifo.put(i)

    sim.process(producer(sim, fifo))
    sim.run()

The kernel itself knows nothing about buses or memories; those live in the
``interconnect``/``memory`` packages and are built from processes, events and
FIFOs.

Hot-path design (see ``docs/PERFORMANCE.md``): :meth:`Simulator.run` selects
one of two pre-bound loop bodies once — traced or untraced — instead of
checking ``trace is None`` per event, and pops the heap once per
*timestamp cluster* (all events sharing ``now`` drain in an inner loop
with no bound checks).

Observability hooks (see ``docs/OBSERVABILITY.md``) follow the same
select-once discipline: the only per-run instrumentation points are the
:data:`_new_sim_hooks` list (checked once, at ``Simulator`` construction)
and the :attr:`Simulator._spans` slot (a ``None`` attribute unless a
``repro.obs.capture()`` is active).  Neither is touched inside the event
loops, so a run with tracing disabled executes exactly the PR 1 fast path.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Generator, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.registry import MetricRegistry

from .clock import Clock, StallTick
from .events import (
    AllOf,
    Event,
    EventError,
    Process,
    Timeout,
    PRIORITY_NORMAL,
)

#: One nanosecond expressed in the kernel timebase (picoseconds).
NS = 1_000
#: One microsecond in picoseconds.
US = 1_000_000
#: One millisecond in picoseconds.
MS = 1_000_000_000

#: Construction observers: each callable is invoked with every newly built
#: :class:`Simulator`.  Empty by default — ``repro.obs.capture()`` appends a
#: hook here for the duration of a capture so platforms built inside the
#: capture window come up with span recording attached.  The list is only
#: consulted in ``Simulator.__init__``, never on the event hot path.
_new_sim_hooks: List[Any] = []


class SimulationError(RuntimeError):
    """Raised for kernel-level failures (time running backwards, ...)."""


class Simulator:
    """Deterministic discrete-event simulator with integer time.

    Parameters
    ----------
    trace:
        Optional callable invoked as ``trace(time_ps, event)`` for every
        processed event — handy when debugging models, far too verbose for
        real runs.  (With a trace installed the kernel takes its traced
        loop body; never install one for performance measurements.)
    resolution:
        ``"ca"`` (cycle accurate, the default) or ``"lt"`` (loosely
        timed).  The kernel itself runs the same event loop either way;
        the flag is the *announcement* components read once at
        construction (select-once discipline, like :attr:`_spans`) to
        decide whether their contention-free regimes may be fast-forwarded
        analytically.  See ``docs/FAST_SIM.md`` for the accuracy contract.
    """

    def __init__(self, trace=None, resolution: str = "ca") -> None:
        if resolution not in ("ca", "lt"):
            raise ValueError(f"unknown resolution {resolution!r}; "
                             f"expected 'ca' or 'lt'")
        self._now = 0
        self._queue: List[Tuple[int, int, int, Event]] = []
        #: Monotonic scheduling sequence.  A plain integer field: the hot
        #: constructors in ``events.py`` bump it inline rather than paying
        #: for an iterator protocol call per event.
        self._sequence = 0
        self._trace = trace
        self._processed_events = 0
        self._clocks: List[Any] = []
        #: ``timeout(delay, value=None, priority=PRIORITY_NORMAL)``: a
        #: :class:`Timeout` ``delay`` ps from now, from a C-level partial
        #: straight onto the constructor — no Python frame on the single
        #: most-called factory in the system.
        self.timeout = partial(Timeout, self)
        #: Transaction-span recorder (``repro.obs.trace.SpanRecorder``) or
        #: ``None``.  Components read this once at construction; model code
        #: guards every mark with an ``is not None`` check per *transaction*
        #: hop, so a run without a capture pays nothing per event.
        self._spans = None
        #: Lazily created hierarchical metric registry (see :attr:`metrics`).
        self._metrics = None
        #: Invariant checker (``repro.check.monitors.SimChecker``) or
        #: ``None``.  Same discipline as :attr:`_spans`: read once at
        #: component construction, guarded per transaction hop, never
        #: consulted inside the event loops.
        self._checks = None
        #: Energy accountant (``repro.obs.energy.EnergyAccountant``) or
        #: ``None``.  Third user of the select-once discipline: components
        #: capture the slot at construction and guard every charge with an
        #: ``is not None`` check per transaction hop; the event loops never
        #: see it.
        self._energy = None
        #: Resolution announcement (see the constructor docstring).  Both
        #: fields are read once per component at construction time and
        #: never inside the event loops.
        self._resolution = resolution
        self.lt_enabled = resolution == "lt"
        #: Inline-trigger trampoline (LT mode only; the drain loop is
        #: :meth:`~repro.core.events.Event.succeed_inline` itself): events
        #: whose callbacks run synchronously at the current time queue here
        #: so chained handoffs drain iteratively instead of recursing.
        self._inline_queue: deque = deque()
        self._inline_active = False
        #: Analytic fast-forwards taken so far (LT mode only): every time a
        #: component computed a contention-free stretch in closed form and
        #: advanced time in one step, it bumps this in place.  Stays 0 in
        #: CA mode by construction.
        self._lt_fastforwards = 0
        if _new_sim_hooks:
            for hook in tuple(_new_sim_hooks):
                hook(self)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (a determinism probe)."""
        return self._processed_events

    # ------------------------------------------------------------------
    # resolution (cycle-accurate vs loosely-timed)
    # ------------------------------------------------------------------
    @property
    def resolution(self) -> str:
        """Active resolution mode: ``"ca"`` or ``"lt"``."""
        return self._resolution

    @property
    def lt_fastforwards(self) -> int:
        """Analytic fast-forwards taken (always 0 in CA mode)."""
        return self._lt_fastforwards

    def set_resolution(self, resolution: str) -> None:
        """Switch resolution before any model activity.

        Components capture the flag at construction and the two modes
        schedule different event populations, so flipping it mid-run would
        silently mix timelines.  Only a pristine simulator (no events
        processed, nothing scheduled) may be switched.
        """
        if resolution not in ("ca", "lt"):
            raise ValueError(f"unknown resolution {resolution!r}; "
                             f"expected 'ca' or 'lt'")
        if resolution == self._resolution:
            return
        if self._processed_events or self._queue:
            raise SimulationError(
                "set_resolution() requires a pristine simulator: components "
                "capture the resolution at construction time")
        self._resolution = resolution
        self.lt_enabled = resolution == "lt"

    @property
    def metrics(self) -> "MetricRegistry":
        """The simulator's hierarchical metric registry (created lazily).

        Every component registers its counters, gauges, histograms and
        time-weighted state trackers here by dotted path
        (``repro.obs.registry.MetricRegistry``), so a whole run can be
        dumped, diffed or exported without knowing which components exist.
        """
        registry = self._metrics
        if registry is None:
            from ..obs.registry import MetricRegistry  # deferred: no cycle

            registry = self._metrics = MetricRegistry(self)
        return registry

    # ------------------------------------------------------------------
    # event factories
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name=name)

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "", immediate: bool = False) -> Process:
        """Register ``generator`` as a process starting at the current time.

        ``immediate`` is an LT-only hint for processes spawned *mid-run*
        (per-transaction workers): the generator is primed synchronously
        through the inline trampoline instead of via a scheduled init
        event.  Ignored in CA mode, and must not be used for processes
        spawned during elaboration (the body would run before the rest of
        the component finished constructing).
        """
        return Process(self, generator, name=name,
                       immediate=immediate and self.lt_enabled)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when every event in ``events`` has triggered."""
        return AllOf(self, events)

    def clock(self, freq_mhz: Optional[float] = None,
              period_ps: Optional[int] = None, phase_ps: int = 0,
              name: str = "clk"):
        """Create a :class:`~repro.core.clock.Clock` bound to this simulator."""
        clk = Clock(self, freq_mhz=freq_mhz, period_ps=period_ps,
                    phase_ps=phase_ps, name=name)
        self._clocks.append(clk)
        return clk

    # ------------------------------------------------------------------
    # scheduling / execution
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event, delay: int, priority: int) -> None:
        """Queue a triggered event for processing ``delay`` ps from now.

        Cold-path entry point.  The hot constructors (``Timeout.__init__``,
        ``Event.succeed``) push onto ``_queue`` directly with the same
        ``(time, priority, sequence, event)`` entry shape — keep the two in
        sync when changing either.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._sequence = sequence = self._sequence + 1
        heapq.heappush(
            self._queue, (self._now + delay, priority, sequence, event))

    def peek(self) -> Optional[int]:
        """Time of the next queued event, or None when the queue is empty."""
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[int] = None) -> int:
        """Run until the queue drains or ``until`` ps is reached.

        Returns the simulation time when the run stopped.  ``until`` is a
        *bound*: when the queue drains earlier, ``now`` stays at the last
        event time (so time-weighted statistics are not diluted by a
        trailing idle span nobody simulated).  A run may be resumed with a
        later bound; slicing a run this way processes exactly the events
        of one straight run.
        """
        if self._trace is not None:
            return self._run_traced(until)
        return self._run_fast(until)

    def _run_fast(self, until: Optional[int]) -> int:
        """The untraced hot loop: batch every event sharing a timestamp.

        The heap top is inspected once per *cluster*; inside a cluster the
        inner loop pops and runs callbacks inline with no bound/trace
        checks.  Events a callback schedules for the current timestamp join
        the live cluster in correct priority-then-sequence order because the
        heap invariant holds across pushes.  A :class:`~repro.core.clock.StallTick` has no callbacks and
        is ticked here, so no event with callbacks pays for the check.
        """
        queue = self._queue
        pop = heappop
        tick = StallTick
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                break
            self._now = when
            processed = 0
            while queue and queue[0][0] == when:
                event = pop(queue)[3]
                processed += 1
                # Inlined Event._run_callbacks().
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif event.__class__ is tick:
                    # Inlined StallTick._run_callbacks(): no frame.
                    stall = event.stall
                    if stall._watched.generation == stall._seen:
                        self._sequence = sequence = self._sequence + 1
                        heappush(queue, (when + stall.clock.period_ps,
                                         PRIORITY_NORMAL, sequence, event))
                    else:
                        stall._value = None
                        callbacks, stall.callbacks = stall.callbacks, None
                        stall._processed = True
                        for callback in callbacks:
                            callback(stall)
            self._processed_events += processed
        return self._now

    def _run_traced(self, until: Optional[int]) -> int:
        """Same clustering as :meth:`_run_fast`, plus the per-event trace."""
        queue = self._queue
        pop = heappop
        trace = self._trace
        while queue:
            when = queue[0][0]
            if until is not None and when > until:
                self._now = until
                break
            self._now = when
            processed = 0
            while queue and queue[0][0] == when:
                event = pop(queue)[3]
                processed += 1
                trace(when, event)
                event._run_callbacks()
            self._processed_events += processed
        return self._now


__all__ = [
    "Simulator",
    "SimulationError",
    "Event",
    "EventError",
    "Process",
    "Timeout",
    "NS",
    "US",
    "MS",
]
