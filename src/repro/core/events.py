"""Event primitives for the discrete-event simulation kernel.

The kernel is deliberately simpy-like: simulation activity is expressed as
Python generator *processes* that ``yield`` :class:`Event` objects.  A process
is suspended until the yielded event *triggers*, at which point the event's
value is sent back into the generator (or its exception is thrown into it).

Events move through three states:

``pending``
    Created but not yet triggered.  Callbacks may be attached.
``triggered``
    A value (or failure) has been decided and the event is queued for
    processing by the simulator at a definite time.
``processed``
    The simulator has invoked all callbacks.  Attaching a callback to a
    processed event invokes it immediately.

All ordering in the kernel is deterministic: events scheduled for the same
simulation time are processed in ``(time, priority, sequence)`` order, where
``sequence`` is a per-simulator monotonically increasing integer.

Performance note: this module is the simulator's innermost layer — every
simulated transaction decomposes into dozens of these objects.  The hot
constructors (:class:`Timeout`, :meth:`Event.succeed`) therefore schedule
straight onto the simulator heap instead of going through
``Simulator._enqueue``, and :class:`Process` resumption appends its callback
directly.  Cold paths (``fail``, process completion) keep the
method-call layering for clarity.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .kernel import Simulator

#: Scheduling priorities.  Lower numbers are processed first at equal times.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Sentinel for "no value decided yet".
_PENDING = object()


class EventError(RuntimeError):
    """Raised on misuse of an event (double trigger, yield of non-event...)."""


class Event:
    """A happening at a point in simulated time.

    Processes wait on events by yielding them; arbitrary code can observe
    them through :meth:`add_callback`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callbacks run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._processed = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or failure has been decided."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value.  Raises if the event is still pending."""
        if self._value is _PENDING:
            raise EventError(f"event {self!r} has not been triggered")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._value is not _PENDING:
            raise EventError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._queue, (sim._now, priority, sequence, self))
        return self

    def succeed_inline(self, value: Any = None) -> "Event":
        """Trigger the event *and run its callbacks* at the current time,
        without touching the event queue.

        The loosely-timed mode's same-timestamp handoff: work notifications,
        credit grants, FIFO waiter service and transaction completions that
        would each cost one scheduled event in CA resolve as plain function
        calls.  Callbacks drain through the simulator's inline queue in FIFO
        order, so arbitrarily long handoff chains execute iteratively — a
        callback that inline-succeeds further events only appends to the
        queue of the already-running drain, and the outermost call is the
        drain: the whole trampoline is this one frame.

        State is decided eagerly: ``triggered`` is True on return even when
        an outer drain still owns the callback execution.  Never called on
        cycle-accurate paths, where the queue round-trip *is* the modelled
        delta-cycle ordering.
        """
        if self._value is not _PENDING:
            raise EventError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        pending = sim._inline_queue
        pending.append(self)
        if not sim._inline_active:
            sim._inline_active = True
            try:
                while pending:
                    event = pending.popleft()
                    # Inlined Event._run_callbacks(), as _run_fast has it.
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
            finally:
                sim._inline_active = False
        return self

    def fail(self, exception: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if self.triggered:
            raise EventError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._enqueue(self, 0, priority)
        return self

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed the callback runs
        immediately (synchronously).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


def completed_event(sim: "Simulator", value: Any = None,
                    name: str = "") -> Event:
    """An :class:`Event` born in the *processed* state, carrying ``value``.

    Yielding one resumes the process **synchronously** — :class:`Process`
    treats a processed event (``callbacks is None``) as already happened
    and continues the generator inline, without a trip through the event
    queue.  This is the loosely-timed mode's zero-cost completion: an
    operation that succeeded immediately (a FIFO slot was free, a credit
    was available) hands back a completed event instead of scheduling a
    same-timestamp wakeup.  Never used on cycle-accurate paths, where the
    queue round-trip *is* the modelled arbitration point.
    """
    event = Event(sim, name=name)
    event._value = value
    event._processed = True
    event.callbacks = None
    return event


class Timeout(Event):
    """An event that triggers ``delay`` time units in the future.

    Timeouts self-schedule at construction; they cannot be cancelled (simply
    ignore the wakeup instead, or use a fresh :class:`Event`).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None,
                 priority: int = PRIORITY_NORMAL, name: str = "") -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay}")
        # Flattened Event.__init__ + Simulator._enqueue: a Timeout per clock
        # edge wait makes this the most-executed constructor in the system.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self.delay = delay
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._queue, (sim._now + delay, priority, sequence, self))


class Process(Event):
    """A running generator.  The process *is* an event: it triggers when the
    generator returns (value = return value) or raises (failure).
    """

    __slots__ = ("generator", "_send", "_throw", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: Generator[Event, Any, Any],
                 name: str = "", immediate: bool = False) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        # Pre-bound: _resume runs once per processed event in busy models.
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process currently waits on (None when running/finished).
        self._target: Optional[Event] = None
        self._resume_cb = self._resume
        if immediate:
            # LT-only (per-transaction workers spawned mid-run): prime the
            # generator synchronously via the inline trampoline instead of
            # paying a scheduled init event.
            bootstrap = Event(sim, name=f"{self.name}.init")
            bootstrap.callbacks.append(self._resume_cb)
            bootstrap.succeed_inline()
            return
        # Kick-start on the next kernel step at the current time.
        bootstrap = Event(sim, name=f"{self.name}.init")
        bootstrap._ok = True
        bootstrap._value = None
        sim._enqueue(bootstrap, 0, PRIORITY_URGENT)
        bootstrap.add_callback(self._resume_cb)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # ------------------------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the trigger's outcome."""
        event: Optional[Event]
        while True:
            self._target = None
            try:
                if trigger._ok:
                    event = self._send(trigger._value)
                else:
                    event = self._throw(trigger._value)
            except StopIteration as stop:
                if self.sim.lt_enabled:
                    self.succeed_inline(stop.value)
                else:
                    self._ok = True
                    self._value = stop.value
                    self.sim._enqueue(self, 0, PRIORITY_NORMAL)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate as failure
                self._ok = False
                self._value = exc
                self.sim._enqueue(self, 0, PRIORITY_NORMAL)
                if not self.callbacks:
                    # Nobody is watching: re-raise so errors never pass silently.
                    raise
                return
            if not isinstance(event, Event):
                raise EventError(
                    f"process {self.name!r} yielded non-event {event!r}")
            self._target = event
            # Inline add_callback: one call per process step adds up.
            callbacks = event.callbacks
            if callbacks is not None:
                callbacks.append(self._resume_cb)
                return
            # Already processed (LT completions): continue the generator
            # here — a loop, so a run of them costs no stack depth.
            trigger = event


class AllOf(Event):
    """Triggers when *all* child events have triggered.

    Fails immediately when any child fails.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: List[Event] = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise EventError("condition mixes events from different simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed(self._collect())
        else:
            for event in self.events:
                event.add_callback(self._on_child)

    def _collect(self) -> dict:
        """Mapping of the already-*processed* child events to their values.

        ``processed`` rather than ``triggered``: a :class:`Timeout` carries
        its value from construction (so ``triggered`` is immediately true),
        but it has not *happened* until the kernel processed it.
        """
        return {event: event._value for event in self.events if event._processed}

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
