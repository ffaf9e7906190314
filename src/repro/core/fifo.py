"""FIFO queues — the universal buffering primitive of the platform model.

Every buffering resource the paper talks about is one of these: the prefetch
FIFOs at STBus target interfaces, the request/response queues inside bridges
(the "asynchronous FIFOs" of Fig. 2), and the input/output FIFOs of the LMI
memory controller whose occupancy Fig. 6 dissects.

:class:`Fifo` is a zero-latency bounded queue with blocking ``put``/``get``
events.  All *timing* is imposed by the surrounding processes (which pace
themselves with clock edges); the FIFO only models capacity and ordering.
A bridge's clock-domain-crossing delay is its ``crossing_cycles``, not a
FIFO property.

It calls its store/take listeners on every change (SystemC ``sc_fifo``'s
written/read events): fabric wake-ups, the LMI engine and the statistics
probes that integrate occupancy over time all register there.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, Generic, List, Optional, Tuple, TypeVar

from .events import Event, PRIORITY_NORMAL, completed_event
from .kernel import Simulator

T = TypeVar("T")

#: Signature of a store/take listener: called with no arguments.
Listener = Callable[[], None]


class Fifo(Generic[T]):
    """Bounded FIFO with blocking, event-based access.

    ``put(item)`` returns an event that triggers once the item has been
    accepted; ``get()`` returns an event that triggers with the item.  Both
    complete immediately (at the current simulation time) when possible.
    Waiters are served strictly in arrival order, so the queue discipline is
    fair and deterministic.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "fifo") -> None:
        if capacity < 1:
            raise ValueError(f"FIFO capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        # Precomputed event labels keep f-strings out of put()/get().
        self._put_name = name + ".put"
        self._get_name = name + ".get"
        self._items: Deque[T] = deque()
        #: Blocked puts, served in order: ``(event, item)``, where a
        #: :meth:`put_run` queues its items with ``None`` for every event
        #: but the last.
        self._put_waiters: Deque[Tuple[Optional[Event], T]] = deque()
        self._get_waiters: Deque[Event] = deque()
        #: Change listeners, called in registration order right after one
        #: item was stored (it is ``_items[-1]``) or removed (``get``,
        #: ``try_get``, ``remove``), before any waiter is served.
        self.store_listeners: List[Listener] = []
        self.take_listeners: List[Listener] = []
        #: Highest occupancy ever reached (even transiently within one
        #: timestamp, which a time-weighted histogram cannot see).
        self.high_water = 0
        #: Loosely-timed flag, captured once (select-once discipline).
        self._lt = sim.lt_enabled
        #: What an uncontended LT :meth:`put` returns: processed events
        #: are never written to, so one serves every such put.
        self._put_done = completed_event(sim, name=self._put_name) \
            if self._lt else None
        #: LT: the instant a producer last had all of its items stored (a
        #: :meth:`put_run` that fit, or the admission of a blocked put's
        #: last item).  With :attr:`turnaround_ps` it proves
        #: ``Fabric._take_run``'s runs.  Kept out of ``snapshot_state``
        #: (a checkpoint records the items only): only LT reads it.
        self.released_ps = 0
        #: The least time the FIFO's producer takes from a release to its
        #: next store, when it declares one (``LightweightBridge``); 0
        #: proves nothing.
        self.turnaround_ps = 0
        #: LT: the items of a pending :meth:`put_schedule` that are neither
        #: stored nor claimed yet, head first, as ``(instant, item)``.  Kept
        #: out of ``snapshot_state``, like :attr:`released_ps`: a resume
        #: re-executes the run, schedules included.
        self._scheduled: Deque[Tuple[int, T]] = deque()
        #: LT: the event a pending schedule fires once it is released;
        #: ``None`` when none is pending.
        self._schedule_release: Optional[Event] = None
        #: LT: when each item of the latest schedule was stored, in item
        #: order (a claimed item: its scheduled instant, so the schedule
        #: is released at the last entry).
        self.store_instants: List[int] = []
        #: Invariant checker, captured once at construction (select-once
        #: discipline; ``None`` outside a ``repro.check.checked()`` session).
        self._checks = getattr(sim, "_checks", None)
        if self._checks is not None:
            self._checks.register_fifo(self)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def peek(self) -> T:
        """The item ``get`` would return next (FIFO is not modified)."""
        if not self._items:
            raise LookupError(f"peek() on empty FIFO {self.name!r}")
        return self._items[0]

    def snapshot(self) -> Tuple[T, ...]:
        """A copy of the stored items, head first.

        The LMI optimisation engine uses this for *lookahead* over queued
        transactions without consuming them.
        """
        return tuple(self._items)

    # ------------------------------------------------------------------
    # blocking access
    # ------------------------------------------------------------------
    def put(self, item: T) -> Event:
        """Event completing once ``item`` is stored."""
        sim = self.sim
        if len(self._items) < self.capacity and not self._put_waiters:
            if self._lt:
                # LT: immediate acceptance costs no scheduled event.
                self._store(item)
                return self._put_done
            event = Event(sim, name=self._put_name)
            self._store(item)
            # Inlined event.succeed(): the event is fresh, so the
            # double-trigger guard cannot fire; mirror kernel._enqueue.
            event._value = None
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (sim._now, PRIORITY_NORMAL, sequence, event))
            return event
        event = Event(sim, name=self._put_name)
        self._put_waiters.append((event, item))
        return event

    def get(self) -> Event:
        """Event completing with the next item."""
        sim = self.sim
        if self._items:
            if self._lt:
                return completed_event(sim, self._take(), name=self._get_name)
            event = Event(sim, name=self._get_name)
            event._value = self._take()
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (sim._now, PRIORITY_NORMAL, sequence, event))
            return event
        event = Event(sim, name=self._get_name)
        self._get_waiters.append(event)
        return event

    def put_run(self, items: List[T]) -> Optional[Event]:
        """LT: store ``items`` in order, as a producer that has them all in
        hand would with one blocking ``put`` per item.

        What fits now is stored now; the rest is queued as one blocked
        put, admitted one item per take.  Returns ``None`` when every item
        was stored, otherwise the event that fires once the last one is.
        Either way the release instant is :attr:`released_ps`.
        """
        if self._put_done is None:
            raise RuntimeError(f"{self.name}: put_run is loosely timed only")
        count = len(items)
        index = 0
        while index < count and len(self._items) < self.capacity \
                and not self._put_waiters:
            self._store(items[index])
            index += 1
        if index == count:
            self.released_ps = self.sim._now
            return None
        waiters = self._put_waiters
        for index in range(index, count - 1):
            waiters.append((None, items[index]))
        event = Event(self.sim, name=self._put_name)
        waiters.append((event, items[-1]))
        return event

    def put_schedule(self, items: List[T],
                     instants: List[int]) -> Optional[Event]:
        """LT: store ``items[i]`` at ``instants[i]``, or as soon after as a
        slot frees, in order: what a producer does that loops ``wait until
        the instant; put`` over them, with one timer at a time in place of
        a process resume per item.

        :attr:`store_instants` records when each item was stored.  Returns
        ``None`` when every item was stored at once, otherwise the event
        that fires once the last one is (or, when a response run claimed
        the tail, at the tail's last instant).  A run may claim the items
        still pending (:meth:`claim_scheduled`): they are never stored.
        """
        if self._put_done is None:
            raise RuntimeError(
                f"{self.name}: put_schedule is loosely timed only")
        if self._schedule_release is not None:
            raise RuntimeError(f"{self.name}: a schedule is already pending")
        self.store_instants = []
        self._scheduled.extend(zip(instants, items))
        release = self._schedule_release = Event(self.sim,
                                                 name=self._put_name)
        self._advance_schedule()
        return release if self._schedule_release is release else None

    def claim_scheduled(self) -> List[T]:
        """LT: take every pending item of the schedule without storing it,
        recording its instant as its store; the schedule is then released
        at the last of them.  Only a response run that proved beat-by-beat
        streaming would store each at its instant may claim
        (``Fabric._claim_schedule``)."""
        scheduled = self._scheduled
        self.store_instants.extend(instant for instant, _item in scheduled)
        items = [item for _instant, item in scheduled]
        scheduled.clear()
        return items

    # ------------------------------------------------------------------
    # non-blocking access
    # ------------------------------------------------------------------
    def try_put(self, item: T) -> bool:
        """Store ``item`` if space is available right now; report success."""
        if len(self._items) >= self.capacity or self._put_waiters:
            return False
        self._store(item)
        return True

    def try_get(self) -> Optional[T]:
        """Take the next item if one is available right now, else ``None``."""
        if not self._items:
            return None
        return self._take()

    def remove(self, item: T) -> None:
        """Remove a specific stored item (out-of-order extraction).

        The LMI optimisation engine pulls row-hit transactions out of the
        middle of its input FIFO; STBus Type-3 targets may likewise retire
        shaped packets out of order.
        """
        self._items.remove(item)  # raises ValueError when absent
        for listener in self.take_listeners:
            listener()
        self._admit_waiting_puts()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _store(self, item: T) -> None:
        items = self._items
        before = len(items)
        if before >= self.capacity:
            self._bounds_violation("overflow", before)
        items.append(item)
        if before >= self.high_water:
            self.high_water = before + 1
        # store/take run twice per transferred item: the (usually empty)
        # waiter scans are guarded instead of unconditionally called.
        for listener in self.store_listeners:
            listener()
        if self._get_waiters:
            self._serve_waiting_gets()

    def _take(self) -> T:
        items = self._items
        if not items:
            self._bounds_violation("underflow", 0)
        item = items.popleft()
        for listener in self.take_listeners:
            listener()
        if self._put_waiters:
            self._admit_waiting_puts()
        return item

    def _advance_schedule(self, _timer: Optional[Event] = None) -> None:
        """Store the pending schedule's items that are due, then wait: on
        a timer for the next instant, or as a blocked put when the FIFO is
        full.  The decisions, and the instants the timers are armed at,
        are the ones a ``timeout; put`` loop makes."""
        sim = self.sim
        now = sim._now
        scheduled = self._scheduled
        while scheduled:
            instant, item = scheduled[0]
            if instant > now:
                sim.timeout(instant - now, name=self._put_name
                            ).callbacks.append(self._advance_schedule)
                return
            scheduled.popleft()
            if len(self._items) >= self.capacity or self._put_waiters:
                admitted = Event(sim, name=self._put_name)
                admitted.callbacks.append(self._schedule_admitted)
                self._put_waiters.append((admitted, item))
                return
            self.store_instants.append(now)
            # (A stored item may wake a response run that claims the rest:
            # the loop then finds nothing pending.)
            self._store(item)
        stores = self.store_instants
        if stores and stores[-1] > now:
            # A run claimed the tail: release at its last instant.
            sim.timeout(stores[-1] - now, name=self._put_name
                        ).callbacks.append(self._advance_schedule)
            return
        self.released_ps = now
        release = self._schedule_release
        self._schedule_release = None
        # Resume the producer right here, as the loop would continue after
        # its last put: not queued behind other inline work.
        release._value = None
        release._run_callbacks()

    def _schedule_admitted(self, _admitted: Event) -> None:
        self.store_instants.append(self.sim._now)
        self._advance_schedule()

    def _bounds_violation(self, kind: str, level: int) -> None:
        """Cold path: an occupancy bound was broken.  The public API makes
        this unreachable (``put``/``get`` block first), so a hit means a
        caller bypassed the blocking discipline — report it with the
        component path and simulation time instead of a bare assertion."""
        from ..check.violations import InvariantViolation, Violation

        violation = Violation(
            component=self.name, time_ps=self.sim._now, rule=f"fifo.{kind}",
            message=f"{kind} at level {level} (capacity {self.capacity})")
        checks = self._checks
        if checks is not None:
            checks.violations.append(violation)
        raise InvariantViolation(violation)

    def _serve_waiting_gets(self) -> None:
        sim = self.sim
        if self._lt:
            # LT: hand items to waiters synchronously (trampolined).  The
            # _take() is eager, so the loop condition re-checks consistent
            # state even when the resumed consumer touches this FIFO again.
            while self._get_waiters and self._items:
                self._get_waiters.popleft().succeed_inline(self._take())
            return
        while self._get_waiters and self._items:
            waiter = self._get_waiters.popleft()
            # Inlined waiter.succeed(...): waiters are fresh pending events.
            waiter._value = self._take()
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (sim._now, PRIORITY_NORMAL, sequence, waiter))

    def _admit_waiting_puts(self) -> None:
        sim = self.sim
        if self._lt:
            while self._put_waiters and len(self._items) < self.capacity:
                event, item = self._put_waiters.popleft()
                self._store(item)
                if event is not None:
                    self.released_ps = sim._now
                    event.succeed_inline()
            return
        while self._put_waiters and len(self._items) < self.capacity:
            event, item = self._put_waiters.popleft()
            self._store(item)
            event._value = None
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (sim._now, PRIORITY_NORMAL, sequence, event))

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Fifo {self.name} {self.level}/{self.capacity}>"
