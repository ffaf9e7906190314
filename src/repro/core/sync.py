"""Synchronisation primitives built on events.

:class:`Semaphore` implements the credit-based flow control used throughout
the platform: initiator ports limit their *outstanding transactions* with it,
bridges limit in-flight forwarded requests, and IPTG agents use it for
inter-agent synchronisation points.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Deque

from .events import Event, PRIORITY_NORMAL, _PENDING, completed_event
from .kernel import Simulator


class Semaphore:
    """A counting semaphore with FIFO-fair, event-based acquisition.

    By default the semaphore is a bounded *credit pool*: releasing more
    tokens than were initially present raises (catching double-release
    bugs in bus-interface credit logic).  Pass ``bounded=False`` for a
    plain counting semaphore (producer/consumer token streams), where
    releases may outnumber the initial tokens.
    """

    def __init__(self, sim: Simulator, tokens: int, name: str = "sem",
                 bounded: bool = True) -> None:
        if tokens < 0:
            raise ValueError(f"semaphore cannot start negative: {tokens}")
        self.sim = sim
        self.name = name
        self.bounded = bounded
        self._tokens = tokens
        self._capacity = tokens
        self._waiters: Deque[Event] = deque()
        # Precomputed event label keeps the f-string out of acquire().
        self._acquire_name = name + ".acquire"
        #: Loosely-timed flag, captured once (select-once discipline).
        self._lt = sim.lt_enabled
        #: What an uncontended LT :meth:`acquire` returns: processed
        #: events are never written to, so one serves every such grant.
        self._granted = completed_event(sim, name=self._acquire_name) \
            if self._lt else None

    @property
    def available(self) -> int:
        """Tokens currently free."""
        return self._tokens

    def acquire(self) -> Event:
        """Event completing once a token has been granted."""
        if self._tokens > 0 and not self._waiters:
            self._tokens -= 1
            if self._lt:
                # LT: the grant is immediate — no queue round-trip.
                return self._granted
            event = Event(self.sim, name=self._acquire_name)
            event.succeed()
            return event
        event = Event(self.sim, name=self._acquire_name)
        self._waiters.append(event)
        return event

    def try_acquire(self) -> bool:
        """Take a token if one is free right now."""
        if self._tokens > 0 and not self._waiters:
            self._tokens -= 1
            return True
        return False

    def release(self) -> None:
        """Return a token, handing it straight to the oldest waiter if any."""
        if self._waiters:
            waiter = self._waiters.popleft()
            if self._lt:
                waiter.succeed_inline()
            else:
                waiter.succeed()
        else:
            if self.bounded and self._tokens >= self._capacity:
                raise RuntimeError(
                    f"semaphore {self.name!r} released more than acquired")
            self._tokens += 1


class WorkSignal:
    """Lost-wakeup-proof work notification.

    The naive pattern — trigger an event on ``notify()``, re-arm it in
    ``wait()`` — drops notifications that arrive while the event is
    triggered but every consumer is busy: the consumers then re-arm and
    sleep although work is queued.  ``WorkSignal`` keeps a *dirty* flag that
    survives the re-arm, so a ``wait()`` after a missed ``notify()`` returns
    an already-triggered event and the consumer re-checks immediately.

    Consumers must scan for work after every wake-up (spurious wake-ups are
    possible by design; missed work is not).

    A consumer that is *stalled* rather than idle — it has work but must
    retry on every clock edge until something it scanned changes — waits
    with :meth:`Clock.edge_until(signal) <repro.core.clock.Clock.edge_until>`
    instead: that wait watches :attr:`generation`, which every
    :meth:`notify` bumps and which producers may also bump directly for a
    change that must be *seen* by a stalled consumer without *waking* an
    idle one.

    An idle consumer that has just scanned and found nothing waits with
    :meth:`sleep`: the same wait, minus — in LT — the resume after a
    missed notify, whose rescan could only find nothing again.
    """

    def __init__(self, sim: Simulator, name: str = "work") -> None:
        self.sim = sim
        self.name = name
        self._event = Event(sim, name=name)
        self._dirty = False
        #: Change count watched by :meth:`Clock.edge_until`; only ever
        #: compared for equality, so bump it inline (``generation += 1``).
        self.generation = 0
        #: Loosely-timed flag, captured once (select-once discipline).
        self._lt = sim.lt_enabled
        #: What an LT :meth:`wait` after a missed notify returns: processed
        #: events are never written to, so one serves every such wait.
        self._missed = completed_event(sim, name=name) if self._lt else None
        if not self._lt:
            # Chosen once: CA's sleep is wait, scheduled wake-up included.
            self.sleep = self.wait

    def notify(self) -> None:
        """Signal that work may be available."""
        self._dirty = True
        self.generation += 1
        event = self._event
        if event._value is _PENDING:
            if self._lt:
                # LT: hand the wakeup over synchronously (trampolined) —
                # the consumer resumes within the notifier's frame at the
                # same timestamp, costing zero scheduled events.
                event.succeed_inline()
            else:
                # Inlined event.succeed(), as Fifo.put has it.
                event._value = None
                sim = self.sim
                sim._sequence = sequence = sim._sequence + 1
                heappush(sim._queue,
                         (sim._now, PRIORITY_NORMAL, sequence, event))

    def touch(self) -> None:
        """Bump :attr:`generation` without waking anyone: a change a
        stalled consumer must see but an idle one cannot act on."""
        self.generation += 1

    def sleep(self) -> Event:
        """The idle wait of a consumer whose scan just found nothing.

        In LT it is *exactly* the loop ::

            yield signal.wait()
            while not scan():    # the scan that just found nothing
                yield signal.wait()

        as far as it runs without a notify: after a missed one, ``wait``
        resumes the consumer synchronously, the rescan finds the same
        nothing and the second ``wait`` sleeps.  This does the two waits'
        work on the signal — re-arm, and clear the dirty flag a stalled
        sibling consumer reads — and returns the event the loop sleeps
        on.  The scan must be free of side effects.  (CA: :meth:`wait`.)
        """
        if self._event._processed:
            self._event = Event(self.sim, name=self.name)
        self._dirty = False
        return self._event

    def wait(self) -> Event:
        """Event that fires when work may be available (possibly now)."""
        if self._lt:
            if self._event._processed:
                self._event = Event(self.sim, name=self.name)
            if self._dirty:
                self._dirty = False
                # A missed notify: resume the consumer synchronously.
                return self._missed
            return self._event
        event = self._event
        if event._processed:
            sim = self.sim
            event = self._event = Event(sim, name=self.name)
            if self._dirty:
                # A missed notify; inlined event.succeed(), as in notify().
                event._value = None
                sim._sequence = sequence = sim._sequence + 1
                heappush(sim._queue,
                         (sim._now, PRIORITY_NORMAL, sequence, event))
        self._dirty = False
        return event
