"""Clock domains.

Industrial MPSoC platforms are heavily multi-clock: in the reference platform
the ST220 runs at 400 MHz, the central STBus node at 250 MHz, peripheral
clusters and the LMI memory controller at their own rates.  A :class:`Clock`
converts between cycles and kernel picoseconds and hands out *edge events*.

The one invariant every bus model relies on: :meth:`Clock.edge` resolves to
the **next strictly future** rising edge.  A process woken at an edge that
immediately yields ``clock.edge()`` therefore advances exactly one period —
there is no way to observe the same edge twice.

A process that must retry on *every* edge until something changes does not
loop over :meth:`Clock.edge` itself: :meth:`Clock.edge_until` queues the same
edge events, ticks them in the kernel loop and resumes the process only on
the one that finds a change (``docs/PERFORMANCE.md``, "The edge-stall wait").
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Optional

from .events import Event, Timeout, PRIORITY_NORMAL, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulator

#: Picoseconds per second, used to convert frequencies to integer periods.
_PS_PER_S = 1_000_000_000_000


class EdgeStall(Event):
    """The event behind :meth:`Clock.edge_until`, resolved by the kernel.

    It is never queued itself; its :class:`StallTick` is, in the slot
    ``yield clk.edge()`` would take, and the kernel re-queues the tick one
    period later — the slot the poll's next edge takes — until an edge
    finds the watched generation moved, then runs this wait's callbacks
    (resuming the waiting process) inside that event.  ``since`` is when
    the wait began (for :func:`repro.core.debug.diagnose`).
    """

    __slots__ = ("clock", "since", "_watched", "_seen")


class StallTick(Event):
    """The queued half of an :class:`EdgeStall`, named like its clock's edge
    events and carrying no callbacks: the kernel ticks it by class, with
    :meth:`_run_callbacks` inlined in ``Simulator._run_fast``."""

    __slots__ = ("stall",)

    def _run_callbacks(self) -> None:
        stall = self.stall
        if stall._watched.generation == stall._seen:
            sim = self.sim
            sim._sequence = sequence = sim._sequence + 1
            heappush(sim._queue, (sim._now + stall.clock.period_ps,
                                  PRIORITY_NORMAL, sequence, self))
            return
        stall._value = None
        stall._run_callbacks()


class SignalStall(Event):
    """The event behind :meth:`Clock.edge_after`: the loosely-timed stall
    wait.  It sleeps on the work signal's wake-up event — scheduling
    nothing, however long the stall lasts — and fires on the clock edge
    the stalled channel re-enters arbitration on: the instant of the
    wake-up when that is an edge and ``same_edge`` allows it, otherwise
    the next edge (one edge timeout, the only event the whole stall costs).
    """

    __slots__ = ("clock", "since", "signal", "_same_edge")

    def __init__(self, clock: "Clock", signal: Any, wake: Event,
                 same_edge: bool) -> None:
        # Flattened Event.__init__ (as Timeout does): one of these per
        # sleeping stall; with the super() call STBus LT runs measured
        # 3-5 % slower.
        sim = self.sim = clock.sim
        self.name = clock._stall_name
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._processed = False
        self.clock = clock
        #: When the wait began and what it sleeps on (for
        #: :func:`repro.core.debug.diagnose`).
        self.since = sim._now
        self.signal = signal
        self._same_edge = same_edge
        wake.callbacks.append(self._on_wake)

    def _on_wake(self, _wake: Event) -> None:
        clock = self.clock
        if self._same_edge and clock.at_edge():
            self._fire(None)
        else:
            clock.edge().callbacks.append(self._fire)

    def _fire(self, _edge: Optional[Event]) -> None:
        # Inlined Event._run_callbacks(), for the same reason.
        self._value = None
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for callback in callbacks:
            callback(self)


class Clock:
    """A periodic rising-edge source.

    Parameters
    ----------
    freq_mhz:
        Frequency in MHz.  Mutually exclusive with ``period_ps``.
    period_ps:
        Period in integer picoseconds.

    Rising edges fall on every multiple of the period, time zero included.
    """

    def __init__(self, sim: "Simulator", freq_mhz: Optional[float] = None,
                 period_ps: Optional[int] = None,
                 name: str = "clk") -> None:
        if (freq_mhz is None) == (period_ps is None):
            raise ValueError("specify exactly one of freq_mhz / period_ps")
        if period_ps is None:
            period_ps = round(_PS_PER_S / (freq_mhz * 1_000_000))
        if period_ps <= 0:
            raise ValueError(f"non-positive clock period {period_ps}")
        self.sim = sim
        self.name = name
        self.period_ps = int(period_ps)
        # Event labels are precomputed: an f-string per edge wait is pure
        # overhead on the hottest allocation site in the simulator.
        self._edge_name = name + ".edge"
        self._stall_name = name + ".stall"

    # ------------------------------------------------------------------
    @property
    def freq_mhz(self) -> float:
        """Nominal frequency in MHz (derived from the integer period)."""
        return _PS_PER_S / self.period_ps / 1_000_000

    def at_edge(self) -> bool:
        """True when now falls exactly on a rising edge."""
        return self.sim._now % self.period_ps == 0

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def edge(self) -> Timeout:
        """Event firing at the next strictly-future rising edge."""
        sim = self.sim
        period = self.period_ps
        # The next strictly-future edge, computed inline (here, in edges()
        # and in edge_until()): edge waits are most of what a
        # cycle-accurate platform schedules.
        return sim.timeout(period - sim._now % period, name=self._edge_name)

    def edge_until(self, watched: Any) -> EdgeStall:
        """Event firing at the first future rising edge that finds
        ``watched.generation`` different from what it is now.

        ``watched`` is a :class:`~repro.core.sync.WorkSignal` (anything
        with an integer ``generation``).  The wait is *exactly* ::

            seen = watched.generation
            yield clk.edge()
            while watched.generation == seen:
                yield clk.edge()

        including the events it schedules: one edge event per cycle, under
        the same name and in the same queue slot, so event counts, traces
        and checkpoints cannot tell the two apart.  What it saves is host
        work: the kernel ticks a stalled cycle itself, with no generator
        resume, rescan or Python frame.  Use it where a process must retry
        on every edge until one of its inputs changes, and make every such
        change bump the generation at the instant it happens.
        """
        # Both halves are built frame-free (neither runs an __init__).
        sim = self.sim
        stall = EdgeStall.__new__(EdgeStall)
        stall.sim = sim
        stall.name = self._stall_name
        stall.callbacks = []
        stall._value = _PENDING
        stall._ok = True
        stall._processed = False
        stall.clock = self
        stall.since = now = sim._now
        stall._watched = watched
        stall._seen = watched.generation
        tick = StallTick.__new__(StallTick)
        tick.sim = sim
        tick.name = self._edge_name
        tick.callbacks = tick._value = None
        tick._processed = False
        tick.stall = stall
        period = self.period_ps
        when = now + period - now % period
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._queue, (when, PRIORITY_NORMAL, sequence, tick))
        return stall

    def edge_after(self, signal: Any, same_edge: bool = True) -> Event:
        """Loosely-timed counterpart of :meth:`edge_until`: sleep until
        ``signal`` (a :class:`~repro.core.sync.WorkSignal`) is notified,
        then fire on a rising edge.  The wait is ::

            yield signal.wait()
            if not (same_edge and clk.at_edge()):
                yield clk.edge()

        as one event and one resume: nothing is scheduled while the
        signal is quiet, and at most one edge timeout once it fired.
        ``same_edge`` is the realignment rule — a wake-up that lands
        exactly on an edge resumes on that edge (``True``) or on the next
        strictly-future one (``False``); cycle-accurate code would see
        either, depending on intra-timestamp order, so each fabric
        picks the one its accuracy gate measured (docs/FAST_SIM.md).
        """
        wake = signal.wait()
        if wake.callbacks is None:
            # A missed notify: nothing to sleep on, only to realign.
            if same_edge and self.at_edge():
                return wake
            return self.edge()
        return SignalStall(self, signal, wake, same_edge)

    def edges(self, n: int) -> Timeout:
        """Event firing ``n`` rising edges from now (``n`` >= 1)."""
        if n < 1:
            raise ValueError(f"edges() needs n >= 1, got {n}")
        sim = self.sim
        now = sim._now
        period = self.period_ps
        delay = n * period - now % period
        # Built frame-free (no Timeout.__init__): every transfer on every
        # channel waits here.
        timeout = Timeout.__new__(Timeout)
        timeout.sim = sim
        timeout.name = self._edge_name
        timeout.callbacks = []
        timeout._value = None
        timeout._ok = True
        timeout._processed = False
        timeout.delay = delay
        sim._sequence = sequence = sim._sequence + 1
        heappush(sim._queue, (now + delay, PRIORITY_NORMAL, sequence, timeout))
        return timeout

    def to_ps(self, cycles: int) -> int:
        """Convert a cycle count to picoseconds."""
        return cycles * self.period_ps

    def to_cycles(self, duration_ps: int) -> float:
        """Convert a picosecond duration to (possibly fractional) cycles."""
        return duration_ps / self.period_ps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Clock {self.name} {self.freq_mhz:.1f} MHz>"
