"""Stall diagnosis for stuck simulations.

When a platform fails to drain (a transaction never completes and the
event queue runs dry), the symptom is silent.  :func:`diagnose` walks a
component tree and reports, per component, every live process and the
event it is blocked on, plus the fill state of every FIFO reachable from
the component's attributes — usually enough to spot the wedged handshake
immediately (it is how the message-lock and lost-wakeup deadlocks in this
code base were found).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .clock import EdgeStall, SignalStall, StallTick
from .component import Component
from .events import Event
from .fifo import Fifo
from .kernel import Simulator

#: Waits that are never queued themselves: they ride clock-edge events.
_STALL_WAITS = (EdgeStall, SignalStall)


def _fifos_of(obj: object) -> List[Fifo]:
    """FIFOs directly reachable from ``obj``'s attributes."""
    found = []
    for value in vars(obj).values():
        if isinstance(value, Fifo):
            found.append(value)
    return found


def _scheduled_wakes(sim: Simulator) -> Dict[int, int]:
    """Earliest scheduled fire time per queued event, keyed by ``id()``.

    An :class:`EdgeStall` is never queued itself; it is entered under its
    queued :class:`StallTick` — and a :class:`SignalStall` that was
    notified and is realigning to an edge under that edge's event.
    """
    table: Dict[int, int] = {}
    for when, _priority, _sequence, event in sim._queue:
        waits = [event]
        if isinstance(event, StallTick):
            waits.append(event.stall)
        for callback in event.callbacks or ():
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, _STALL_WAITS):
                waits.append(owner)
        for wait in waits:
            known = table.get(id(wait))
            if known is None or when < known:
                table[id(wait)] = when
    return table


def _wake_time(event: Event, table: Dict[int, int]) -> Optional[int]:
    """When ``event`` will fire, if anything scheduled leads to it.

    An :class:`~repro.core.events.AllOf` is resolved through its child
    events: the earliest scheduled child is reported, a lower bound that
    still proves the wait is drainable, which is what separates slow-drain
    from deadlock.
    """
    when = table.get(id(event))
    if when is not None:
        return when
    children = getattr(event, "events", None)
    if children:
        child_times = [_wake_time(child, table) for child in children]
        known = [t for t in child_times if t is not None]
        if known:
            return min(known)
    return None


def _schedules(sim: Simulator, fifos: List[Fifo]) -> Dict[int, Fifo]:
    """FIFOs with a :meth:`Fifo.put_schedule` pending, keyed by ``id()``
    of the release event their producer waits on: the given ones, and
    those a queued schedule timer advances (a port FIFO is often no
    component attribute)."""
    owners = list(fifos)
    for _when, _priority, _sequence, event in sim._queue:
        for callback in event.callbacks or ():
            owner = getattr(callback, "__self__", None)
            if isinstance(owner, Fifo):
                owners.append(owner)
    return {id(fifo._schedule_release): fifo for fifo in owners
            if fifo._schedule_release is not None}


def _schedule_note(fifo: Fifo) -> str:
    """What is left of a FIFO's pending schedule, and when it next acts."""
    pending = fifo._scheduled
    if pending:
        return (f" [{len(pending)} item(s) scheduled, "
                f"next at t={pending[0][0]} ps]")
    stores = fifo.store_instants
    if fifo._schedule_release is not None and stores \
            and stores[-1] > fifo.sim._now:
        return (f" [claimed by a response run, releases at "
                f"t={stores[-1]} ps]")
    return ""


def diagnose(root: Component) -> str:
    """A human-readable stall report for ``root``'s component tree.

    Every blocked process shows its scheduled wake time when one exists
    ("no scheduled wake" is the deadlock signature); a process ticking
    through a stall on :meth:`Clock.edge_until` shows since when and the
    edge it will re-check on, one sleeping through it on
    :meth:`Clock.edge_after` since when and the signal that ends it; a
    producer waiting on a :meth:`Fifo.put_schedule`, the schedule that
    releases it.  Every FIFO shows what is left of its pending schedule
    and its high-water mark, so undersized buffers stand out even after
    they drained.
    """
    lines = [f"stall diagnosis of {root.path!r} at t={root.sim.now} ps",
             f"event queue: {'empty' if root.sim.peek() is None else 'non-empty'}"]
    wakes = _scheduled_wakes(root.sim)
    schedules = _schedules(root.sim, [fifo for component in root.iter_tree()
                                      for fifo in _fifos_of(component)])
    for component in root.iter_tree():
        entries = []
        for proc in component.processes:
            if not proc.is_alive:
                continue
            target = proc._target
            if target is None:
                entries.append(f"    process {proc.name}: (running)")
                continue
            when = _wake_time(target, wakes)
            stalled = isinstance(target, _STALL_WAITS) and (
                f"stalled since t={target.since} ps on {target.clock.name}")
            schedule = schedules.get(id(target))
            if schedule is not None:
                # Live: the schedule's own timer or a take advances it.
                fate = (f"released by the schedule of {schedule.name}"
                        f"{_schedule_note(schedule)}")
            elif when is None and isinstance(target, SignalStall):
                # Live, not lost: whatever unblocks the channel notifies
                # the signal.
                fate = f"{stalled}, waiting for {target.signal.name}"
            elif when is None:
                fate = "no scheduled wake"
            elif stalled:
                fate = f"{stalled} (next edge t={when} ps)"
            else:
                fate = f"wakes at t={when} ps"
            entries.append(
                f"    process {proc.name}: waiting on {target!r} ({fate})")
        for fifo in _fifos_of(component):
            state = "empty" if fifo.is_empty else (
                "FULL" if fifo.is_full else f"{fifo.level}/{fifo.capacity}")
            waiters = ""
            if fifo._put_waiters:
                # A put_run queues many items behind one event.
                producers = sum(event is not None
                                for event, _item in fifo._put_waiters)
                waiters += (f" [{len(fifo._put_waiters)} item(s) held by "
                            f"{producers} blocked put(s)]")
            if fifo._get_waiters:
                waiters += f" [{len(fifo._get_waiters)} blocked get(s)]"
            waiters += _schedule_note(fifo)
            entries.append(f"    fifo {fifo.name}: {state}{waiters} "
                           f"high_water={fifo.high_water}")
        if entries:
            lines.append(f"  {component.path}:")
            lines.extend(entries)
    return "\n".join(lines)
