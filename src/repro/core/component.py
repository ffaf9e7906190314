"""Base class for structural model components.

A :class:`Component` is anything with a name, a simulator, optionally a clock
domain, and zero or more processes: bus nodes, bridges, memories, traffic
generators, CPU models.  The class only provides plumbing — hierarchy
tracking, process registration with readable names, a hook for the
statistics system, and the checkpoint state protocol — so that model code
stays focused on behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Iterator, List, Optional

from .events import _PENDING, Event, Process
from .kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from ..snapshot.state import StateEncoder
    from .clock import Clock

#: Length of :attr:`Component.processes` at which the first prune runs.
_PRUNE_MIN = 16


class Component:
    """A named piece of the platform hierarchy."""

    def __init__(self, sim: Simulator, name: str,
                 clock: Optional["Clock"] = None,
                 parent: Optional["Component"] = None) -> None:
        self.sim = sim
        self.name = name
        self.clock = clock
        self.parent = parent
        self.children: List[Component] = []
        #: Processes this component spawned; finished ones are dropped as
        #: it spawns more (see :meth:`process`).
        self.processes: List[Process] = []
        self._prune_at = _PRUNE_MIN
        if parent is not None:
            parent.children.append(self)

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """Hierarchical path, e.g. ``platform.n8.arbiter``."""
        if self.parent is None:
            return self.name
        return f"{self.parent.path}.{self.name}"

    def process(self, generator: Generator[Event, Any, Any],
                name: str = "", immediate: bool = False) -> Process:
        """Register a process owned by this component.

        ``immediate`` is the LT-only mid-run spawn hint of
        :meth:`~repro.core.kernel.Simulator.process`.  Finished processes
        are dropped from :attr:`processes` whenever the list has doubled
        since the last prune (amortised O(1) per spawn), so a component
        that spawns one per transaction does not keep them all.
        """
        label = f"{self.path}.{name}" if name else self.path
        proc = self.sim.process(generator, name=label, immediate=immediate)
        processes = self.processes
        processes.append(proc)
        if len(processes) >= self._prune_at:
            processes[:] = [alive for alive in processes
                            if alive._value is _PENDING]
            self._prune_at = max(2 * len(processes), _PRUNE_MIN)
        return proc

    def iter_tree(self) -> Iterator["Component"]:
        """Yield this component and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.iter_tree()

    # ------------------------------------------------------------------
    # checkpoint state protocol
    # ------------------------------------------------------------------
    def snapshot_state(self, encoder: "StateEncoder") -> Dict[str, Any]:
        """Architectural state of this component at the current instant.

        Components override this to expose whatever distinguishes two runs
        at the same simulation time: FIFO contents, in-flight transactions,
        arbiter pointers, RNG stream positions, cache tags.  Values may be
        plain JSON types, floats, :class:`~repro.interconnect.types.Transaction`
        / ``ResponseBeat`` objects, enums, or nested containers of those —
        ``encoder`` canonicalises them (and provides ``digest()`` for bulky
        state).  Return ``{}`` (the default) when the component carries no
        state of its own; such components are omitted from the tree.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.path}>"
