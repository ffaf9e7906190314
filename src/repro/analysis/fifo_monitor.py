"""Bus-interface monitor for the memory controller (Fig. 6 instrumentation).

"Properly monitoring the behaviour of the bus-memory controller interface
can help system designers identify where bottlenecks are" (Section 5).  The
paper partitions every cycle at the LMI bus interface into three states —
the input FIFO is **full** (requests wait), the interface is **storing** a
new request (request and grant both asserted), or there is **no incoming
request** (grant high, request low) — and reports, per execution phase, the
fraction of time in each, plus how long the FIFO sat completely **empty**.

:class:`InterfaceMonitor` reproduces that instrument for any target port.
It integrates state *durations* (no per-cycle sampling) and supports phase
boundaries so multi-regime application lifetimes can be dissected exactly
like Fig. 6's two working regimes.

Both state trackers register in the simulator's metric registry
(``<port>.iface.states`` / ``<port>.iface.empty``), so the Fig. 6 numbers
appear in ``repro stats`` dumps alongside everything else.
"""

from __future__ import annotations

from typing import Dict

from ..core.kernel import Simulator
from ..interconnect.base import TargetPort

#: The cycle-state partition of Fig. 6.
STATE_FULL = "fifo_full"
STATE_STORING = "storing_request"
STATE_IDLE = "no_incoming_request"


class InterfaceMonitor:
    """Classifies, over time, the state of a target's bus interface."""

    def __init__(self, sim: Simulator, port: TargetPort,
                 first_phase: str = "phase1") -> None:
        self.sim = sim
        self.port = port
        self._storing = False
        metrics = sim.metrics
        self._states = metrics.phased_states(f"{port.name}.iface.states",
                                             initial=self._classify(),
                                             first_phase=first_phase)
        self._empty = metrics.phased_states(
            f"{port.name}.iface.empty",
            initial="empty" if port.request_fifo.is_empty else "nonempty",
            first_phase=first_phase)
        port.request_fifo.store_listeners.append(self._on_level)
        port.request_fifo.take_listeners.append(self._on_level)
        port.request_observers.append(self._on_request_state)

    # ------------------------------------------------------------------
    def _classify(self) -> str:
        fifo = self.port.request_fifo
        if len(fifo._items) >= fifo.capacity:
            return STATE_FULL
        if self._storing:
            return STATE_STORING
        return STATE_IDLE

    def _on_level(self) -> None:
        self._states.set_state(self._classify())
        self._empty.set_state(
            "nonempty" if self.port.request_fifo._items else "empty")

    def _on_request_state(self, state: str) -> None:
        self._storing = state == "storing"
        self._states.set_state(self._classify())

    # ------------------------------------------------------------------
    def begin_phase(self, name: str) -> None:
        """Mark a new execution phase (a Fig. 6 "working regime")."""
        self._states.begin_phase(name)
        self._empty.begin_phase(name)

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-phase breakdown.

        Each phase maps to the three-state partition (fractions summing to
        ~1.0) plus an independent ``fifo_empty`` fraction, mirroring the
        paper's presentation ("the FIFO is empty only for a marginal time
        fraction").
        """
        states = self._states.breakdowns()
        empty = self._empty.breakdowns()
        result: Dict[str, Dict[str, float]] = {}
        for phase, fractions in states.items():
            row = {STATE_FULL: 0.0, STATE_STORING: 0.0, STATE_IDLE: 0.0}
            row.update(fractions)
            row["fifo_empty"] = empty.get(phase, {}).get("empty", 0.0)
            result[phase] = row
        return result
