"""Real-time display (scan-out) controller.

The I/O side of a memory-centric set-top box: a display controller fetches
frame-buffer lines from the unified memory on a hard periodic schedule.
If a line has not fully arrived by its scan-out deadline, the panel
underruns — the classic symptom of an interconnect/memory architecture
that cannot guarantee I/O QoS (guideline 4: "this calls for optimizations
of the I/O architecture to remove the system bottleneck").

The controller prefetches up to ``line_buffer_lines`` lines ahead; the
scan-out process consumes one line per ``line_period_cycles`` and records
an underrun (and keeps displaying) when data is late.  Deadline *margins*
are recorded for every line, so experiments can report worst-case slack,
not just the failure count.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.component import Component
from ..core.events import Event
from ..core.kernel import Simulator
from ..core.sync import Semaphore
from ..interconnect.base import InitiatorPort
from ..interconnect.types import Opcode, Transaction


class DisplayController(Component):
    """Periodic line fetcher with deadline tracking."""

    def __init__(self, sim: Simulator, name: str, port: InitiatorPort,
                 framebuffer_base: int, line_bytes: int = 512,
                 lines: int = 32, line_period_cycles: int = 200,
                 burst_bytes: int = 64, beat_bytes: int = 8,
                 line_buffer_lines: int = 2, priority: int = 0,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=port.fabric.clock, parent=parent)
        if line_bytes <= 0 or lines <= 0 or line_period_cycles <= 0:
            raise ValueError("line geometry must be positive")
        if line_buffer_lines < 1:
            raise ValueError("need at least one line of buffering")
        self.port = port
        self.framebuffer_base = framebuffer_base
        self.line_bytes = line_bytes
        self.lines = lines
        self.line_period_cycles = line_period_cycles
        self.burst_bytes = burst_bytes
        self.beat_bytes = beat_bytes
        self.priority = priority
        self.underruns = sim.metrics.counter(f"{name}.underruns")
        self.lines_displayed = sim.metrics.counter(f"{name}.lines")
        #: Per-line deadline margin in ps (negative = missed).
        self.margins_ps: List[int] = []
        self.done: Event = sim.event(name=f"{name}.done")
        #: Prefetch window: the fetcher may run this many lines ahead.
        self._window = Semaphore(sim, line_buffer_lines,
                                 name=f"{name}.window")
        #: Line-arrival events, filled by the fetcher.
        self._arrivals: List[Event] = [sim.event(name=f"{name}.line{i}")
                                       for i in range(lines)]
        self.process(self._fetcher(), name="fetch")
        self.process(self._scanout(), name="scanout")

    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Scan-out progress and the recorded deadline margins."""
        return {
            "underruns": self.underruns.value,
            "lines_displayed": self.lines_displayed.value,
            "margins_ps": list(self.margins_ps),
            "window_available": self._window.available,
            "arrived": [event.triggered for event in self._arrivals],
            "done": self.done.triggered,
        }

    # ------------------------------------------------------------------
    def _fetch_line(self, index: int):
        """Issue the bursts of one line and wait for all of them."""
        base = self.framebuffer_base + index * self.line_bytes
        remaining = self.line_bytes
        offset = 0
        bursts = []
        while remaining > 0:
            chunk = min(self.burst_bytes, remaining)
            beats = max(1, -(-chunk // self.beat_bytes))
            txn = Transaction(initiator=self.name, opcode=Opcode.READ,
                              address=base + offset, beats=beats,
                              beat_bytes=self.beat_bytes,
                              priority=self.priority)
            yield self.port.issue(txn)
            bursts.append(txn)
            offset += chunk
            remaining -= chunk
        for txn in bursts:
            if not txn.ev_done.triggered:
                yield txn.ev_done

    def _fetcher(self):
        for index in range(self.lines):
            yield self._window.acquire()
            yield from self._fetch_line(index)
            self._arrivals[index].succeed(self.sim.now)

    def _scanout(self):
        clk = self.clock
        period_ps = clk.to_ps(self.line_period_cycles)
        # First deadline leaves one full period of prefetch headroom.
        start = self.sim.now + period_ps
        for index in range(self.lines):
            deadline = start + index * period_ps
            arrival = self._arrivals[index]
            if not arrival.triggered:
                yield arrival
            margin = deadline - arrival.value
            self.margins_ps.append(margin)
            if margin < 0:
                self.underruns.add()
            if deadline > self.sim.now:
                yield self.sim.timeout(deadline - self.sim.now)
            self.lines_displayed.add()
            self._window.release()
        self.done.succeed(self.underruns.value)

    # ------------------------------------------------------------------
    @property
    def worst_margin_ps(self) -> int:
        return min(self.margins_ps) if self.margins_ps else 0
