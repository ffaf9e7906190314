"""Statistics collection system.

The paper stresses that its modelling effort "was completed by ... setting up
a statistics collection system", and Section 5 shows why: macroscopic
conclusions (who is the bottleneck — interconnect or memory controller?) come
from fine-grain signals like the cycle-by-cycle state of the LMI bus
interface.

Everything here integrates *durations between state changes* rather than
sampling every cycle, so the cost is proportional to activity, not to
simulated time.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from .kernel import Simulator


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.value}>"


class TimeWeightedStates:
    """Integrates the time spent in each of a set of named states.

    This is the primitive behind the Fig. 6 breakdown (FIFO full / storing /
    idle-no-request / empty) and behind FIFO occupancy, whose states are
    the levels.  Call :meth:`set_state` whenever the observed condition
    changes; query :meth:`breakdown` for fractions over a window.
    """

    def __init__(self, sim: Simulator, initial: str = "idle") -> None:
        self.sim = sim
        self._state = initial
        self._since = sim.now
        self._durations: Dict[str, int] = {}
        #: Epoch marks allow splitting the run into phases (Fig. 6 shows two
        #: working regimes of the same application lifetime).
        self._epochs: List[int] = [sim.now]

    @property
    def state(self) -> str:
        return self._state

    def set_state(self, state: str) -> None:
        """Enter ``state`` at the current time (no-op when unchanged)."""
        if state == self._state:
            return
        now = self.sim._now
        span = now - self._since
        if span > 0:
            self._durations[self._state] = self._durations.get(self._state, 0) + span
        self._state = state
        self._since = now

    def durations(self, until_ps: Optional[int] = None) -> Dict[str, int]:
        """Absolute time (ps) per state, including the open interval."""
        if until_ps is None:
            until_ps = self.sim.now
        result = dict(self._durations)
        open_span = until_ps - self._since
        if open_span > 0:
            result[self._state] = result.get(self._state, 0) + open_span
        return result

    def breakdown(self, until_ps: Optional[int] = None) -> Dict[str, float]:
        """Fraction of elapsed time per state (sums to 1.0)."""
        durations = self.durations(until_ps)
        total = sum(durations.values())
        if total == 0:
            return {}
        return {state: span / total for state, span in durations.items()}


class PhasedStates:
    """Per-phase :class:`TimeWeightedStates` — one breakdown per phase.

    ``begin_phase(name)`` closes the current phase and opens a new one; the
    result is an ordered mapping phase name -> state breakdown, exactly the
    structure of Fig. 6 ("two working regimes ... out of the MPSoC
    application lifetime").
    """

    def __init__(self, sim: Simulator, initial: str = "idle",
                 first_phase: str = "phase0") -> None:
        self.sim = sim
        self._initial_state = initial
        self._phases: List[tuple] = []  # (name, TimeWeightedStates)
        self._current_state = initial
        self.begin_phase(first_phase)

    def begin_phase(self, name: str) -> None:
        tracker = TimeWeightedStates(self.sim, initial=self._current_state)
        self._phases.append((name, tracker))

    def set_state(self, state: str) -> None:
        if state == self._current_state:
            return
        self._current_state = state
        # Inlined TimeWeightedStates.set_state() on the open phase: the
        # Fig. 6 interface probe reports a state per request and per FIFO
        # level change, and the tracker's frame would double each report.
        tracker = self._phases[-1][1]
        now = self.sim._now
        span = now - tracker._since
        if span > 0:
            durations = tracker._durations
            durations[tracker._state] = durations.get(tracker._state, 0) + span
        tracker._state = state
        tracker._since = now

    @property
    def state(self) -> str:
        return self._current_state

    def breakdowns(self) -> Dict[str, Dict[str, float]]:
        """Phase name -> state fraction mapping, phases in creation order."""
        result: Dict[str, Dict[str, float]] = {}
        for i, (name, tracker) in enumerate(self._phases):
            if i + 1 < len(self._phases):
                until = self._phases[i + 1][1]._epochs[0]
            else:
                until = self.sim.now
            result[name] = tracker.breakdown(until_ps=until)
        return result


class LatencySummary:
    """Streaming summary of a latency population (all samples retained)."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.samples: List[int] = []

    def add(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative latency sample {value}")
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    @property
    def minimum(self) -> int:
        return min(self.samples) if self.samples else 0

    @property
    def maximum(self) -> int:
        return max(self.samples) if self.samples else 0

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile, ``p`` in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return float(ordered[0])
        rank = (p / 100) * (len(ordered) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(ordered):
            return float(ordered[-1])
        return ordered[low] * (1 - frac) + ordered[low + 1] * frac


class ChannelUtilization:
    """Busy-time accounting for a bus channel.

    Channels add each busy interval to ``busy_ps`` and count ``transfers``
    in place; utilisation is busy time over elapsed time — the paper's
    "ratio of bus busy cycles over execution time".
    """

    def __init__(self, sim: Simulator, name: str = "channel") -> None:
        self.sim = sim
        self.name = name
        self.busy_ps = 0
        self.transfers = 0
        self._start_ps = sim.now

    def utilization(self, until_ps: Optional[int] = None) -> float:
        """Fraction of elapsed time the channel was occupied."""
        if until_ps is None:
            until_ps = self.sim._now
        elapsed = until_ps - self._start_ps
        if elapsed <= 0:
            return 0.0
        return self.busy_ps / elapsed
