"""Hierarchical metric registry.

One :class:`MetricRegistry` lives on every :class:`~repro.core.kernel.Simulator`
(lazily, via ``sim.metrics``).  Components create their statistics *through*
the registry instead of instantiating bare
:mod:`repro.core.statistics` objects, so every metric in a run is reachable
by dotted path — ``central.request.utilization``, ``lmi.served``,
``cluster0.ip0.latency.p95`` — without knowing which components were built.

The registry stores the *same* primitive objects the models always used
(:class:`~repro.core.statistics.Counter`,
:class:`~repro.core.statistics.LatencySummary`,
:class:`~repro.core.statistics.PhasedStates`, ...), so registering a
metric changes nothing about its update cost: the hot paths still bump a
plain attribute on a plain object.  Observability is a *view*, not a tax.

Naming scheme (see ``docs/OBSERVABILITY.md``):

* ``<fabric>.<channel>.*`` — channel busy-time accounting
* ``<fabric>.<port>.*`` — per-port counters and latency populations
* ``<component>.<stat>`` — component-private counters (``lmi.merges``, ...)

Paths are unique per simulator.  When two components would claim the same
path (e.g. two ad-hoc test fabrics both called ``node``), later claims get a
deterministic ``~2``, ``~3`` ... suffix rather than raising, so exploratory
scripts never have to invent names just to satisfy the registry.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterator, Optional

from ..core.fifo import Fifo
from ..core.statistics import (
    ChannelUtilization,
    Counter,
    LatencySummary,
    PhasedStates,
    TimeWeightedStates,
)


class FifoProbe:
    """Uniform FIFO occupancy *and* waiting-time statistics.

    The paper's Fig. 6 quantities — how full the LMI input FIFO sits and how
    long requests wait in it — used to require bespoke callbacks per
    experiment.  A probe registers store/take listeners on any
    :class:`~repro.core.fifo.Fifo` and derives both uniformly: occupancy
    integrates the level over time (a :class:`TimeWeightedStates` whose
    state is the level), waiting times pair each store with the next take
    (FIFO discipline; with out-of-order ``remove()`` extraction, as in the
    LMI optimisation engine, the reported waits are the FIFO-order
    approximation, which bounds the true in-order wait).  Attach it when
    the FIFO is built: occupancy is integrated from that instant.
    """

    def __init__(self, fifo: Fifo, path: str) -> None:
        self.fifo = fifo
        self.path = path
        self.wait = LatencySummary(f"{path}.wait")
        self.occupancy = TimeWeightedStates(fifo.sim, initial=fifo.level)
        self._entries: Deque[int] = deque()
        fifo.store_listeners.append(self._on_store)
        fifo.take_listeners.append(self._on_take)

    def _on_store(self) -> None:
        fifo = self.fifo
        self._entries.append(fifo.sim._now)
        self.occupancy.set_state(len(fifo._items))

    def _on_take(self) -> None:
        fifo = self.fifo
        self.occupancy.set_state(len(fifo._items))
        if self._entries:
            self.wait.add(fifo.sim._now - self._entries.popleft())

    def occupancy_histogram(self, until_ps: Optional[int] = None) -> dict:
        """Time spent (ps) at each occupancy level, including the open
        interval up to ``until_ps`` (default: now)."""
        return self.occupancy.durations(until_ps)

    def mean_occupancy(self, until_ps: Optional[int] = None) -> float:
        """Time-weighted mean number of stored items."""
        hist = self.occupancy_histogram(until_ps)
        total = sum(hist.values())
        if total == 0:
            return float(self.fifo.level)
        return sum(level * span for level, span in hist.items()) / total


#: The cycle-state partition of Fig. 6.
STATE_FULL = "fifo_full"
STATE_STORING = "storing_request"
STATE_IDLE = "no_incoming_request"


class InterfaceProbe:
    """The Fig. 6 bus-interface instrument of a target port.

    "Properly monitoring the behaviour of the bus-memory controller
    interface can help system designers identify where bottlenecks are"
    (Section 5).  The paper partitions every cycle at the LMI bus interface
    into three states — the input FIFO is **full** (requests wait), the
    interface is **storing** a new request (request and grant both
    asserted), or there is **no incoming request** — and reports, per
    execution phase, the fraction of time in each, plus how long the FIFO
    sat completely **empty**.

    The probe integrates state *durations* from the request FIFO's
    store/take listeners and from :meth:`storing`, which the fabric's
    request channel calls around each hand-over once the probe occupies
    the port's ``interface_probe`` slot.  Like :class:`FifoProbe` it is
    attached only under an observability capture (``sim._spans is not
    None``), so a run without one never enters it.  Both trackers register
    in the metric registry (``<port>.iface.states`` /
    ``<port>.iface.empty``), so the Fig. 6 numbers appear in ``repro
    stats`` dumps.
    """

    def __init__(self, port) -> None:
        self.port = port
        self._storing = False
        fifo = port.request_fifo
        metrics = port.sim.metrics
        self._states = metrics.phased_states(f"{port.name}.iface.states",
                                             initial=self._classify(),
                                             first_phase="phase1")
        self._empty = metrics.phased_states(
            f"{port.name}.iface.empty",
            initial="empty" if fifo.is_empty else "nonempty",
            first_phase="phase1")
        fifo.store_listeners.append(self._on_level)
        fifo.take_listeners.append(self._on_level)
        port.interface_probe = self

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

    def storing(self, active: bool) -> None:
        """The request channel starts (True) or ends (False) handing a
        request to the port."""
        self._storing = active
        self._states.set_state(self._classify())

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
        empty = self._empty.breakdowns()
        result: Dict[str, Dict[str, float]] = {}
        for phase, fractions in self._states.breakdowns().items():
            row = {STATE_FULL: 0.0, STATE_STORING: 0.0, STATE_IDLE: 0.0}
            row.update(fractions)
            row["fifo_empty"] = empty.get(phase, {}).get("empty", 0.0)
            result[phase] = row
        return result


class MetricRegistry:
    """Path-addressed store of every metric a simulation collects."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._metrics: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, path: str, metric):
        """Index an existing metric object under ``path`` (returned as-is).

        A taken path gets a ``~2``/``~3``... suffix; see the module
        docstring for why collisions are disambiguated rather than fatal.
        """
        if not path:
            raise ValueError("metric path must be non-empty")
        final = path
        bump = 2
        while final in self._metrics:
            final = f"{path}~{bump}"
            bump += 1
        self._metrics[final] = metric
        return metric

    def counter(self, path: str) -> Counter:
        """Create and register a monotonically increasing counter."""
        return self.register(path, Counter(path))

    def histogram(self, path: str) -> LatencySummary:
        """Create and register a latency/duration population."""
        return self.register(path, LatencySummary(path))

    def phased_states(self, path: str, initial: str = "idle",
                      first_phase: str = "phase0") -> PhasedStates:
        """Create and register a per-phase state tracker (Fig. 6 shape)."""
        return self.register(
            path, PhasedStates(self.sim, initial=initial,
                               first_phase=first_phase))

    def channel(self, path: str) -> ChannelUtilization:
        """Create and register a bus-channel busy-time monitor."""
        return self.register(path, ChannelUtilization(self.sim, name=path))

    def fifo(self, path: str, fifo: Fifo) -> FifoProbe:
        """Attach a :class:`FifoProbe` to ``fifo`` and register it.

        Note this registers FIFO listeners — unlike the other factories
        it is *not* free, so callers gate it on an active observability
        capture (``sim._spans is not None``).
        """
        return self.register(path, FifoProbe(fifo, path))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, path: str):
        """The metric registered at ``path`` (KeyError when absent)."""
        return self._metrics[path]

    def __contains__(self, path: str) -> bool:
        return path in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def paths(self) -> Iterator[str]:
        """All registered paths, in registration order."""
        return iter(self._metrics)

    # ------------------------------------------------------------------
    # flattening
    # ------------------------------------------------------------------
    def snapshot(self, until_ps: Optional[int] = None) -> Dict[str, float]:
        """Flatten every metric into ``path -> number`` rows.

        Composite metrics expand into dotted sub-rows
        (``....latency.mean``, ``....states.phase0.frac.fifo_full``), so the result
        is directly dumpable as CSV/JSON and diffable between runs.
        """
        rows: Dict[str, float] = {}
        for path, metric in self._metrics.items():
            self._flatten(rows, path, metric, until_ps)
        return rows

    def _flatten(self, rows: Dict[str, float], path: str, metric,
                 until_ps: Optional[int]) -> None:
        if isinstance(metric, Counter):
            rows[path] = float(metric.value)
        elif isinstance(metric, LatencySummary):
            rows[f"{path}.count"] = float(metric.count)
            if metric.count:
                rows[f"{path}.mean"] = float(metric.mean)
                rows[f"{path}.min"] = float(metric.minimum)
                rows[f"{path}.max"] = float(metric.maximum)
                rows[f"{path}.p95"] = float(metric.percentile(95))
        elif isinstance(metric, ChannelUtilization):
            rows[f"{path}.utilization"] = metric.utilization(until_ps)
            rows[f"{path}.busy_ps"] = float(metric.busy_ps)
            rows[f"{path}.transfers"] = float(metric.transfers)
        elif isinstance(metric, PhasedStates):
            for phase, fractions in metric.breakdowns().items():
                for state, fraction in sorted(fractions.items()):
                    rows[f"{path}.{phase}.frac.{state}"] = fraction
        elif isinstance(metric, FifoProbe):
            fifo = metric.fifo
            rows[f"{path}.level"] = float(fifo.level)
            rows[f"{path}.capacity"] = float(fifo.capacity)
            rows[f"{path}.high_water"] = float(fifo.high_water)
            rows[f"{path}.mean_occupancy"] = metric.mean_occupancy(until_ps)
            self._flatten(rows, f"{path}.wait", metric.wait, until_ps)
        elif hasattr(metric, "rows") and callable(metric.rows):
            # Self-flattening composites (the energy accountant): the
            # metric decides its own row names, already fully qualified.
            rows.update(metric.rows())
        else:
            value = getattr(metric, "value", None)
            if isinstance(value, (int, float)):
                rows[path] = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricRegistry {len(self._metrics)} metrics>"
