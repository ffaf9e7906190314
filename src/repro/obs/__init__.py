"""``repro.obs`` — the unified instrumentation layer.

Three pieces, composable but independent:

:mod:`repro.obs.registry`
    A per-simulator :class:`MetricRegistry` (reached as ``sim.metrics``)
    through which components create or register their statistics, making
    every one addressable by dotted path; and
    the capture-only instruments, :class:`FifoProbe` and the Fig. 6
    :class:`InterfaceProbe`.

:mod:`repro.obs.trace`
    Transaction-lifecycle :class:`SpanRecorder` — per-hop timestamps from
    initiator issue through arbitration, bridge conversion, LMI reordering
    and SDRAM command issue, tiled into spans whose durations sum exactly
    to the end-to-end latency.

:mod:`repro.obs.perfetto` / :mod:`repro.obs.export`
    Exporters: Chrome/Perfetto ``trace_event`` JSON for the spans;
    JSON/CSV/terminal dumps for the metric snapshot; the run-result CSV;
    and the tables and bar charts every report prints.

Usage::

    from repro.obs import capture
    from repro.sweep import Run

    with capture() as cap:
        result = Run(config).finish().result   # builds its own Simulator
    cap.write_trace("out.json")          # Perfetto-loadable
    print(cap.format_summary())          # per-hop latency table

:func:`capture` works *ambiently*: while the context is active, every
:class:`~repro.core.kernel.Simulator` constructed anywhere in the process
gets a recorder attached.  That matters because experiment runners build
their simulators internally.  Outside a capture nothing is attached, the
kernel's ``_new_sim_hooks`` list is empty, and the per-transaction guards
(``sim._spans is not None``) all fail — tracing costs nothing when off
(the claim ``tests/test_obs_overhead.py`` enforces against the kernel
benchmark baseline).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..core import kernel as _kernel
from .energy import EnergyAccountant, EnergyConfig, attach_energy
from .export import (
    bar_chart,
    breakdown_chart,
    format_table,
    metrics_csv,
    metrics_json,
    metrics_text,
    results_to_csv,
)
from .perfetto import to_trace_json, trace_events, write_trace
from .registry import (
    STATE_FULL,
    STATE_IDLE,
    STATE_STORING,
    FifoProbe,
    InterfaceProbe,
    MetricRegistry,
)
from .trace import (
    Instant,
    Span,
    SpanRecorder,
    build_spans,
    format_hop_summary,
    hop_summary,
)

__all__ = [
    "STATE_FULL",
    "STATE_IDLE",
    "STATE_STORING",
    "Capture",
    "EnergyAccountant",
    "EnergyConfig",
    "FifoProbe",
    "Instant",
    "InterfaceProbe",
    "MetricRegistry",
    "Span",
    "SpanRecorder",
    "attach_energy",
    "bar_chart",
    "breakdown_chart",
    "build_spans",
    "capture",
    "format_hop_summary",
    "format_table",
    "hop_summary",
    "metrics_csv",
    "metrics_json",
    "metrics_text",
    "results_to_csv",
    "to_trace_json",
    "trace_events",
    "write_trace",
]


class Capture:
    """One observability session: recorders for every simulator it saw.

    With ``energy=True`` every simulator additionally gets an
    :class:`~repro.obs.energy.EnergyAccountant` (timeline and
    per-transaction tracking on), so traces grow power counter tracks
    and spans carry per-transaction energy.  Platform runs whose
    configuration enables its own energy block re-point the capture
    accountant's coefficients; either side alone is sufficient.
    """

    def __init__(self, energy: bool = False) -> None:
        self.recorders: List[SpanRecorder] = []
        #: Index-aligned with :attr:`recorders` (``None`` when energy
        #: accounting was not requested for this session).
        self.accountants: List[Optional[EnergyAccountant]] = []
        self._energy = energy

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, sim) -> SpanRecorder:
        """Attach span recording to an already-built simulator."""
        if sim._spans is not None:
            raise RuntimeError("simulator already has a span recorder")
        recorder = SpanRecorder(sim)
        sim._spans = recorder
        self.recorders.append(recorder)
        if self._energy:
            self.accountants.append(attach_energy(
                sim, timeline=True, per_transaction=True))
        else:
            self.accountants.append(None)
        return recorder

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def simulators(self) -> List:
        return [recorder.sim for recorder in self.recorders]

    def transactions(self) -> List:
        """All captured transactions across simulators, in bind order."""
        return [txn for recorder in self.recorders
                for txn in recorder.transactions]

    def completed(self) -> List:
        return [txn for recorder in self.recorders
                for txn in recorder.completed()]

    def hop_summary(self):
        """Per-hop latency populations (see :func:`repro.obs.trace.hop_summary`)."""
        return hop_summary(self.recorders)

    def format_summary(self) -> str:
        return format_hop_summary(self.hop_summary())

    def metrics_snapshot(self) -> Dict[str, float]:
        """Merged metric rows from every captured simulator.

        Multi-simulator captures prefix rows with ``sim<N>.`` to keep them
        apart; the common single-simulator case stays unprefixed.
        """
        # Close the time-integrated energy terms (SDRAM background power,
        # open rows) at each simulator's current instant.  finalize() is
        # idempotent, so a platform that already produced its RunResult
        # is unaffected.
        self._finalize_energy()
        if len(self.recorders) == 1:
            return self.recorders[0].sim.metrics.snapshot()
        rows: Dict[str, float] = {}
        for index, recorder in enumerate(self.recorders, start=1):
            for path, value in recorder.sim.metrics.snapshot().items():
                rows[f"sim{index}.{path}"] = value
        return rows

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_trace_json(self):
        self._finalize_energy()
        return to_trace_json(self.recorders, self.accountants)

    def write_trace(self, path: str) -> int:
        """Write a Perfetto trace file; returns the span-event count."""
        self._finalize_energy()
        return write_trace(path, self.recorders, self.accountants)

    def _finalize_energy(self) -> None:
        for recorder, accountant in zip(self.recorders, self.accountants):
            if accountant is not None:
                accountant.finalize(recorder.sim.now)


@contextmanager
def capture(energy: bool = False) -> Iterator[Capture]:
    """Ambiently record every simulator built while the context is active."""
    session = Capture(energy=energy)
    _kernel._new_sim_hooks.append(session.attach)
    try:
        yield session
    finally:
        _kernel._new_sim_hooks.remove(session.attach)
