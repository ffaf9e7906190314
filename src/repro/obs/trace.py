"""Transaction-lifecycle span recording.

Every :class:`~repro.interconnect.types.Transaction` already carries the
timestamps the fabrics stamp on it (created, granted, accepted, first data,
done).  A :class:`SpanRecorder` — installed on a simulator by
``repro.obs.capture()`` — adds the hops those timestamps cannot see:

* ``bridge.convert`` — the moment a bridge re-issued the request on the far
  side (datawidth/protocol conversion, Fig. 2),
* ``lmi.engine`` — the moment the LMI optimisation engine *dequeued* the
  request from the input FIFO (the reordering decision point),
* ``sdram.cmd`` — the moment the corresponding SDRAM command sequence was
  issued.

:func:`build_spans` then tiles the closed interval
``[t_created, t_done]`` with one span per hop.  The tiling is exact by
construction — spans are the gaps between consecutive monotonic lifecycle
points, the last of which is always ``t_done`` — so **per-hop durations sum
to the end-to-end latency** for every completed transaction.  Marks landing
after ``t_done`` (the tail of a posted write, which completes at acceptance
while the memory system is still working) are reported as *instants*
instead of spans, keeping the invariant intact.

Recording is off by default: ``Simulator._spans`` is ``None``, components
skip every mark behind a single ``is not None`` check per transaction hop,
and the kernel event loop is not involved at all (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.statistics import LatencySummary
from ..interconnect.types import Transaction
from .export import format_table

#: Span label for the segment *ending* at each lifecycle point.  The
#: segment between two points is named for the work that filled it.
_SEGMENT_ENDING_AT = {
    "granted": "arbitration",
    "accepted": "request_transfer",
    "bridge.convert": "bridge_crossing",
    "lmi.engine": "target_fifo",
    "sdram.cmd": "lmi_engine",
    "first_data": "memory_access",
    "done": "response_transfer",
}

#: Label of the final segment when the transaction produced no data beats
#: (write acknowledgement / posted completion).
_COMPLETION = "completion"


@dataclass(frozen=True)
class Span:
    """One hop of a transaction's journey: ``[start, start + duration)``."""

    name: str
    start_ps: int
    duration_ps: int

    @property
    def end_ps(self) -> int:
        return self.start_ps + self.duration_ps


@dataclass(frozen=True)
class Instant:
    """A point event outside the lifecycle tiling (e.g. post-completion
    service of a posted write)."""

    name: str
    time_ps: int


class SpanRecorder:
    """Collects transactions and extra per-hop marks for one simulator."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Every transaction that entered the system, in bind order
        #: (bridge children included — they carry ``meta['parent']``).
        self.transactions: List[Transaction] = []
        self._marks: Dict[int, List[Tuple[str, int]]] = {}

    # ------------------------------------------------------------------
    # recording side (called by model code, guarded by `is not None`)
    # ------------------------------------------------------------------
    def register(self, txn: Transaction) -> None:
        """Adopt a transaction entering the system (hooked into ``bind``)."""
        self.transactions.append(txn)

    def mark(self, txn: Transaction, stage: str) -> None:
        """Record that ``txn`` reached ``stage`` at the current time."""
        self._marks.setdefault(txn.tid, []).append((stage, self.sim.now))

    # ------------------------------------------------------------------
    # query side
    # ------------------------------------------------------------------
    def marks(self, txn: Transaction) -> List[Tuple[str, int]]:
        return self._marks.get(txn.tid, [])

    def completed(self) -> List[Transaction]:
        """Transactions that finished (only these can be tiled into spans)."""
        return [txn for txn in self.transactions if txn.t_done is not None]


def build_spans(txn: Transaction,
                marks: List[Tuple[str, int]]) -> Tuple[List[Span], List[Instant]]:
    """Tile ``[t_created, t_done]`` with per-hop spans.

    Returns ``(spans, instants)``.  The spans' durations sum exactly to
    ``txn.latency_ps``; anything that cannot join the tiling without
    breaking monotonicity (marks after completion, re-ordered stamps)
    becomes an instant.
    """
    if txn.t_done is None or txn.t_created is None:
        return [], [Instant(stage, t) for stage, t in marks]
    points: List[Tuple[int, str]] = []
    if txn.t_granted is not None:
        points.append((txn.t_granted, "granted"))
    if txn.t_accepted is not None:
        points.append((txn.t_accepted, "accepted"))
    for stage, t in marks:
        points.append((t, stage))
    if txn.t_first_data is not None:
        points.append((txn.t_first_data, "first_data"))
    points.sort(key=lambda point: point[0])

    spans: List[Span] = []
    instants: List[Instant] = []
    prev = txn.t_created
    for t, kind in points:
        if t < prev or t > txn.t_done:
            instants.append(Instant(kind, t))
            continue
        label = _SEGMENT_ENDING_AT.get(kind, kind)
        if t > prev:
            spans.append(Span(label, prev, t - prev))
        prev = t
    if txn.t_done > prev or not spans:
        label = _COMPLETION if txn.t_first_data is None else \
            _SEGMENT_ENDING_AT["done"]
        spans.append(Span(label, prev, txn.t_done - prev))
    return spans, instants


def span_tiling_errors(txn: Transaction, spans: List[Span]) -> List[str]:
    """Defects in a span tiling of ``txn`` (empty list = invariant holds).

    The tiling invariant: spans cover the closed interval
    ``[t_created, t_done]`` exactly — no gaps, no overlaps, no negative
    durations — so per-hop durations sum to the end-to-end latency.
    :func:`build_spans` produces this by construction from healthy
    timestamps; the ``repro.check`` monitor runs this audit over *real*
    platform runs so re-ordered or corrupted lifecycle stamps surface as
    ``obs.span_tiling`` violations instead of silently skewed hop tables.
    """
    if txn.t_done is None or txn.t_created is None:
        return []
    errors: List[str] = []
    if not spans:
        errors.append("no spans for a completed transaction")
        return errors
    if spans[0].start_ps != txn.t_created:
        errors.append(f"first span starts at {spans[0].start_ps}ps, not at "
                      f"t_created={txn.t_created}ps")
    prev_end = spans[0].start_ps
    for span in spans:
        if span.duration_ps < 0:
            errors.append(f"span {span.name!r} has negative duration "
                          f"{span.duration_ps}ps")
        if span.start_ps != prev_end:
            kind = "gap" if span.start_ps > prev_end else "overlap"
            errors.append(f"{kind} of {abs(span.start_ps - prev_end)}ps "
                          f"before span {span.name!r} at {span.start_ps}ps")
        prev_end = span.end_ps
    if prev_end != txn.t_done:
        errors.append(f"last span ends at {prev_end}ps, not at "
                      f"t_done={txn.t_done}ps")
    total = sum(span.duration_ps for span in spans)
    if txn.latency_ps is not None and total != txn.latency_ps:
        errors.append(f"span durations sum to {total}ps but end-to-end "
                      f"latency is {txn.latency_ps}ps")
    return errors


def hop_summary(recorders) -> Dict[str, LatencySummary]:
    """Aggregate span durations per hop name across recorders.

    Includes an ``end_to_end`` population so the terminal summary shows the
    total latency next to its decomposition.
    """
    table: Dict[str, LatencySummary] = {}

    def bucket(name: str) -> LatencySummary:
        if name not in table:
            table[name] = LatencySummary(name)
        return table[name]

    for recorder in recorders:
        for txn in recorder.completed():
            spans, _instants = build_spans(txn, recorder.marks(txn))
            for span in spans:
                bucket(span.name).add(span.duration_ps)
            if txn.latency_ps is not None:
                bucket("end_to_end").add(txn.latency_ps)
    return table


def format_hop_summary(table: Dict[str, LatencySummary]) -> str:
    """Plain-text rendering of :func:`hop_summary` (ps-denominated)."""
    order = sorted(table, key=lambda name: (name == "end_to_end", name))
    rows = []
    for name in order:
        summary = table[name]
        rows.append([
            name,
            f"{summary.count}",
            f"{summary.mean:,.0f}" if summary.count else "-",
            f"{summary.percentile(95):,.0f}" if summary.count else "-",
            f"{summary.maximum:,}" if summary.count else "-",
        ])
    return format_table(["hop", "count", "mean_ps", "p95_ps", "max_ps"], rows)
