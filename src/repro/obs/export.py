"""Every terminal renderer and file exporter in one place.

Metric dumps (JSON, CSV, terminal listing) consume the ``path -> value``
rows produced by :meth:`~repro.obs.registry.MetricRegistry.snapshot`, so
any metric a component registers shows up in every export format with no
per-format plumbing.  Rows are emitted in sorted path order, which makes
two runs' dumps directly diffable.

Alongside them live the renderers the experiment reports, the CLI and the
DSE front table print with (:func:`format_table`, :func:`bar_chart`,
:func:`breakdown_chart`), and :func:`results_to_csv`, the one-row-per-run
export of :class:`~repro.platforms.result.RunResult` s behind
``repro platform --csv`` and ``repro sweep --csv``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

PathLike = Union[str, Path]


def metrics_json(rows: Dict[str, float], *, sim_time_ps: Optional[int] = None,
                 experiment: Optional[str] = None,
                 extra: Optional[Dict[str, Any]] = None) -> str:
    """JSON document with a small header plus the sorted metric rows.

    ``extra`` adds caller-defined header fields (the DSE front export
    records its search provenance there); it cannot shadow the three
    standard keys.
    """
    document: Dict[str, Any] = {
        "experiment": experiment,
        "sim_time_ps": sim_time_ps,
    }
    for key, value in (extra or {}).items():
        if key in ("experiment", "sim_time_ps", "metrics"):
            raise ValueError(f"extra header field {key!r} would shadow a "
                             f"standard one")
        document[key] = value
    document["metrics"] = {path: rows[path] for path in sorted(rows)}
    return json.dumps(document, indent=2) + "\n"


def metrics_csv(rows: Dict[str, float]) -> str:
    """Two-column ``metric,value`` CSV in sorted path order.

    Values are written as-is: ``csv`` renders a float with ``repr``, so
    every cell parses back to the value :func:`metrics_json` writes.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "value"])
    for path in sorted(rows):
        writer.writerow([path, rows[path]])
    return buffer.getvalue()


def metrics_text(rows: Dict[str, float], prefix: str = "") -> str:
    """Aligned terminal listing, optionally restricted to a path prefix."""
    if prefix:
        dotted = prefix + "."
        rows = {path: value for path, value in rows.items()
                if path == prefix or path.startswith(dotted)}
    if not rows:
        return "(no metrics)"
    width = max(len(path) for path in rows)
    lines = []
    for path in sorted(rows):
        value = rows[path]
        if isinstance(value, float) and not value.is_integer():
            rendered = f"{value:.4f}"
        else:
            rendered = f"{int(value):,}"
        lines.append(f"{path:<{width}}  {rendered}")
    return "\n".join(lines)


def results_to_csv(path: PathLike, results: Iterable) -> None:
    """One row per :class:`~repro.platforms.result.RunResult`: execution
    time, throughput, latencies, extras.

    Extra/utilisation keys are unioned across runs; missing cells are
    left empty so heterogeneous experiments can share a file.
    """
    rows = list(results)
    util_keys = sorted({k for r in rows for k in r.utilization})
    extra_keys = sorted({k for r in rows for k in r.extra})
    energy_keys = sorted({k for r in rows for k in r.energy_pj})
    header = (["label", "execution_time_ps", "transactions",
               "bytes_transferred", "mean_latency_ps", "p95_latency_ps",
               "energy_total_pj", "pj_per_byte"]
              + [f"util.{k}" for k in util_keys]
              + [f"extra.{k}" for k in extra_keys]
              + [f"energy.{k}" for k in energy_keys])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for result in rows:
            writer.writerow(
                [result.label, result.execution_time_ps,
                 result.transactions, result.bytes_transferred,
                 f"{result.mean_latency_ps:.1f}",
                 f"{result.p95_latency_ps:.1f}",
                 f"{result.energy_total_pj:.3f}",
                 f"{result.pj_per_byte:.4f}"]
                + [result.utilization.get(k, "") for k in util_keys]
                + [result.extra.get(k, "") for k in extra_keys]
                + [result.energy_pj.get(k, "") for k in energy_keys])


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 float_digits: int = 3) -> str:
    """Monospace table with per-column alignment (no trailing spaces)."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{float_digits}f}"
        return str(cell)

    body: List[List[str]] = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in body:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(line.rstrip() for line in lines)


def bar_chart(values: Mapping[str, float], width: int = 40,
              unit: str = "", max_value: Optional[float] = None) -> str:
    """Horizontal ASCII bar chart (one bar per label)."""
    if not values:
        return "(no data)"
    peak = max_value if max_value is not None else max(values.values())
    peak = peak if peak > 0 else 1.0
    label_width = max(len(label) for label in values)
    lines = []
    for label, value in values.items():
        filled = int(round(width * min(value, peak) / peak))
        bar = "#" * filled
        lines.append(f"{label.ljust(label_width)} |{bar.ljust(width)}| "
                     f"{value:.3f}{unit}")
    return "\n".join(lines)


def breakdown_chart(breakdowns: Mapping[str, Mapping[str, float]],
                    states: Sequence[str], width: int = 50) -> str:
    """Stacked-bar rendering of per-phase state fractions (Fig. 6 style)."""
    glyphs = "#=+.~o*"
    lines = []
    for phase, fractions in breakdowns.items():
        segments = []
        for i, state in enumerate(states):
            span = int(round(width * fractions.get(state, 0.0)))
            segments.append(glyphs[i % len(glyphs)] * span)
        bar = "".join(segments)[:width].ljust(width)
        detail = " ".join(f"{state}={fractions.get(state, 0.0):.0%}"
                          for state in states)
        lines.append(f"{phase:<10} |{bar}| {detail}")
    legend = " ".join(f"{glyphs[i % len(glyphs)]}={state}"
                      for i, state in enumerate(states))
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
