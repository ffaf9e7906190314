#!/usr/bin/env python3
"""Do two result sets of the stack benchmark agree within its bounds?

    python3 benchmarks/stack/agree.py A.json B.json

A result set is what ``run.py --all --seeds N --out A.json`` writes: one
entry per workload and seed.  For every workload and every end-to-end
metric this prints the two medians, how far apart they are, each set's
own spread (distance between its quartiles as a share of its median,
what ``statistics.quantiles(values, n=4)`` gives) and the metric's bound
from ``BENCHMARK.json``.  It exits non-zero, naming each pairing, when

* the medians are further apart than the bound (either direction: the
  two sets ran the same code, so neither may look like a regression of
  the other),
* a set's spread exceeds the bound (``setup_s`` excepted: a set-up is
  too long to have a floor, and it carries the largest bound for that
  reason), or
* any run of either set had a failed unit or wrong outputs (``fail_pct``
  has a baseline of 0, so it is gated here and not by a relative bound).

A spread above a third of the bound is marked ``wide``: still accepted,
but too close to the bound to resolve a change of that size.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO = Path(__file__).resolve().parent.parent.parent


def bounds() -> Dict[str, float]:
    document = json.loads((REPO / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"]
            for metric in document["end_to_end"]}


def by_pairing(result_set: Dict) -> Dict[Tuple[str, str], List[float]]:
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in result_set["runs"]:
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(
                metric["value"])
    return table


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (high - low) / abs(centre) if centre else 0.0


def report(first: Dict, second: Dict, title: str = "") -> int:
    """Print the comparison; return 1 if any pairing is outside."""
    limits = bounds()
    one, two = by_pairing(first), by_pairing(second)
    outside: List[str] = [
        f"{run['workload']}/fail_pct: seed {run['seed']} of set {label} "
        f"failed {run['failed']} of {run['attempted']} units"
        f"{'' if run['correct'] else ', outputs wrong'}"
        for label, result_set in (("A", first), ("B", second))
        for run in result_set["runs"]
        if run["failed"] or not run["correct"]]
    if title:
        print(f"== {title}")
    print(f"{'workload':14s} {'metric':20s} {'median A':>13s} "
          f"{'median B':>13s} {'apart':>8s} {'spread A':>9s} "
          f"{'spread B':>9s} {'bound':>7s}  verdict")
    for pairing in one:
        workload, metric = pairing
        if pairing not in two or metric not in limits:
            continue
        bound = limits[metric]
        a, b = statistics.median(one[pairing]), statistics.median(two[pairing])
        apart = abs(b - a) / abs(a) if a else 0.0
        spreads = (spread(one[pairing]), spread(two[pairing]))
        verdict = "ok"
        if apart > bound:
            verdict = "DISAGREE"
        elif metric != "setup_s" and max(spreads) > bound:
            verdict = "NOISY"
        elif metric != "setup_s" and max(spreads) > bound / 3:
            verdict = "ok (wide)"
        elif apart == 0.0 and max(spreads) == 0.0:
            verdict = "exact"
        if verdict in ("DISAGREE", "NOISY"):
            outside.append(f"{workload}/{metric}: {verdict} (apart "
                           f"{apart:.2%}, spreads {spreads[0]:.2%} / "
                           f"{spreads[1]:.2%}, bound {bound:.2%})")
        print(f"{workload:14s} {metric:20s} {a:13.6g} {b:13.6g} "
              f"{apart:8.2%} {spreads[0]:9.2%} {spreads[1]:9.2%} "
              f"{bound:7.2%}  {verdict}")
    for line in outside:
        print(f"OUTSIDE {line}")
    return 1 if outside else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in argv)
    return report(first, second, f"{argv[0]} vs {argv[1]}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
