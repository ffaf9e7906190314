#!/usr/bin/env python
"""CI gate on exact kernel event counts: rerun the kernel bench scenarios
and compare the ``events`` column against the committed baseline
(``BENCH_kernel.json``).

A scenario whose event count differs from the baseline fails the gate
with exit code 1 — a changed count means the simulation itself changed,
on any machine, and belongs in a golden-corpus refresh.  That is the
only failing condition: events/sec is printed beside it, report-only.
The committed rates were measured on some other machine, and identical
code has been recorded 5-18 % apart on a shared box (docs/PERFORMANCE.md),
so a wall-clock threshold is red on unchanged code; the counts repeat
exactly.  The smoke job in ``.github/workflows/ci.yml`` runs this after
the ``bench_smoke`` marker tier; see ``docs/CI.md``.

When the new counts are the intended steady state, refresh the baseline
with ``python benchmarks/ci_gate.py --update`` and commit the rewritten
``BENCH_kernel.json`` together with the golden corpus.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_kernel.json"


def load_baseline(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
    except ValueError as exc:
        print(f"ci_gate: baseline {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return None


def compare(baseline, current):
    """Return (failures, report_lines) for current vs baseline."""
    failures = []
    lines = [f"{'scenario':<16}{'events':>10}  {'verdict':<8}"
             f"{'baseline ev/s':>15}{'current ev/s':>15}{'delta':>9}"
             "  (ev/s: report only)"]
    for name in sorted(baseline):
        if name not in current:
            failures.append(f"{name}: present in baseline but not rerun")
            continue
        base = baseline[name]
        cur = current[name]
        verdict = "ok"
        if cur["events"] != base["events"]:
            verdict = "FAIL"
            failures.append(
                f"{name}: event count changed "
                f"{base['events']} -> {cur['events']} — the simulation "
                f"itself changed; refresh BENCH_kernel.json (--update) "
                f"and the golden corpus together with the change")
        base_rate = float(base["events_per_sec"])
        cur_rate = float(cur["events_per_sec"])
        delta = (cur_rate - base_rate) / base_rate if base_rate else 0.0
        lines.append(f"{name:<16}{cur['events']:>10}  {verdict:<8}"
                     f"{base_rate:>15,.0f}{cur_rate:>15,.0f}{delta:>+8.1%}")
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"{name:<16}{current[name]['events']:>10}  {'(new)':<8}"
                     f"{'':>15}"
                     f"{float(current[name]['events_per_sec']):>15,.0f}")
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail CI when a kernel scenario's exact event count "
                    "differs from the committed BENCH_kernel.json baseline")
    parser.add_argument("--baseline", default=str(BASELINE),
                        help="baseline file (default BENCH_kernel.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per scenario; best is kept")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this run's numbers "
                             "instead of gating")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench import format_results, run_benchmarks, write_results

    current = run_benchmarks(repeats=args.repeats)

    if args.update:
        write_results(args.baseline, current)
        print(f"ci_gate: baseline {args.baseline} updated")
        print(format_results(current))
        return 0

    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"ci_gate: no baseline at {args.baseline}; run with --update "
              f"to create one", file=sys.stderr)
        return 2

    failures, lines = compare(baseline, current)
    print("\n".join(lines))
    if not failures:
        print("ci_gate: event counts match the baseline")
        return 0

    print(f"\nci_gate: {len(failures)} failure(s):", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    print("ci_gate: if the new counts are intended, refresh the baseline "
          "with --update", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
