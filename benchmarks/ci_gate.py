#!/usr/bin/env python
"""CI gate on the stack benchmark's exact counts, in one table.

Rerun the four stack-benchmark workloads' smoke command (``python3
benchmarks/stack/run.py --workload W --smoke --seed 1``) and compare
``events_per_txn``, ``accuracy_pct`` and ``repro_calls_per_txn`` against
``BENCH_stack.json``.  The first two must not differ at all: a changed
count means the simulation itself changed, on any machine, and belongs
in a golden-corpus refresh.  Calls per transaction — Python calls plus
generator resumes into ``src/repro``, what a transaction costs the host
on any machine — may move by no more than 2 %, the bound
``BENCHMARK.json`` puts on it.  A rise beyond it is a costlier
transaction; a fall beyond it fails too, until the saving is committed
with ``--update``: otherwise a later change could give it back without
ever crossing the stale baseline.  A smaller fall is reported as an
improvement to commit.  A workload that is rerun but absent from the
baseline fails as well, like one in the baseline that was not rerun.

Those are the only failing conditions (exit code 1): the wall-clock
figure (transactions per calibrated second) is printed beside the
counts, report-only.  Identical code has been recorded 5-18 % apart on a
shared box (docs/PERFORMANCE.md), so a wall-clock threshold is red on
unchanged code; the counts repeat exactly.  The smoke job in
``.github/workflows/ci.yml`` runs this after the marker tiers and
``repro run all``; see ``docs/CI.md``.

When the new counts are the intended steady state, ``--update`` rewrites
the baseline if it is missing or its gated counts moved; commit the
rewritten ``BENCH_stack.json``.  A calls count that moved by less than
``STACK_NOISE`` keeps its committed value.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
STACK_BASELINE = REPO_ROOT / "BENCH_stack.json"
STACK_RUN = REPO_ROOT / "benchmarks" / "stack" / "run.py"
STACK_WORKLOADS = ("platform_ca", "platform_lt", "sweep_fanout",
                   "service_mixed")
#: Gated stack metric -> how far it may move either way (relative);
#: ``None`` means it may not differ at all.  Values are kept as the benchmark prints
#: them, to six decimals.
STACK_COUNTS = {"events_per_txn": None, "accuracy_pct": None,
                "repro_calls_per_txn": 0.02}
#: A fall smaller than this is not announced as an improvement:
#: ``service_mixed`` moves +-0.03 calls (0.007 %) with thread interleaving.
STACK_NOISE = 0.0005


def load_baseline(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
    except ValueError as exc:
        print(f"ci_gate: baseline {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return None


def run_stack():
    """``{workload: {metric: value}}`` from the four smoke commands."""
    current = {}
    for workload in STACK_WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(STACK_RUN), "--workload", workload,
             "--smoke", "--seed", "1"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise RuntimeError(
                f"stack workload {workload}: {result['failed']} of "
                f"{result['attempted']} units failed or were wrong")
        current[workload] = {name: round(metric["value"], 6)
                             for name, metric in result["metrics"].items()}
    return current


def compare_stack(baseline, current):
    """Return (failures, report_lines) for the stack counts."""
    failures = []
    lines = [f"{'workload':<16}{'metric':<22}{'baseline':>14}"
             f"{'current':>14}  verdict"]
    for workload in sorted(set(current) - set(baseline)):
        failures.append(f"{workload}: rerun but missing from the baseline — "
                        f"commit its counts with `--update`")
    for workload in sorted(baseline):
        if workload not in current:
            failures.append(f"{workload}: present in baseline but not rerun")
            continue
        for name, bound in STACK_COUNTS.items():
            base = baseline[workload][name]
            cur = current[workload][name]
            verdict = "ok"
            if bound is None:
                if cur != base:
                    verdict = "FAIL"
                    failures.append(
                        f"{workload}: {name} changed {base} -> {cur} — the "
                        f"simulation itself changed")
            elif cur > base * (1 + bound):
                verdict = "FAIL"
                failures.append(
                    f"{workload}: {name} rose {base} -> {cur} "
                    f"({cur / base - 1:+.1%}, bound +{bound:.0%}) — "
                    f"a transaction costs more Python calls than it did")
            elif cur < base * (1 - bound):
                verdict = "FAIL"
                failures.append(
                    f"{workload}: {name} fell {base} -> {cur} "
                    f"({cur / base - 1:+.1%}, bound -{bound:.0%}) — commit "
                    f"the saving with `--update` so it cannot be given back")
            elif cur < base * (1 - STACK_NOISE):
                verdict = (f"improved {cur / base - 1:+.1%} — refresh with "
                           f"`--update`")
            lines.append(f"{workload:<16}{name:<22}{base:>14.6f}"
                         f"{cur:>14.6f}  {verdict}")
        rate = current[workload].get("txn_per_cal_s")
        if rate is not None:
            lines.append(f"{workload:<16}{'txn_per_cal_s':<22}{'':>14}"
                         f"{rate:>14.1f}  (report only)")
    return failures, lines


def refreshed(baseline, current):
    """The counts ``--update`` commits: the rerun's, except that a count
    with a bound that moved by less than ``STACK_NOISE`` keeps its
    committed value, so thread-interleaving jitter is not a refresh."""
    counts = {}
    for workload, metrics in current.items():
        committed = (baseline or {}).get(workload, {})
        counts[workload] = {}
        for name, bound in STACK_COUNTS.items():
            value, base = metrics[name], committed.get(name)
            if bound is not None and base is not None \
                    and abs(value - base) < base * STACK_NOISE:
                value = base
            counts[workload][name] = value
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail CI when a stack-benchmark count — events, calls "
                    "or accuracy per workload — leaves its committed "
                    "baseline")
    parser.add_argument("--stack-baseline", default=str(STACK_BASELINE),
                        help="stack baseline (default BENCH_stack.json)")
    parser.add_argument("--update", action="store_true",
                        help="instead of gating, rewrite the baseline if "
                             "this run changed its gated counts")
    args = parser.parse_args(argv)

    baseline = load_baseline(args.stack_baseline)
    if baseline is None and not args.update:
        print(f"ci_gate: no baseline at {args.stack_baseline}; run with "
              f"--update to create one", file=sys.stderr)
        return 2

    stack = run_stack()

    if args.update:
        counts = refreshed(baseline, stack)
        if baseline != counts:
            Path(args.stack_baseline).write_text(
                json.dumps(counts, indent=2) + "\n")
            print(f"ci_gate: baseline {args.stack_baseline} updated")
        return 0

    failures, lines = compare_stack(baseline, stack)
    print("\n".join(lines))
    if not failures:
        print("ci_gate: stack counts within bounds")
        return 0

    print(f"\nci_gate: {len(failures)} failure(s):", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    print("ci_gate: if the new counts are intended, refresh the baseline "
          "with --update", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
