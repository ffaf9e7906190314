#!/usr/bin/env python
"""CI accuracy gate for the loosely-timed (LT) mode.

``docs/FAST_SIM.md`` publishes a speed/accuracy contract for ``--mode lt``;
the numeric bounds live in ``repro.check.lt_accuracy``.  This gate makes
the contract enforceable: every golden-corpus configuration is run at both
resolutions (:func:`repro.check.LtRun`) and each pair must satisfy every
clause — exact transaction/byte counts, execution-time drift within
``EXECUTION_TIME_DRIFT``, latency drift within ``LATENCY_DRIFT``,
utilization within ``UTILIZATION_ABS_DRIFT``, total energy within
``ENERGY_DRIFT`` (the accountant is force-enabled on both legs), and an
event ratio of at least ``MIN_CORPUS_EVENT_RATIO``, so a fabric that
starts scheduling per-cycle events through its stalls again fails here.

On top of the per-entry accuracy clauses, the gate asserts the headline
speedup claim: the STBus reference platform (its quick configuration,
``quick_config()``) must keep an event ratio of at least
``MIN_EVENT_SPEEDUP``.  The ratio is deterministic (event counts, not
wall-clock), so it gates reliably on noisy CI runners; the wall-clock
speedup is measured and reported for information only.

The smoke job in ``.github/workflows/ci.yml`` runs this after the
count gate; see ``docs/CI.md``.  When a change intentionally moves
LT accuracy (say, a new fast path with a documented cost), update the
bounds in ``repro/check/lt_accuracy.py`` *and* the table in
``docs/FAST_SIM.md`` together — ``tests/test_docs_examples.py`` asserts
they agree — or export ``CI_ALLOW_LT_DRIFT=1`` (the ``lt-drift-ok`` PR
label) to report without failing while the numbers are being discussed.
"""

import argparse
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def measure_reference_speedup():
    """Event ratio and wall-clock speedup of the quick STBus platform."""
    from repro.platforms import quick_config
    from repro.sweep import Run

    timings = {}
    events = {}
    for resolution in ("ca", "lt"):
        best = float("inf")
        for _ in range(2):
            run = Run(quick_config(resolution=resolution), max_ps=10**13)
            start = time.perf_counter()
            finished = run.finish()
            best = min(best, time.perf_counter() - start)
        timings[resolution] = best
        events[resolution] = finished.events
    event_ratio = events["ca"] / events["lt"]
    wall_ratio = timings["ca"] / timings["lt"] if timings["lt"] else 0.0
    return event_ratio, wall_ratio, events


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail CI when the LT mode's accuracy drifts outside "
                    "the contract published in docs/FAST_SIM.md")
    parser.add_argument("--entries", action="append", default=None,
                        help="gate only these golden entries (repeatable); "
                             "default: the whole corpus")
    parser.add_argument("--skip-speedup", action="store_true",
                        help="skip the reference-platform speedup clause "
                             "(accuracy clauses only)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.check import LtRun
    from repro.check.lt_accuracy import (
        MIN_CORPUS_EVENT_RATIO,
        MIN_EVENT_SPEEDUP,
    )
    from repro.snapshot.golden import golden_configs

    manifest = golden_configs()
    if args.entries:
        unknown = sorted(set(args.entries) - set(manifest))
        if unknown:
            print(f"lt_gate: unknown golden entries {unknown}; "
                  f"known: {sorted(manifest)}", file=sys.stderr)
            return 2
        manifest = {name: manifest[name] for name in args.entries}

    failures = []
    for name, (config, max_ps) in sorted(manifest.items()):
        comparison = LtRun(config, max_ps=max_ps,
                           min_event_ratio=MIN_CORPUS_EVENT_RATIO)
        print(comparison.describe())
        failures.extend(f"{name}: {failure}"
                        for failure in comparison.failures)

    if not args.skip_speedup:
        event_ratio, wall_ratio, events = measure_reference_speedup()
        print(f"reference platform (quick stbus): "
              f"{events['ca']} -> {events['lt']} events "
              f"({event_ratio:.2f}x, required {MIN_EVENT_SPEEDUP:.1f}x); "
              f"wall-clock {wall_ratio:.2f}x (informational)")
        if event_ratio < MIN_EVENT_SPEEDUP:
            failures.append(
                f"reference platform event ratio {event_ratio:.2f}x fell "
                f"below the published {MIN_EVENT_SPEEDUP:.1f}x floor")

    if not failures:
        print("lt_gate: LT mode within the published accuracy contract")
        return 0

    print(f"\nlt_gate: {len(failures)} failure(s):", file=sys.stderr)
    for failure in failures:
        print(f"  - {failure}", file=sys.stderr)
    if os.environ.get("CI_ALLOW_LT_DRIFT"):
        print("lt_gate: CI_ALLOW_LT_DRIFT set (lt-drift-ok label) — "
              "reporting only", file=sys.stderr)
        return 0
    print("lt_gate: update repro/check/lt_accuracy.py AND docs/FAST_SIM.md "
          "together for an intended accuracy change, or apply the "
          "lt-drift-ok label while the numbers are being discussed",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
