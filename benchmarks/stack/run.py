#!/usr/bin/env python3
"""Stack benchmark: one command, every metric by name with its unit.

    python3 benchmarks/stack/run.py --workload platform_ca --seed 1
    python3 benchmarks/stack/run.py --all --seeds 10 --out A.json
    python3 benchmarks/stack/run.py --all --repeat 2     # then agree.py
    python3 benchmarks/stack/run.py --smoke --trace 1 --workload sweep_fanout

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics for
``--trace 0``, per-layer metrics for ``--trace 1``).  Exit status is
non-zero on a harness error or a hygiene breach.
"""

import os
import sys
import time

# Start of the run: carried across the re-exec below, never inherited
# by the runs that --all starts.
_T0 = float(os.environ.pop("STACK_BENCH_T0", 0) or time.time())

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # Hermetic runs pin the hash seed, which must precede interpreter
    # start: replace this process, keeping the original start time.
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, PYTHONHASHSEED="0", STACK_BENCH_T0=repr(_T0)))

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
if not (REPO / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"stack benchmark: no program to measure: "
             f"{REPO / 'src' / 'repro'} is missing (run from a full checkout)")
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import driver  # noqa: E402  (imports every program module the runs use)

_IMPORT_S = time.time() - _T0


def _print_report(report: driver.Report) -> None:
    print(f"# workload {report.workload}  seed {report.seed}  "
          f"rounds {report.samples['rounds']}  "
          f"unit slots timed {report.samples['units']}")
    for title, names, values in (
            ("end-to-end", driver.END_TO_END, report.end_to_end),
            ("per-layer", driver.PER_LAYER, report.per_layer)):
        print(f"## {title}")
        for name, (unit, _better) in names.items():
            print(f"{name:38s} {values[name]:16.6f} {unit}")
    for error in report.errors[:10]:
        print(f"! {error}")


def _run_one(args) -> int:
    try:
        report = driver.measure(
            args.workload, args.seed, args.seconds, trace=bool(args.trace),
            smoke=args.smoke, import_s=_IMPORT_S)
    except driver.Unhygienic as exc:
        print(f"stack benchmark: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    _print_report(report)
    print(report.result_line(bool(args.trace)))
    return 0


def _run_all(args) -> int:
    """Every workload x seed in a process of its own (peak RSS, hash
    seed and caches start clean), optionally repeated as whole sets."""
    import agree

    sets = []
    for repeat in range(args.repeat):
        runs = []
        for name in driver.WORKLOADS:
            for seed in range(args.seed, args.seed + args.seeds):
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--trace", str(args.trace)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True)
                if done.returncode != 0:
                    print(f"{name} seed {seed}: exit {done.returncode}",
                          file=sys.stderr)
                    return done.returncode
                result = json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])
                runs.append({"workload": name, "seed": seed, **result})
                shown = list(result["metrics"].items())
                shown = shown[:len(driver.END_TO_END)]
                print(f"set {repeat} {name} seed {seed}: " + "  ".join(
                    f"{key}={value['value']:.6g}" for key, value in shown),
                    flush=True)
        sets.append({"runs": runs})
        if args.out:
            path = Path(args.out)
            if args.repeat > 1:
                path = path.with_name(f"{path.stem}-{repeat}{path.suffix}")
            path.write_text(json.dumps(sets[-1], indent=1))
    status = 0 if all(run["correct"] for s in sets for run in s["runs"]) else 1
    for index in range(1, len(sets)):
        status |= agree.report(sets[0], sets[index], f"set 0 vs set {index}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(driver.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload (one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=driver.RUN_SECONDS,
                        help="length of the measured section; the "
                             "benchmark fixes it, a shorter one is refused")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 rounds, 1 set-up: a self-test, not a "
                             "measurement")
    parser.add_argument("--seeds", type=int, default=1,
                        help="with --all: seeds per workload, from --seed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: whole sets to run and compare")
    parser.add_argument("--out", help="with --all: write the set(s) here")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if args.seconds < driver.RUN_SECONDS and not args.smoke:
        parser.error(f"--seconds must be at least {driver.RUN_SECONDS}: "
                     f"a shorter run has too few rounds to find the floors")
    return _run_all(args) if args.all else _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
