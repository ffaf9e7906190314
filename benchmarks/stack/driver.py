"""Round loop, drift calibration, output checking and metric assembly.

One call to :func:`measure` is one benchmark run of one workload:

1. set-up (several times, the median is ``setup_s``): inputs from the
   seed, reference results from direct in-process runs, one unmeasured
   warm-up round;
2. the measured rounds, with a few calibration loops after each, until
   ``seconds`` have passed and at least ``MIN_ROUNDS`` rounds ran;
3. one cProfile'd round for exact call counts and the package split;
4. with ``trace``: a few more rounds under benchmark-side spans, the
   workload's probes, and the trace file.

End-to-end metrics always come from the untraced rounds of step 2.

Every round of a run does identical, deterministic work, so the j-th
unit of a round (a *slot*) is the same job in every round and what
differs between its repetitions is interference, which only ever adds
time.  Timings are therefore taken from each slot's *floor* (its
fastest repetition) and scaled by the floor of the calibration loop
over the same run: both are reached when the box is in its fast state,
whatever share of the run it spent there.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import calib
import spans
from workloads import WORKLOADS, Round, Traced, Workload, result_to_dict

OUT = spans.HERE / "out"

#: Length of the measured section.  BENCHMARK.json's ``run_seconds``
#: says the same; 92 acceptance runs of this plus set-up, calibration
#: and the profiled round are what fits the contract's 3420 s.
RUN_SECONDS = 22
#: Never fewer measured rounds than this, however slow the box is.
MIN_ROUNDS = 20
#: Set-ups per run; ``setup_s`` is their median plus the import time.
SETUPS = 3
#: Rounds run under spans in a traced run.
TRACED_ROUNDS = 3
#: Share of ``seconds`` a traced run spends on untraced rounds.
TRACED_SHARE = 0.4
MODEL_LAYERS = ("core", "interconnect", "bridge", "memory", "traffic", "obs")

#: name -> (unit, better).  ``bound`` lives in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cal_unit_ms_p50": ("ms", "lower"),
    "txn_per_cal_s": ("1/s", "higher"),
    "events_per_txn": ("count", "lower"),
    "repro_calls_per_txn": ("count", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_pct": ("%", "higher"),
}


def _per_layer_table() -> Dict[str, tuple]:
    table: Dict[str, tuple] = {}
    for layer in MODEL_LAYERS:
        table[f"{layer}.self_share"] = ("%", "lower")
        table[f"{layer}.calls_per_txn"] = ("count", "lower")
        table[f"{layer}.resumes_per_txn"] = ("count", "lower")
    table["core.events_per_txn"] = ("count", "lower")
    for name in ("build_cal_ms", "run_cal_ms", "config_roundtrip_cal_ms"):
        table[f"platforms.{name}"] = ("ms", "lower")
    table["platforms.self_share"] = ("%", "lower")
    for name in ("config_key", "cache_put", "cache_get_hit", "cache_get_miss",
                 "cold_call", "warm_call", "serial_equiv", "pool_overhead"):
        table[f"sweep.{name}_cal_ms"] = ("ms", "lower")
    table["sweep.fanout_efficiency"] = ("ratio", "higher")
    table["sweep.hits"] = ("count", "higher")
    table["sweep.misses"] = ("count", "lower")
    table["sweep.self_share"] = ("%", "lower")
    for name in ("pickle_share", "json_share", "asyncio_http_share",
                 "self_share"):
        table[f"stdlib.{name}"] = ("%", "lower")
    for name in ("submit_cal_ms", "job_cal_ms_hit_p50", "job_cal_ms_miss_p50",
                 "job_cal_ms_preempt_p50", "overhead_cal_ms"):
        table[f"service.{name}"] = ("ms", "lower")
    table["service.store_hit_ratio"] = ("ratio", "higher")
    table["service.inflight_ratio"] = ("ratio", "lower")
    table["service.preemptions"] = ("count", "lower")
    table["service.errors"] = ("count", "lower")
    table["service.fleet_utilisation"] = ("ratio", "higher")
    table["service.self_share"] = ("%", "lower")
    table["snapshot.take_cal_ms"] = ("ms", "lower")
    table["snapshot.resume_cal_ms"] = ("ms", "lower")
    table["snapshot.self_share"] = ("%", "lower")
    table["check.lt_exec_err_pct_max"] = ("%", "lower")
    table["check.lt_latency_err_pct_max"] = ("%", "lower")
    table["check.lt_event_ratio"] = ("ratio", "higher")
    table["dse.self_share"] = ("%", "lower")
    table["other.self_share"] = ("%", "lower")
    table["driver.cal_loop_ms_p50"] = ("ms", "lower")
    table["driver.cal_drift_pct"] = ("%", "lower")
    table["driver.rounds"] = ("count", "higher")
    table["driver.round_excess_pct"] = ("%", "lower")
    table["driver.cal_round_s_p50"] = ("s", "lower")
    table["driver.cal_unit_ms_p90"] = ("ms", "lower")
    table["driver.raw_wall_s"] = ("s", "lower")
    table["driver.trace_overhead_pct"] = ("%", "lower")
    table["fail_pct"] = ("%", "lower")
    return table


PER_LAYER = _per_layer_table()


class Unhygienic(RuntimeError):
    """The run left something behind or wrote where it must not."""


# ----------------------------------------------------------------------
# output checking
# ----------------------------------------------------------------------
@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    delivered: int = 0
    accuracy_sum: float = 0.0
    errors: List[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.delivered += other.delivered
        self.accuracy_sum += other.accuracy_sum
        self.errors.extend(other.errors)

    @property
    def fail_pct(self) -> float:
        return 100.0 * self.failed / max(1, self.attempted)

    @property
    def accuracy_pct(self) -> float:
        return 100.0 * self.accuracy_sum / max(1, self.delivered)


@dataclass
class Checked:
    """A round after its results were compared with the references."""

    tally: Tally
    transactions: int
    events: int
    #: ``(slot, kind, seconds)`` of every delivered unit; the slot is
    #: the unit's position in the round.
    unit_seconds: List[tuple]


def check_round(workload: Workload, done: Round) -> Checked:
    tally = Tally()
    transactions = events = 0
    unit_seconds = []
    for slot, unit in enumerate(done.units):
        tally.attempted += 1
        scores = []
        delivered_txns = 0
        if unit.error is None:
            for key, result in unit.delivered:
                document = (result if isinstance(result, dict)
                            else result_to_dict(result))
                reference = workload.references[key]
                broken = workload.clause_broken(reference, document)
                if broken is not None:
                    unit.error = f"{key}: {broken}"
                    break
                scores.append(workload.score(reference, document))
                delivered_txns += document["transactions"]
        if unit.error is not None:
            tally.failed += 1
            tally.errors.append(f"{unit.kind}: {unit.error}")
            continue
        tally.delivered += 1
        tally.accuracy_sum += min(scores)
        transactions += delivered_txns
        events += unit.events
        unit_seconds.append((slot, unit.kind, unit.seconds))
    return Checked(tally, transactions, events, unit_seconds)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile; the single value for one sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class TimedRound:
    checked: Checked
    wall: float
    counts: Dict[str, float]


def timed_rounds(workload: Workload, recorder, stop, loops: int,
                 inject=None, label: str = "round"):
    """Run rounds until ``stop(done_rounds)``, timing ``loops``
    calibration loops after each with the program quiescent; returns
    the rounds and every loop time."""
    rounds: List[TimedRound] = []
    samples = calib.loops(loops)
    while not stop(len(rounds)):
        if recorder.enabled:
            recorder.block = f"{label}-{len(rounds)}"
        done = workload.run_round(recorder,
                                  inject=inject if not rounds else None)
        rounds.append(TimedRound(check_round(workload, done), done.wall,
                                 done.counts))
        samples.extend(calib.loops(loops))
    return rounds, samples


def slot_floors(rounds: List[TimedRound]) -> Dict[int, tuple]:
    """``slot -> (kind, seconds)`` of each slot's fastest repetition."""
    floors: Dict[int, tuple] = {}
    for item in rounds:
        for slot, kind, seconds in item.checked.unit_seconds:
            if slot not in floors or seconds < floors[slot][1]:
                floors[slot] = (kind, seconds)
    return floors


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
@dataclass
class Report:
    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]
    errors: List[str]
    samples: Dict[str, int]

    def result_line(self, trace: bool) -> str:
        """The contract's last line: end-to-end metrics for an untraced
        run, per-layer metrics for a traced one."""
        names = PER_LAYER if trace else END_TO_END
        values = self.per_layer if trace else self.end_to_end
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": values[name], "unit": names[name][0]}
                        for name in names}})


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def _home_cache_state():
    path = Path.home() / ".cache" / "repro" / "sweeps"
    try:
        stat = path.stat()
    except OSError:
        return None
    return (stat.st_mtime_ns, len(list(path.iterdir())))


def _await_quiet(threads_before: set) -> None:
    """Every worker process and non-daemon thread the run started must
    have ended; give pools that shut down without waiting a moment."""
    deadline = time.monotonic() + 10.0
    while True:
        processes = multiprocessing.active_children()
        threads = [thread for thread in threading.enumerate()
                   if thread.ident not in threads_before
                   and not thread.daemon and thread.is_alive()]
        if not processes and not threads:
            return
        if time.monotonic() > deadline:
            raise Unhygienic(
                f"outlived the run: processes {processes}, threads "
                f"{[thread.name for thread in threads]}")
        time.sleep(0.02)


@contextmanager
def _hermetic(name: str) -> Iterator[Path]:
    """A temporary directory under ``out/`` that every cache, store and
    temp file of the run lives in; afterwards nothing may be left of the
    run — no directory, worker process, thread or touched home cache."""
    home_before = _home_cache_state()
    threads_before = {thread.ident for thread in threading.enumerate()}
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT))
    redirected = {"REPRO_SWEEP_CACHE": str(tmp / "default-sweep-cache"),
                  "TMPDIR": str(tmp)}
    saved = {key: os.environ.get(key) for key in redirected}
    os.environ.update(redirected)
    tempfile.tempdir = None  # make tempfile re-read TMPDIR
    try:
        yield tmp
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
        tempfile.tempdir = None
    _await_quiet(threads_before)
    if _home_cache_state() != home_before:
        raise Unhygienic("~/.cache/repro/sweeps was touched")


def measure(name: str, seed: int, seconds: float, trace: bool = False,
            smoke: bool = False, inject: Optional[Dict[int, str]] = None,
            import_s: float = 0.0) -> Report:
    """One benchmark run of workload ``name``; see the module docstring.

    ``smoke`` shrinks it to 2 rounds, one set-up and one traced round.
    ``inject`` plants faults in the first measured round (self-test).
    """
    if smoke:
        min_rounds, setups, traced_rounds, loops = 2, 1, 1, 1
    else:
        min_rounds, setups, traced_rounds, loops = (
            MIN_ROUNDS, SETUPS, TRACED_ROUNDS, calib.ROUND_LOOPS)
    if trace:
        # A traced run reports per-layer metrics only; it needs just
        # enough untraced rounds to price the tracing overhead.
        seconds *= TRACED_SHARE
        min_rounds = min(min_rounds, 8)
    null = spans.NullRecorder()
    with _hermetic(name) as tmp:
        # -- 1. set-up --------------------------------------------------
        # Each set-up is scaled by the loops timed just before and after
        # it: a set-up is too long, and repeated too few times, to have
        # a floor of its own.
        first = before = min(calib.loops(calib.SETUP_LOOPS))
        setup_times = []
        for attempt in range(setups):
            start = time.perf_counter()
            workload = WORKLOADS[name](seed, tmp / f"setup-{attempt}")
            workload.tmp.mkdir()
            workload.set_up()
            tally = check_round(workload, workload.run_round(null)).tally
            elapsed = time.perf_counter() - start
            after = min(calib.loops(calib.SETUP_LOOPS))
            setup_times.append(elapsed * calib.CAL_REF_S
                               / ((before + after) / 2.0))
            before = after
        setup_s = (import_s * calib.CAL_REF_S / first
                   + median(setup_times))

        # -- 2. measured rounds -----------------------------------------
        began = time.perf_counter()
        rounds, samples = timed_rounds(
            workload, null,
            lambda n: n >= min_rounds and (
                smoke or time.perf_counter() - began >= seconds),
            loops, inject=inject)
        peak_rss_mb = _peak_rss_mb()
        for item in rounds:
            tally.add(item.checked.tally)
        transactions = sum(r.checked.transactions for r in rounds)
        events = sum(r.checked.events for r in rounds)
        counts_repeat = len({(r.checked.transactions, r.checked.events)
                             for r in rounds
                             if not r.checked.tally.failed}) <= 1
        if not counts_repeat:
            tally.errors.append("transactions or events differed between "
                                "rounds of identical work")

        # -- 3. profiled round ------------------------------------------
        gc.collect()
        profile = spans.PackageProfile(cpu_time=workload.profile_cpu_time)
        with profile:
            profiled = check_round(
                workload, workload.run_round(null, profiled=True))
            gc.collect()  # finalise the round's generators on the clock
        table = profile.attribute()
        tally.add(profiled.tally)
        txns = max(1, profiled.transactions)

        loop_floor = quantile(samples, calib.FLOOR_QUANTILE)
        factor = calib.CAL_REF_S / loop_floor
        floors = slot_floors(rounds)
        floor_s = [best for _kind, best in floors.values()]
        walls = [r.wall for r in rounds]
        end_to_end = {
            "setup_s": setup_s,
            "cal_unit_ms_p50": median(floor_s) * factor * 1e3,
            "txn_per_cal_s": (median([r.checked.transactions for r in rounds])
                              / (sum(floor_s) * factor)),
            "events_per_txn": events / max(1, transactions),
            "repro_calls_per_txn": spans.repro_calls(table) / txns,
            "peak_rss_mb": peak_rss_mb,
            "accuracy_pct": tally.accuracy_pct,
        }
        per_layer = {key: 0.0 for key in PER_LAYER}
        per_layer.update({
            "driver.cal_loop_ms_p50": median(samples) * 1e3,
            "driver.cal_drift_pct":
                100.0 * (median(samples) / loop_floor - 1.0),
            "driver.rounds": float(len(rounds)),
            "driver.round_excess_pct":
                100.0 * (median(walls) / sum(floor_s) - 1.0),
            "driver.cal_round_s_p50": median(walls) * factor,
            "driver.cal_unit_ms_p90": quantile(floor_s, 0.9) * factor * 1e3,
            "driver.raw_wall_s": median(walls),
            "core.events_per_txn": end_to_end["events_per_txn"],
        })
        per_layer.update(_profile_metrics(table, txns))

        # -- 4. traced rounds and probes --------------------------------
        if trace:
            per_layer.update(_traced(workload, floors, factor, median(walls),
                                     loops, traced_rounds, tally))
        per_layer["fail_pct"] = tally.fail_pct
    correct = (tally.failed == 0 and counts_repeat
               and tally.accuracy_pct >= workload.min_accuracy_pct)
    return Report(name, seed, correct, tally.attempted, tally.failed,
                  end_to_end, per_layer, tally.errors,
                  {"rounds": len(rounds), "units": len(floor_s)})


def _profile_metrics(table: Dict[str, Dict[str, float]],
                     txns: int) -> Dict[str, float]:
    """Per-layer metrics of the profiled round: self-time shares, and
    calls and generator resumes per delivered transaction."""
    share = spans.shares(table)
    metrics = {f"{layer}.self_share": share[layer]
               for layer in spans.LAYERS if f"{layer}.self_share" in PER_LAYER}
    for layer in MODEL_LAYERS:
        metrics[f"{layer}.calls_per_txn"] = table[layer]["calls"] / txns
        metrics[f"{layer}.resumes_per_txn"] = table[layer]["resumes"] / txns
    for bucket in ("pickle", "json", "asyncio_http"):
        metrics[f"stdlib.{bucket}_share"] = share[f"stdlib.{bucket}"]
    return metrics


def _traced(workload: Workload, floors: Dict[int, tuple], factor: float,
            untraced_round_s: float, loops: int, wanted: int,
            tally: Tally) -> Dict[str, float]:
    """Step 4: rounds under spans, the workload's probes, the trace file;
    returns the per-layer metrics that come from spans.  ``floors`` and
    ``factor`` are those of the untraced rounds."""
    recorder = spans.SpanRecorder()
    rounds, _samples = timed_rounds(workload, recorder,
                                    lambda n: n >= wanted, loops,
                                    label="traced")
    for item in rounds:
        tally.add(item.checked.tally)
    recorder.block = "probes"
    workload.probes(recorder)
    recorder.write(OUT / f"trace-{workload.name}.json", factor)

    def cal_ms(name: str) -> float:
        return median([(span["end"] - span["start"]) * factor * 1e3
                       for span in recorder.durations(name)])

    traced = Traced(
        cal_ms=cal_ms,
        unit_p50=lambda kind: median([
            best * factor * 1e3
            for unit_kind, best in floors.values() if unit_kind == kind]),
        counts={key: median([item.counts[key] for item in rounds])
                for key in rounds[0].counts},
        round_s=median([item.wall for item in rounds]) * factor)
    metrics = {
        "driver.trace_overhead_pct":
            100.0 * (traced.round_s / (untraced_round_s * factor) - 1.0),
        "platforms.build_cal_ms": cal_ms("platforms.build"),
        "platforms.run_cal_ms": cal_ms("platforms.run"),
        "platforms.config_roundtrip_cal_ms":
            cal_ms("platforms.config_roundtrip"),
    }
    metrics.update(workload.layer_metrics(traced))
    return metrics
