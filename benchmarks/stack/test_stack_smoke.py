"""Self-test of the stack benchmark (``pytest benchmarks/stack -q``).

Runs every workload in ``--smoke`` mode (2 rounds, one set-up, one
traced round) and checks the harness rather than the program: every
metric is reported under its contract name, the exact counts repeat, the
output check notices a wrong or missing answer, nothing is left behind,
and ``agree.py`` tells agreeing sets from disagreeing ones.  Tier-1's
``testpaths = ["tests"]`` does not collect this file.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import agree  # noqa: E402
import driver  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Workloads whose call counts repeat exactly (the service's depend on
#: how its threads interleave; its event counts still repeat).
EXACT_CALLS = ("platform_ca", "platform_lt", "sweep_fanout")
#: The issue's bounds; BENCHMARK.json may be tighter, never looser.
MAX_BOUND = {"setup_s": 0.25, "cal_unit_ms_p50": 0.10, "txn_per_cal_s": 0.10,
             "events_per_txn": 0.005, "repro_calls_per_txn": 0.02,
             "peak_rss_mb": 0.05, "accuracy_pct": 0.001}

_reports = {}


def traced(name: str) -> driver.Report:
    """One traced smoke run per workload, shared by the tests."""
    if name not in _reports:
        _reports[name] = driver.measure(name, seed=7, seconds=0.0,
                                        trace=True, smoke=True)
    return _reports[name]


@pytest.mark.parametrize("name", list(driver.WORKLOADS))
def test_reports_every_metric_and_correct_outputs(name):
    report = traced(name)
    assert set(report.end_to_end) == set(driver.END_TO_END)
    assert set(report.per_layer) == set(driver.PER_LAYER)
    assert all(NAME.match(metric) for metric in
               list(report.end_to_end) + list(report.per_layer) + [name])
    assert all(value > 0 for value in report.end_to_end.values())
    assert report.correct and report.failed == 0, report.errors
    assert report.per_layer["fail_pct"] == 0.0
    if name == "platform_lt":
        assert 99.0 <= report.end_to_end["accuracy_pct"] < 100.0
        assert (report.end_to_end["events_per_txn"]
                < traced("platform_ca").end_to_end["events_per_txn"])
    else:
        assert report.end_to_end["accuracy_pct"] == 100.0
    shares = sum(report.per_layer[f"{layer}.self_share"]
                 for layer in driver.spans.LAYERS)
    assert 99.0 <= shares <= 101.0
    for line in (report.result_line(False), report.result_line(True)):
        document = json.loads(line)
        assert set(document) == {"correct", "attempted", "failed", "metrics"}
        assert document["attempted"] >= 1
    assert not list(driver.OUT.glob("tmp-*")), "temp dir left behind"


@pytest.mark.parametrize("name", list(driver.WORKLOADS))
def test_trace_file_and_layer_metrics(name):
    report = traced(name)
    trace = json.loads((driver.OUT / f"trace-{name}.json").read_text())
    events = trace["traceEvents"]
    assert events and all(event["ph"] == "X" and event["dur"] >= 0
                          for event in events)
    ids = {event["args"]["id"] for event in events}
    assert any(event["args"]["parent"] in ids for event in events)
    layers = {
        "platform_ca": ("core.self_share", "interconnect.calls_per_txn",
                        "memory.resumes_per_txn", "platforms.run_cal_ms"),
        "platform_lt": ("check.lt_event_ratio", "check.lt_exec_err_pct_max",
                        "platforms.build_cal_ms"),
        "sweep_fanout": ("sweep.cold_call_cal_ms", "sweep.warm_call_cal_ms",
                         "sweep.cache_put_cal_ms", "sweep.fanout_efficiency",
                         "sweep.serial_equiv_cal_ms", "sweep.hits",
                         "dse.self_share", "stdlib.json_share"),
        "service_mixed": ("service.submit_cal_ms", "service.self_share",
                          "service.job_cal_ms_hit_p50",
                          "service.job_cal_ms_miss_p50",
                          "service.job_cal_ms_preempt_p50",
                          "service.store_hit_ratio", "service.preemptions",
                          "service.fleet_utilisation",
                          "snapshot.take_cal_ms", "snapshot.resume_cal_ms",
                          "stdlib.asyncio_http_share"),
    }[name]
    for metric in layers:
        assert report.per_layer[metric] > 0, metric
    assert report.per_layer["driver.rounds"] == 2


@pytest.mark.parametrize("name", list(driver.WORKLOADS))
def test_counts_repeat_exactly(name):
    again = driver.measure(name, seed=7, seconds=0.0, smoke=True)
    first = traced(name)
    assert (again.end_to_end["events_per_txn"]
            == first.end_to_end["events_per_txn"])
    if name in EXACT_CALLS:
        assert (again.end_to_end["repro_calls_per_txn"]
                == first.end_to_end["repro_calls_per_txn"])


@pytest.mark.parametrize("name", list(driver.WORKLOADS))
def test_the_seed_orders_a_fixed_corpus(name, tmp_path):
    """Another seed meets the same configurations in another order, so
    the exact counts are the same at every seed."""
    one, two = (driver.WORKLOADS[name](seed, tmp_path).make_configs()
                for seed in (7, 8))
    assert list(one.values()) != list(two.values())
    assert (sorted(map(repr, one.values()))
            == sorted(map(repr, two.values())))


@pytest.mark.parametrize("name", list(driver.WORKLOADS))
def test_counts_are_the_same_at_every_seed(name):
    other = driver.measure(name, seed=8, seconds=0.0, smoke=True)
    first = traced(name)
    for metric in ("events_per_txn", "accuracy_pct") + (
            ("repro_calls_per_txn",) if name in EXACT_CALLS else ()):
        assert other.end_to_end[metric] == pytest.approx(
            first.end_to_end[metric], rel=1e-12)


@pytest.mark.parametrize("name", ["sweep_fanout", "service_mixed"])
def test_output_check_is_not_vacuous(name):
    """One corrupted result and one raising unit must both show."""
    report = driver.measure(name, seed=7, seconds=0.0, smoke=True,
                            inject={1: "corrupt", 2: "raise"})
    assert not report.correct
    assert report.failed == 1
    assert report.per_layer["fail_pct"] > 0.0
    assert report.end_to_end["accuracy_pct"] < 100.0
    assert any("injected fault" in error for error in report.errors)


def test_benchmark_json_matches_the_runner():
    document = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["benchmarks/stack"]
    assert [w["name"] for w in document["workloads"]] == list(driver.WORKLOADS)
    for section, table in (("end_to_end", driver.END_TO_END),
                           ("per_layer", driver.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"])
                  for m in document[section]}
        assert listed == dict(table)
    assert document["run_seconds"] == driver.RUN_SECONDS
    for metric in document["end_to_end"]:
        assert 0 < metric["bound"] <= MAX_BOUND[metric["name"]]


def test_command_line_and_bare_checkout(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "service_mixed",
         "--seed", "3", "--trace", "0", "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=REPO, timeout=120)
    assert done.returncode == 0
    lines = done.stdout.rstrip().split("\n")
    result = json.loads(lines[-1])
    assert set(result["metrics"]) == set(driver.END_TO_END)
    for name, (unit, _better) in driver.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name
    # The benchmark fixes the length of a run.
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "platform_ca",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=REPO,
        timeout=120)
    assert done.returncode != 0 and "{" not in done.stdout
    # A directory holding only the benchmark has nothing to measure.
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "stack",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "benchmarks/stack/run.py", "--workload",
         "platform_ca", "--seed", "1", "--seconds",
         str(driver.RUN_SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bare,
        timeout=120)
    assert done.returncode != 0 and "{" not in done.stdout


def test_agree_tells_agreement_from_disagreement(capsys):
    runs = [{"workload": "platform_ca", "seed": seed, "correct": True,
             "attempted": 120, "failed": 0, "metrics": {
        "cal_unit_ms_p50": {"value": 100.0 + seed, "unit": "ms"},
        "events_per_txn": {"value": 155.0, "unit": "count"}}}
        for seed in range(4)]
    same = {"runs": runs}
    assert agree.report(same, copy.deepcopy(same)) == 0
    slower = copy.deepcopy(same)
    for run in slower["runs"]:
        run["metrics"]["cal_unit_ms_p50"]["value"] *= 1.5
    assert agree.report(same, slower) == 1
    assert "OUTSIDE platform_ca/cal_unit_ms_p50" in capsys.readouterr().out
    failing = copy.deepcopy(same)
    failing["runs"][2]["failed"] = 1
    assert agree.report(same, failing) == 1
    assert "OUTSIDE platform_ca/fail_pct" in capsys.readouterr().out
