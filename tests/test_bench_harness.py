"""Tier-1 coverage for the benchmark harness (:mod:`repro.bench`).

These run the scenarios at a tiny scale so the harness cannot silently rot
between the occasional full ``repro bench`` runs.  Wall-clock numbers are
not asserted — only the plumbing: scenario registry, determinism check,
JSON schema, and the CLI front-end.
"""

import json

import pytest

from repro import bench
from repro.cli import main


@pytest.mark.bench_smoke
def test_run_benchmarks_tiny_scale():
    results = bench.run_benchmarks(repeats=1, scale=0.02)
    assert set(results) == set(bench.SCENARIOS)
    for name, row in results.items():
        expected = {"wall_s", "events", "events_per_sec",
                    "sim_time_ps", "mode"}
        if name == "platform_run":  # carries the energy stamp
            expected.add("energy_pj")
        assert set(row) == expected, name
        assert row["mode"] == "ca", name
        assert row["events"] > 0, name
        assert row["wall_s"] > 0, name
        assert row["events_per_sec"] == pytest.approx(
            row["events"] / row["wall_s"]), name
        assert row["sim_time_ps"] >= 0, name
    assert results["platform_run"]["energy_pj"] > 0


@pytest.mark.bench_smoke
def test_scenarios_are_deterministic_across_calls():
    for name, fn in bench.SCENARIOS.items():
        if name == "platform_run":  # slow; its count is gated by ci_gate.py
            continue
        assert fn(0.05) == fn(0.05), name


def test_unknown_scenario_raises_keyerror():
    with pytest.raises(KeyError):
        bench.run_benchmarks(names=["no_such_scenario"])


def test_subset_selection_preserves_requested_order():
    results = bench.run_benchmarks(names=["clock_edges", "timeout_storm"],
                                   repeats=1, scale=0.02)
    assert list(results) == ["clock_edges", "timeout_storm"]


def test_write_and_format_results(tmp_path):
    results = bench.run_benchmarks(names=["timeout_storm"], repeats=1,
                                   scale=0.02)
    out = tmp_path / "bench.json"
    bench.write_results(str(out), results)
    assert json.loads(out.read_text()) == results
    table = bench.format_results(results)
    assert "timeout_storm" in table
    assert "events/s" in table


@pytest.mark.bench_smoke
def test_cli_bench_writes_json(tmp_path, capsys):
    out = tmp_path / "BENCH_kernel.json"
    status = main(["bench", "--scenario", "timeout_storm", "--repeats", "1",
                   "--bench-scale", "0.02", "--output", str(out)])
    assert status == 0
    data = json.loads(out.read_text())
    assert set(data) == {"timeout_storm"}
    captured = capsys.readouterr()
    assert "timeout_storm" in captured.out
    assert str(out) in captured.out


def test_cli_bench_unknown_scenario_exits_2(tmp_path, capsys):
    out = tmp_path / "never_written.json"
    status = main(["bench", "--scenario", "bogus", "--output", str(out)])
    assert status == 2
    assert not out.exists()
    assert "bogus" in capsys.readouterr().err
