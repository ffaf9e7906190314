"""Unit tests for the CI event-count gate (``benchmarks/ci_gate.py``).

The gate script lives outside the package, so it is loaded by path; the
tests cover only the pure comparison logic and the exit-code
contract — the actual benchmark rerun is the smoke CI job's business.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GATE_PATH = (Path(__file__).resolve().parent.parent
              / "benchmarks" / "ci_gate.py")
_spec = importlib.util.spec_from_file_location("ci_gate", _GATE_PATH)
ci_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_gate)


def _row(events=1000, rate=100_000.0):
    return {"events": events, "events_per_sec": rate,
            "wall_s": events / rate, "sim_time_ps": 1}


class TestCompare:
    def test_same_counts_pass(self):
        failures, lines = ci_gate.compare(
            {"a": _row(rate=100_000)}, {"a": _row(rate=90_000)})
        assert failures == []
        assert any("ok" in line for line in lines[1:])

    @pytest.mark.parametrize("rate", [20_000, 80_000, 200_000])
    def test_events_per_second_is_report_only(self, rate):
        # Identical code has measured 5-18 % apart on a shared box: no
        # wall-clock figure fails the gate, however far it moved.
        failures, lines = ci_gate.compare(
            {"a": _row(rate=100_000)}, {"a": _row(rate=rate)})
        assert failures == []
        assert "report only" in lines[0]
        assert f"{rate:,}" in lines[1]

    def test_changed_event_count_fails_regardless_of_speed(self):
        failures, lines = ci_gate.compare(
            {"a": _row(events=1000, rate=100_000)},
            {"a": _row(events=1001, rate=100_000)})
        assert len(failures) == 1
        assert "event count changed" in failures[0]
        assert "FAIL" in lines[1]

    def test_missing_scenario_fails(self):
        failures, _ = ci_gate.compare(
            {"a": _row(), "b": _row()}, {"a": _row()})
        assert any("not rerun" in failure for failure in failures)

    def test_new_scenario_is_listed(self):
        _, lines = ci_gate.compare({"a": _row()},
                                   {"a": _row(), "b": _row()})
        assert any("(new)" in line for line in lines)


class TestGateProcess:
    """End-to-end exit codes with the benchmark rerun stubbed out."""

    @pytest.fixture
    def fast_bench(self, monkeypatch):
        """Make run_benchmarks instant and deterministic for the gate."""
        import repro.bench as bench

        table = {"a": _row(rate=50_000)}
        monkeypatch.setattr(bench, "run_benchmarks",
                            lambda repeats=3: dict(table))
        return table

    def test_missing_baseline_is_usage_error(self, tmp_path, fast_bench,
                                             capsys):
        code = ci_gate.main(["--baseline", str(tmp_path / "none.json")])
        assert code == 2
        assert "--update" in capsys.readouterr().err

    def test_update_writes_baseline(self, tmp_path, fast_bench, capsys):
        target = tmp_path / "base.json"
        assert ci_gate.main(["--baseline", str(target), "--update"]) == 0
        assert json.loads(target.read_text())["a"]["events"] == 1000

    def test_changed_count_fails_and_no_override_exists(
            self, tmp_path, fast_bench, monkeypatch, capsys):
        target = tmp_path / "base.json"
        target.write_text(json.dumps({"a": _row(events=999, rate=50_000)}))
        # No environment switch turns a changed count into a report: it
        # is a changed simulation whatever the environment says.
        monkeypatch.setenv("CI_ALLOW_PERF_REGRESSION", "1")
        assert ci_gate.main(["--baseline", str(target)]) == 1
        assert "--update" in capsys.readouterr().err

    def test_slower_run_with_same_counts_passes(self, tmp_path, fast_bench,
                                                capsys):
        target = tmp_path / "base.json"
        target.write_text(json.dumps({"a": _row(rate=100_000)}))
        assert ci_gate.main(["--baseline", str(target)]) == 0
        assert "-50.0%" in capsys.readouterr().out

    def test_clean_run_passes(self, tmp_path, fast_bench, capsys):
        target = tmp_path / "base.json"
        target.write_text(json.dumps({"a": _row(rate=52_000)}))
        assert ci_gate.main(["--baseline", str(target)]) == 0
        assert "event counts match" in capsys.readouterr().out
