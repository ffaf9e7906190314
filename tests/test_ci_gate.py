"""Unit tests for the CI count gate (``benchmarks/ci_gate.py``).

The gate script lives outside the package, so it is loaded by path; the
tests cover only the pure comparison logic of its two tables (kernel
event counts, stack-benchmark counts) and the exit-code contract — the
actual benchmark reruns are the smoke CI job's business.
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


def _stack(events=154.629845, calls=1000.0, accuracy=100.0, rate=2500.0):
    return {"platform_ca": {"events_per_txn": events,
                            "repro_calls_per_txn": calls,
                            "accuracy_pct": accuracy,
                            "txn_per_cal_s": rate}}


class TestCompareStack:
    def test_same_counts_pass_and_wall_clock_is_report_only(self):
        failures, lines = ci_gate.compare_stack(_stack(rate=2500.0),
                                                _stack(rate=900.0))
        assert failures == []
        assert any("900.0" in line and "report only" in line
                   for line in lines)

    @pytest.mark.parametrize("doctored", [
        dict(events=154.629846), dict(events=154.0),
        dict(accuracy=99.999999), dict(accuracy=100.000001)])
    def test_events_and_accuracy_may_not_differ_at_all(self, doctored):
        failures, lines = ci_gate.compare_stack(_stack(), _stack(**doctored))
        assert len(failures) == 1
        assert "simulation itself changed" in failures[0]
        assert sum("FAIL" in line for line in lines) == 1

    def test_calls_may_rise_two_percent_and_no_more(self):
        assert ci_gate.compare_stack(_stack(), _stack(calls=1020.0))[0] == []
        failures, _ = ci_gate.compare_stack(_stack(), _stack(calls=1020.1))
        assert len(failures) == 1 and "repro_calls_per_txn rose" in failures[0]

    def test_a_fall_within_the_bound_passes_and_asks_for_a_refresh(self):
        failures, lines = ci_gate.compare_stack(_stack(), _stack(calls=980.0))
        assert failures == []
        assert any("improved -2.0%" in line and "--update" in line
                   for line in lines)
        # Thread-interleaving noise on service_mixed is not an improvement.
        _, lines = ci_gate.compare_stack(_stack(), _stack(calls=999.97))
        assert not any("improved" in line for line in lines)

    def test_a_fall_beyond_the_bound_fails_until_committed(self):
        # A saving left out of the baseline could be given back later
        # without the gate noticing: it must be committed with --update.
        failures, lines = ci_gate.compare_stack(_stack(), _stack(calls=979.9))
        assert len(failures) == 1
        assert "repro_calls_per_txn fell" in failures[0]
        assert "--update" in failures[0]
        assert sum("FAIL" in line for line in lines) == 1
        assert ci_gate.compare_stack(_stack(calls=979.9),
                                     _stack(calls=979.9))[0] == []

    def test_missing_workload_fails(self):
        failures, _ = ci_gate.compare_stack(_stack(), {})
        assert any("not rerun" in failure for failure in failures)


class TestGateProcess:
    """End-to-end exit codes with both benchmark reruns stubbed out."""

    @pytest.fixture
    def gate(self, monkeypatch, tmp_path):
        """``gate(*extra_args)`` runs the gate against baselines in
        ``tmp_path`` with instant, deterministic reruns."""
        import repro.bench as bench

        monkeypatch.setattr(bench, "run_benchmarks",
                            lambda repeats=3: {"a": _row(rate=50_000)})
        monkeypatch.setattr(ci_gate, "run_stack", lambda: _stack())
        self.kernel = tmp_path / "kernel.json"
        self.stack = tmp_path / "stack.json"
        self.kernel.write_text(json.dumps({"a": _row(rate=52_000)}))
        self.stack.write_text(json.dumps(_stack()))
        return lambda *extra: ci_gate.main(
            ["--baseline", str(self.kernel),
             "--stack-baseline", str(self.stack), *extra])

    def test_missing_baseline_is_usage_error(self, gate, capsys):
        self.kernel.unlink()
        assert gate() == 2
        assert "--update" in capsys.readouterr().err

    def test_missing_stack_baseline_is_usage_error(self, gate, capsys):
        self.stack.unlink()
        assert gate() == 2
        assert "stack.json" in capsys.readouterr().err

    def test_update_writes_baseline(self, gate, capsys):
        self.kernel.unlink()
        self.stack.unlink()
        assert gate("--update") == 0
        assert json.loads(self.kernel.read_text())["a"]["events"] == 1000
        # Counts only: the wall-clock figure is not committed.
        assert json.loads(self.stack.read_text()) == {"platform_ca": {
            "events_per_txn": 154.629845, "accuracy_pct": 100.0,
            "repro_calls_per_txn": 1000.0}}

    def test_update_keeps_a_baseline_whose_gated_counts_held(self, gate):
        """A stack refresh must not churn BENCH_kernel.json's wall-clock."""
        kernel = self.kernel.read_text()
        assert gate("--update") == 0
        assert self.kernel.read_text() == kernel  # 52 000, not this run's
        self.kernel.write_text(json.dumps({"a": _row(events=999)}))
        assert gate("--update") == 0
        assert json.loads(self.kernel.read_text())["a"] == _row(rate=50_000)

    def test_changed_count_fails_and_no_override_exists(
            self, gate, monkeypatch, capsys):
        self.kernel.write_text(
            json.dumps({"a": _row(events=999, rate=50_000)}))
        # No environment switch turns a changed count into a report: it
        # is a changed simulation whatever the environment says.
        monkeypatch.setenv("CI_ALLOW_PERF_REGRESSION", "1")
        assert gate() == 1
        assert "--update" in capsys.readouterr().err

    def test_costlier_transactions_fail(self, gate, capsys):
        self.stack.write_text(json.dumps(_stack(calls=950.0)))
        assert gate() == 1
        assert "repro_calls_per_txn rose" in capsys.readouterr().err

    def test_cheaper_transactions_fail_until_the_baseline_is_updated(
            self, gate, capsys):
        self.stack.write_text(json.dumps(_stack(calls=1050.0)))
        assert gate() == 1
        assert "repro_calls_per_txn fell" in capsys.readouterr().err
        assert gate("--update") == 0
        assert gate() == 0

    def test_slower_run_with_same_counts_passes(self, gate, capsys):
        self.kernel.write_text(json.dumps({"a": _row(rate=100_000)}))
        assert gate() == 0
        assert "-50.0%" in capsys.readouterr().out

    def test_clean_run_passes(self, gate, capsys):
        assert gate() == 0
        out = capsys.readouterr().out
        assert "event counts match" in out
        assert "stack counts within bounds" in out
