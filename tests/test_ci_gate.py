"""Unit tests for the CI count gate (``benchmarks/ci_gate.py``).

The gate script lives outside the package, so it is loaded by path; the
tests cover only the pure comparison logic of its one table (the
stack-benchmark counts) and the exit-code contract — the actual
benchmark reruns are the smoke CI job's business.
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

    def test_workload_missing_from_the_baseline_fails(self):
        rerun = {**_stack(), "platform_lt": _stack()["platform_ca"]}
        failures, _ = ci_gate.compare_stack(_stack(), rerun)
        assert len(failures) == 1
        assert "platform_lt" in failures[0] and "--update" in failures[0]


class TestGateProcess:
    """End-to-end exit codes with the benchmark rerun stubbed out."""

    @pytest.fixture
    def gate(self, monkeypatch, tmp_path):
        """``gate(*extra_args)`` runs the gate against a baseline in
        ``tmp_path`` with an instant, deterministic rerun."""
        monkeypatch.setattr(ci_gate, "run_stack", lambda: _stack())
        self.stack = tmp_path / "stack.json"
        self.stack.write_text(json.dumps(_stack()))
        return lambda *extra: ci_gate.main(
            ["--stack-baseline", str(self.stack), *extra])

    def test_unreadable_baseline_is_usage_error(self, gate, capsys):
        self.stack.write_text("{not json")
        assert gate() == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "--update" in err

    def test_missing_stack_baseline_is_usage_error(self, gate, capsys):
        self.stack.unlink()
        assert gate() == 2
        assert "stack.json" in capsys.readouterr().err

    @pytest.mark.parametrize("retired", [["--baseline", "kernel.json"],
                                         ["--repeats", "3"]], ids=" ".join)
    def test_kernel_table_flags_are_gone(self, gate, capsys, retired):
        with pytest.raises(SystemExit) as usage:
            gate(*retired)
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_update_writes_baseline(self, gate, capsys):
        self.stack.unlink()
        assert gate("--update") == 0
        # Counts only: the wall-clock figure is not committed.
        assert json.loads(self.stack.read_text()) == {"platform_ca": {
            "events_per_txn": 154.629845, "accuracy_pct": 100.0,
            "repro_calls_per_txn": 1000.0}}
        assert "updated" in capsys.readouterr().out

    def test_update_keeps_a_baseline_whose_gated_counts_held(
            self, gate, capsys):
        """A rerun with the same counts leaves the committed file alone."""
        counts = _stack()
        del counts["platform_ca"]["txn_per_cal_s"]
        self.stack.write_text(json.dumps(counts, indent=4))
        committed = self.stack.read_text()
        assert gate("--update") == 0
        assert self.stack.read_text() == committed
        assert "updated" not in capsys.readouterr().out

    def test_update_keeps_a_calls_count_that_moved_within_the_noise(
            self, gate, monkeypatch):
        """Thread-interleaving jitter (service_mixed) rewrites nothing; a
        real fall is committed."""
        counts = _stack()
        del counts["platform_ca"]["txn_per_cal_s"]
        self.stack.write_text(json.dumps(counts, indent=4))
        committed = self.stack.read_text()
        monkeypatch.setattr(ci_gate, "run_stack",
                            lambda: _stack(calls=1000.03))
        assert gate("--update") == 0
        assert self.stack.read_text() == committed
        monkeypatch.setattr(ci_gate, "run_stack", lambda: _stack(calls=999.0))
        assert gate("--update") == 0
        assert json.loads(self.stack.read_text())["platform_ca"][
            "repro_calls_per_txn"] == 999.0

    def test_changed_count_fails_and_no_override_exists(
            self, gate, monkeypatch, capsys):
        self.stack.write_text(json.dumps(_stack(events=154.0)))
        # No environment switch turns a changed count into a report: it
        # is a changed simulation whatever the environment says.
        monkeypatch.setenv("CI_ALLOW_PERF_REGRESSION", "1")
        assert gate() == 1
        err = capsys.readouterr().err
        assert "simulation itself changed" in err and "--update" in err

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
        self.stack.write_text(json.dumps(_stack(rate=5000.0)))
        assert gate() == 0
        assert "2500.0  (report only)" in capsys.readouterr().out

    def test_clean_run_passes(self, gate, capsys):
        assert gate() == 0
        assert "stack counts within bounds" in capsys.readouterr().out
