"""Tests for the ``repro sweep`` subcommand and ``run --jobs``."""

import json

import pytest

from repro.cli import main

SPEC = {
    "jobs": 1,
    "base": {
        "protocol": "stbus",
        "topology": "collapsed",
        "traffic_scale": 0.05,
        "cpu": {"enabled": False},
    },
    "grid": {"memory.wait_states": [1, 4]},
}


def _write_spec(tmp_path, document=None):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SPEC if document is None else document))
    return path


def _table_rows(text):
    """Data rows of the sweep table, minus the trailing hit/run column."""
    return [line.rsplit(None, 1)[0] for line in text.splitlines()
            if "memory.wait_states" in line]


class TestSweepCommand:
    def test_cold_run_then_warm_cache_hit(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        cache = tmp_path / "cache"
        assert main(["sweep", str(spec), "--cache-dir", str(cache)]) == 0
        cold = capsys.readouterr().out
        assert "0 served from cache" in cold
        assert "run" in cold

        assert main(["sweep", str(spec), "--cache-dir", str(cache)]) == 0
        warm = capsys.readouterr().out
        assert "2 served from cache" in warm
        assert "hit" in warm
        # A cache hit must be numerically identical to the fresh run.
        assert _table_rows(warm) == _table_rows(cold)

    def test_no_cache_always_resimulates(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(["sweep", str(spec), "--no-cache",
                         "--cache-dir", str(cache)]) == 0
            assert "0 served from cache" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        csv_path = tmp_path / "out.csv"
        assert main(["sweep", str(spec), "--cache-dir",
                     str(tmp_path / "cache"), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert "execution_time_ps" in lines[0]
        assert len(lines) == 3  # header + one row per grid point
        assert "memory.wait_states=1" in lines[1]

    def test_missing_spec_file(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.json"
        assert main(["sweep", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nosuch.json" in err

    def test_malformed_spec(self, tmp_path, capsys):
        spec = _write_spec(tmp_path, {"base": {}, "warp": 9})
        assert main(["sweep", str(spec)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_platform_file_is_a_one_point_sweep(self, tmp_path, capsys):
        """``repro sweep`` reads its file as ``repro check`` does
        (``repro.sweep.load_target``)."""
        spec = _write_spec(tmp_path, SPEC["base"])
        assert main(["sweep", str(spec), "--no-cache"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()
                if line.split()[-1:] == ["run"]]
        assert [row[0] for row in rows] == ["stbus/collapsed"]
        assert "1 point(s), 0 served from cache" in out


class TestRunJobs:
    def test_run_with_jobs_matches_serial(self, tmp_path, capsys, monkeypatch):
        # Separate cold caches so both invocations actually simulate.
        # (Some shape claims only hold at full scale, so compare the two
        # runs against each other rather than requiring success.)
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "serial"))
        serial_status = main(["run", "fig3", "--scale", "0.2"])
        serial = capsys.readouterr().out
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "pooled"))
        pooled_status = main(["run", "fig3", "--scale", "0.2", "--jobs", "2"])
        pooled = capsys.readouterr().out
        assert pooled_status == serial_status
        assert pooled == serial
        assert "fig3" in serial

    def test_trace_with_jobs_warns_and_stays_serial(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", "s412", "--scale", "0.3", "--jobs", "2",
                     "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "running serially" in captured.err
        assert trace.exists()
        assert json.loads(trace.read_text())["traceEvents"]


class TestCheckSweepTargets:
    """``repro check`` decides "sweep or platform" where ``repro sweep``
    and ``repro submit`` do (``repro.sweep.is_sweep_document``)."""

    def test_sweep_points_are_checked(self, tmp_path, capsys):
        spec = _write_spec(tmp_path)
        assert main(["check", str(spec), "--strict"]) == 0
        out = capsys.readouterr().out
        assert out.count("checked point0,memory.wait_states=") == 2
        assert "no invariant violations" in out

    def test_mistyped_point_key_is_one_error_line(self, tmp_path, capsys):
        """Regression: the sweep branch parsed outside the ``try`` and
        died with a ``ConfigError`` traceback."""
        spec = _write_spec(tmp_path, {
            "base": SPEC["base"], "points": [{"protocl": "ahb"}]})
        assert main(["check", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert "unknown keys ['protocl']" in captured.err
        assert "Traceback" not in captured.err

    def test_base_only_sweep_checks_its_point(self, tmp_path, capsys):
        """Regression: a sweep with only ``base`` was taken for a platform
        document and rejected as ``unknown keys ['base']``."""
        spec = _write_spec(tmp_path, {"base": SPEC["base"]})
        assert main(["check", str(spec)]) == 0
        assert "checked point0:" in capsys.readouterr().out


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e303])
def test_non_finite_bound_is_an_error_line_not_a_traceback(tmp_path, capsys,
                                                            value):
    """``json`` reads ``NaN`` and ``Infinity``; 1e303 us overflows in ps."""
    spec = _write_spec(tmp_path, dict(SPEC, max_us=value))
    assert main(["sweep", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep.max_us:") and err.count("\n") == 1


class TestBoundOverrun:
    """A sweep file whose ``max_us`` is too tight: one ``error:`` line
    naming the point, then the stall diagnosis, exit 1 — from ``sweep``
    (serial and pooled) and from ``check``."""

    @pytest.mark.parametrize("argv", [
        ["sweep"], ["sweep", "--jobs", "2"], ["check"]])
    def test_overrun_is_an_error_line_not_a_traceback(self, tmp_path,
                                                      capsys, argv):
        spec = _write_spec(tmp_path, dict(SPEC, max_us=0.2))
        command, *flags = argv
        assert main([command, str(spec), *flags]) == 1
        err, _, diagnosis = capsys.readouterr().err.partition("\n")
        assert err.startswith("error: ")
        assert err.endswith("did not finish within 200000 ps")
        assert diagnosis.startswith("stall diagnosis of 'platform'")
        if command == "sweep":
            assert "sweep point 0: stbus/collapsed" in err
