"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, registry


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry():
            assert name in out


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_small_run_reports_and_passes(self, capsys):
        assert main(["run", "s412", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "response-channel efficiency" in out
        assert "all shape claims hold" in out


class TestPlatform:
    def _write_config(self, tmp_path, **overrides):
        document = {
            "protocol": "stbus",
            "topology": "collapsed",
            "traffic_scale": 0.1,
            "cpu": {"enabled": False},
        }
        document.update(overrides)
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(document))
        return path

    def test_runs_config_file(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert main(["platform", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stbus/collapsed" in out
        assert "execution time" in out

    def test_csv_output(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        csv_path = tmp_path / "out.csv"
        assert main(["platform", str(path), "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "execution_time_ps" in header

    @pytest.mark.parametrize("document,section", [
        ({"protocol": "nope"}, "platform"),
        ({"memory": 5}, "memory"),
        ({"memory": None}, "memory"),
        ({"memory": {"kind": "dram"}}, "memory"),
        ({"central_stbus_type": 9}, "central_stbus_type"),
        ({"clusters": [{"name": "c", "freq_mhz": 100, "data_width_bytes": 4,
                        "stbus_type": 2, "ips": [1]}]}, "cluster 'c'"),
        ({"netlist": [{"kind": "fabric", "name": "n"},
                      {"kind": "lmi", "name": "m", "fabric": "n", "base": 0,
                       "span": 0}]}, "netlist: lmi 'm'"),
    ], ids=["protocol", "memory-not-object", "memory-null", "memory-kind",
            "stbus-type", "ip-not-object", "netlist-zero-span"])
    def test_malformed_document_is_a_config_error(self, tmp_path, capsys,
                                                  document, section):
        """One ``error:`` line naming the section and exit 2 from the
        CLI; a 400-class submission error from the service parser."""
        from repro.service.protocol import SubmissionError, parse_submission

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["platform", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}") and err.count("\n") == 1
        with pytest.raises(SubmissionError, match=section):
            parse_submission({"tenant": "t", "config": document})

    def test_missing_config_file_exits_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nosuch.json"
        assert main(["platform", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "nosuch.json" in err
        assert "Traceback" not in err

    def test_malformed_json_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["platform", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err


class TestTraceCleanup:
    """A failing runner must not leak the process-wide capture hook."""

    def test_failing_run_uninstalls_capture_and_writes_trace(
            self, tmp_path, monkeypatch):
        from repro import cli
        from repro.core import kernel

        def boom_runner(scale, jobs=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(
            cli, "registry", lambda: {"boom": ("always fails", boom_runner)})
        trace = tmp_path / "trace.json"
        assert kernel._new_sim_hooks == []
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(["run", "boom", "--trace", str(trace)])
        # the ambient hook is gone and the (empty) trace was still written
        assert kernel._new_sim_hooks == []
        assert json.loads(trace.read_text()) is not None


class TestProtocols:
    def test_table_lists_registry(self, capsys):
        from repro.interconnect import PROTOCOLS

        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in PROTOCOLS:
            assert name in out
        assert "docs/PROTOCOLS.md" in out

    def test_plan_describes_pairing(self, capsys):
        assert main(["protocols", "--plan", "axi", "apb"]) == 0
        out = capsys.readouterr().out
        assert "axi -> apb" in out
        assert "single-beat" in out

    def test_plan_rejects_unknown_protocol(self, capsys):
        assert main(["protocols", "--plan", "axi", "tlm"]) == 2
        err = capsys.readouterr().err
        assert "unknown protocol 'tlm'" in err

    def test_matrix_covers_all_pairings(self, capsys):
        assert main(["protocols", "--matrix"]) == 0
        out = capsys.readouterr().out
        assert "100 derived pairings" in out
        assert "wishbone -> tilelink" in out


class TestErrorPolicy:
    """``main()`` holds the one policy: a run that could not complete is
    one ``error:`` line, then the stall diagnosis, and exit 1; a nonsense
    flag is a usage error."""

    @pytest.mark.parametrize("command", ["platform", "stats", "check"])
    def test_bound_overrun_is_an_error_line_not_a_traceback(
            self, tmp_path, capsys, command):
        path = TestPlatform()._write_config(tmp_path)
        assert main([command, str(path), "--max-us", "0.2"]) == 1
        line, _, diagnosis = capsys.readouterr().err.partition("\n")
        assert line.startswith("error: ")
        assert line.endswith("did not finish within 200000 ps")
        assert diagnosis.startswith("stall diagnosis of 'platform'")

    @pytest.mark.parametrize("argv", [
        ["platform", "cfg.json", "--checkpoint-every", "0"],
        ["platform", "cfg.json", "--checkpoint-every", "-1"],
        ["run", "fig3", "--scale", "0"],
        # 1e303 us overflows a float once converted to ps
        ["platform", "cfg.json", "--max-us", "1e303"],
    ])
    def test_nonsense_durations_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        assert "is not a positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["snapshot", "take", "cfg.json", "--at-us", "0"],
        ["snapshot", "take", "cfg.json", "--at-us", "-1"],
        ["snapshot", "take", "cfg.json", "--fraction", "0"],
        ["snapshot", "take", "cfg.json", "--fraction", "1.5"],
        ["run", "fig3", "--jobs", "0"],
        ["run", "fig3", "--jobs", "-2"],
        ["sweep", "sweep.json", "--jobs", "0"],
        ["sweep", "sweep.json", "--jobs", "-2"],
        ["dse", "dse.json", "--jobs", "0"],
        ["dse", "dse.json", "--jobs", "-2"],
        ["serve", "--workers", "0"],
        ["serve", "--quota", "0"],
        ["submit", "cfg.json", "--checkpoint-at-us", "0"],
        ["submit", "cfg.json", "--timeout", "-1"],
        ["jobs", "--timeout", "-1"],
        ["sweep", "sweep.json", "--timeout", "-1"],
    ], ids=" ".join)
    def test_nonsense_numbers_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro ") and "Traceback" not in err

    def test_checkpoint_at_zero_writes_nothing(self, tmp_path):
        """Regression: ``--at-us 0`` read as unset and saved a checkpoint
        at ``--fraction`` of the run."""
        config = TestPlatform()._write_config(tmp_path)
        out = tmp_path / "ckpts"
        with pytest.raises(SystemExit) as usage:
            main(["snapshot", "take", str(config), "--at-us", "0",
                  "--out", str(out)])
        assert usage.value.code == 2
        assert not out.exists()


#: Every subcommand's option strings, captured before the shared flags
#: moved into parent parsers: no command may gain or lose one.
OPTION_SURFACE = {
    "check": ["--diff", "--help", "--limit", "--max-us", "--scale",
              "--strict", "-h"],
    "dse": ["--csv", "--help", "--jobs", "--json", "--no-cache", "--screen",
            "--seed", "-h"],
    "jobs": ["--drain", "--events", "--help", "--result", "--since",
             "--tenant", "--timeout", "--undrain", "--url", "--wait",
             "--workers", "-h"],
    "list": ["--help", "-h"],
    "platform": ["--checkpoint-dir", "--checkpoint-every", "--csv", "--help",
                 "--max-us", "--mode", "--trace", "-h"],
    "protocols": ["--help", "--matrix", "--plan", "-h"],
    "run": ["--help", "--jobs", "--scale", "--trace", "-h"],
    "serve": ["--cache-dir", "--help", "--host", "--no-cache", "--port",
              "--processes", "--quota", "--slice-us", "--socket", "--workers",
              "-h"],
    "snapshot": ["--at-us", "--fraction", "--help", "--max-us", "--only",
                 "--out", "--refresh-golden", "--summary", "--verify-golden",
                 "-h"],
    "stats": ["--csv", "--energy", "--help", "--json", "--max-us", "--prefix",
              "--scale", "-h"],
    "submit": ["--checkpoint-at-us", "--help", "--max-us", "--preemptible",
               "--priority", "--tenant", "--timeout", "--trace", "--url",
               "--wait", "-h"],
    "sweep": ["--cache-dir", "--csv", "--help", "--jobs", "--no-cache",
              "--timeout", "-h"],
}


def test_every_subcommand_keeps_its_options():
    import argparse

    from repro.cli import build_parser

    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    surface = {name: sorted(option for action in parser._actions
                            for option in action.option_strings)
               for name, parser in subparsers.choices.items()}
    assert surface == OPTION_SURFACE
