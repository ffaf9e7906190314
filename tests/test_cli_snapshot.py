"""CLI surface of the snapshot subsystem.

``repro snapshot`` (take/resume, golden maintenance) and the
``repro platform --checkpoint-every`` periodic-checkpoint flag.
"""

import json

import pytest

from repro.cli import main

CONFIG_DOC = {
    "protocol": "stbus",
    "topology": "collapsed",
    "traffic_scale": 0.1,
    "cpu": {"enabled": False},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "platform.json"
    path.write_text(json.dumps(CONFIG_DOC))
    return path


class TestTakeResume:
    def test_take_then_resume_round_trips(self, tmp_path, config_path,
                                          capsys):
        out_file = tmp_path / "run.ckpt.json"
        assert main(["snapshot", "take", str(config_path),
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint at" in out
        assert out_file.is_file()

        assert main(["snapshot", "resume", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "bit for bit" in out

    def test_take_into_directory_content_addresses(self, tmp_path,
                                                   config_path, capsys):
        out_dir = tmp_path / "ckpts"
        assert main(["snapshot", "take", str(config_path),
                     "--out", str(out_dir)]) == 0
        saved = list(out_dir.glob("*.ckpt.json"))
        assert len(saved) == 1

    def test_take_at_explicit_instant(self, tmp_path, config_path, capsys):
        out_file = tmp_path / "early.ckpt.json"
        assert main(["snapshot", "take", str(config_path),
                     "--at-us", "1.0", "--out", str(out_file)]) == 0
        document = json.loads(out_file.read_text())
        assert document["at_ps"] == 1_000_000

    @pytest.mark.parametrize("flags, complaint", [
        (["--at-us", "500"], "before the requested 500000000 ps"),
        (["--max-us", "0.2"], "did not finish within 200000 ps"),
    ])
    def test_take_that_cannot_reach_its_instant_is_an_error_line(
            self, tmp_path, config_path, capsys, flags, complaint):
        out_dir = tmp_path / "ckpts"
        assert main(["snapshot", "take", str(config_path), *flags,
                     "--out", str(out_dir)]) == 1
        line, _, rest = capsys.readouterr().err.partition("\n")
        assert line.startswith("error: ") and complaint in line
        # Only an overrun has a stall diagnosis to print after the line.
        overrun = "did not finish" in complaint
        assert rest.startswith("stall diagnosis of 'platform'") == overrun
        assert overrun or rest == ""
        assert not out_dir.exists()  # nothing nobody asked for is saved

    def test_resume_rejects_tampered_file(self, tmp_path, config_path,
                                          capsys):
        out_file = tmp_path / "run.ckpt.json"
        main(["snapshot", "take", str(config_path), "--out", str(out_file)])
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        document["at_ps"] += 1
        out_file.write_text(json.dumps(document))
        assert main(["snapshot", "resume", str(out_file)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_resume_of_a_diverged_state_is_an_error_line(
            self, tmp_path, config_path, capsys):
        """A resealed file loads cleanly; the resume-time capture rejects
        it, naming the component path, without a traceback."""
        from repro.snapshot import state_digest
        from repro.snapshot.checkpoint import _payload_digest

        out_file = tmp_path / "run.ckpt.json"
        main(["snapshot", "take", str(config_path), "--out", str(out_file)])
        capsys.readouterr()
        document = json.loads(out_file.read_text())
        document["state"]["components"]["platform.mem"]["reads"] += 1
        document["state_digest"] = state_digest(document["state"])
        document["payload_digest"] = _payload_digest(document)
        out_file.write_text(json.dumps(document))
        assert main(["snapshot", "resume", str(out_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "state.components.platform.mem.reads" in err

    def test_take_with_bad_config_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["snapshot", "take", str(path)]) == 2
        assert "error" in capsys.readouterr().err


class TestArgumentErrors:
    def test_no_action_no_flag_is_usage_error(self, capsys):
        assert main(["snapshot"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_action_without_target_is_usage_error(self, capsys):
        assert main(["snapshot", "resume"]) == 2
        assert "needs a target file" in capsys.readouterr().err


class TestGoldenMaintenance:
    def test_summary_of_empty_corpus(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
        assert main(["snapshot", "--summary"]) == 0
        assert "no golden checkpoints" in capsys.readouterr().out

    def test_verify_empty_corpus_fails(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
        assert main(["snapshot", "--verify-golden"]) == 1
        assert "refresh-golden" in capsys.readouterr().out

    def test_refresh_subset_then_verify(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
        assert main(["snapshot", "--refresh-golden",
                     "--only", "quick_fixed_priority"]) == 0
        out = capsys.readouterr().out
        assert "1 golden checkpoint(s) refreshed" in out
        assert (tmp_path / "quick_fixed_priority.ckpt.json").is_file()
        assert main(["snapshot", "--verify-golden"]) == 0
        assert "bit-identically" in capsys.readouterr().out

    def test_refresh_unknown_entry_fails(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_GOLDEN_DIR", str(tmp_path))
        assert main(["snapshot", "--refresh-golden", "--only", "nosuch"]) == 1
        assert "unknown golden entries" in capsys.readouterr().err


class TestPlatformCheckpointEvery:
    def test_periodic_checkpoints_saved_and_resumable(self, tmp_path,
                                                      config_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        assert main(["platform", str(config_path),
                     "--checkpoint-every", "2",
                     "--checkpoint-dir", str(ckpt_dir)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint:" in out
        saved = sorted(ckpt_dir.glob("*.ckpt.json"))
        assert saved
        assert main(["snapshot", "resume", str(saved[0])]) == 0
