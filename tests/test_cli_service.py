"""Tests for the ``repro serve`` / ``submit`` / ``jobs`` subcommands.

``submit`` and ``jobs`` are driven against a real in-process
:class:`~repro.service.BackgroundService`; ``serve`` itself is covered
down to the parser (the blocking loop is the same ``ServiceServer`` the
background harness runs).
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.platforms.loader import config_to_dict
from repro.platforms.variants import quick_config
from repro.service import BackgroundService

CONFIG = config_to_dict(quick_config(traffic_scale=0.05))
SWEEP = {
    "base": CONFIG,
    "max_us": 10.0,
    "points": [
        {"label": "light", "traffic_scale": 0.05},
        {"label": "heavy", "traffic_scale": 0.1},
    ],
}


@pytest.fixture()
def service(tmp_path):
    with BackgroundService(port=0, fleet=2,
                           cache=str(tmp_path / "store")) as running:
        yield running


@pytest.fixture()
def url(service):
    return f"http://127.0.0.1:{service.port}"


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestSubmit:
    def test_sweep_submit_wait_prints_ordered_table(self, tmp_path, url,
                                                    capsys):
        spec = write(tmp_path, "sweep.json", SWEEP)
        assert main(["submit", spec, "--url", url, "--tenant", "alice",
                     "--wait"]) == 0
        out = capsys.readouterr().out
        assert "submitted job-1" in out
        rows = [line.split()[0] for line in out.splitlines()
                if line.startswith(("light", "heavy"))]
        assert rows == ["light", "heavy"]
        assert "job job-1: done" in out

    def test_config_submit_detected_by_shape(self, tmp_path, url, capsys):
        spec = write(tmp_path, "platform.json", CONFIG)
        assert main(["submit", spec, "--url", url, "--max-us", "10",
                     "--wait"]) == 0
        assert "1 unit(s)" in capsys.readouterr().out

    def test_forced_checkpoint_reports_preemption(self, tmp_path, url,
                                                  capsys):
        spec = write(tmp_path, "platform.json", CONFIG)
        assert main(["submit", spec, "--url", url, "--max-us", "10",
                     "--checkpoint-at-us", "1.0", "--wait"]) == 0
        table_row = [line for line in capsys.readouterr().out.splitlines()
                     if " run " in line][0]
        assert " 1 " in table_row  # one preemption, then resumed

    def test_malformed_config_prints_typed_error(self, tmp_path, url,
                                                 capsys):
        bad = json.loads(json.dumps(CONFIG))
        bad["memory"]["kind"] = "bogus"
        spec = write(tmp_path, "bad.json", bad)
        assert main(["submit", spec, "--url", url]) == 1
        err = capsys.readouterr().err
        assert "error [bad_submission]" in err
        assert "unknown memory kind 'bogus'" in err

    def test_unreadable_spec_is_a_usage_error(self, tmp_path, url, capsys):
        assert main(["submit", str(tmp_path / "missing.json"),
                     "--url", url]) == 2
        assert "not a readable JSON file" in capsys.readouterr().err

    def test_unreachable_service_reports_cleanly(self, tmp_path, capsys):
        spec = write(tmp_path, "platform.json", CONFIG)
        assert main(["submit", spec,
                     "--url", "http://127.0.0.1:1"]) == 1
        assert "cannot reach the service" in capsys.readouterr().err


class TestJobs:
    def test_list_detail_events_and_workers(self, tmp_path, url, capsys):
        spec = write(tmp_path, "platform.json", CONFIG)
        assert main(["submit", spec, "--url", url, "--max-us", "10",
                     "--tenant", "bob", "--wait"]) == 0
        capsys.readouterr()

        assert main(["jobs", "--url", url]) == 0
        listing = capsys.readouterr().out
        assert "job-1" in listing and "bob" in listing

        assert main(["jobs", "job-1", "--url", url]) == 0
        detail = capsys.readouterr().out
        assert "state=done" in detail

        assert main(["jobs", "job-1", "--events", "--url", url]) == 0
        events = capsys.readouterr().out
        assert "job_submitted" in events and "job_done" in events

        assert main(["jobs", "--workers", "--url", url]) == 0
        workers = capsys.readouterr().out
        assert "worker-0" in workers and "worker-1" in workers

    def test_result_replays_the_table(self, tmp_path, url, capsys):
        spec = write(tmp_path, "sweep.json", SWEEP)
        assert main(["submit", spec, "--url", url, "--wait"]) == 0
        capsys.readouterr()
        assert main(["jobs", "job-1", "--result", "--url", url]) == 0
        assert "job job-1: done" in capsys.readouterr().out

    def test_drain_undrain_round_trip(self, url, capsys):
        assert main(["jobs", "--drain", "worker-0", "--url", url]) == 0
        assert "worker-0: drained" in capsys.readouterr().out
        assert main(["jobs", "--undrain", "worker-0", "--url", url]) == 0
        assert "worker-0: idle" in capsys.readouterr().out

    def test_unknown_job_is_a_typed_error(self, url, capsys):
        assert main(["jobs", "job-99", "--url", url]) == 1
        assert "error [unknown_job]" in capsys.readouterr().err

    def test_failed_job_prints_table_and_error_line(self, tmp_path, url,
                                                    capsys):
        spec = write(tmp_path, "platform.json", CONFIG)
        assert main(["submit", spec, "--url", url, "--max-us", "0.2",
                     "--wait"]) == 1
        captured = capsys.readouterr()
        assert "job job-1: failed" in captured.out
        assert "error: " in captured.err
        assert "did not finish within 200000 ps" in captured.err


class TestUnixSocketUrl:
    """``--url unix:PATH`` reaches the listener ``serve --socket`` opens."""

    def test_submit_and_jobs_over_the_unix_socket(self, tmp_path, capsys):
        url = f"unix:{tmp_path / 'q.sock'}"
        spec = write(tmp_path, "sweep.json", SWEEP)
        with BackgroundService(port=0, fleet=2, cache=False,
                               socket_path=url[len("unix:"):]):
            assert main(["submit", spec, "--url", url, "--wait"]) == 0
            out = capsys.readouterr().out
            assert [line.split()[0] for line in out.splitlines()
                    if line.startswith(("light", "heavy"))] \
                == ["light", "heavy"]
            assert "job job-1: done" in out
            assert main(["jobs", "--url", url]) == 0
            assert "job-1" in capsys.readouterr().out
            assert main(["jobs", "--url", url, "--workers"]) == 0
            assert "worker-1" in capsys.readouterr().out
        assert main(["jobs", "--url", url]) == 1  # the listener is gone
        assert "cannot reach the service" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["http://localhost:abc",
                                 "http://localhost:99999", "http://[::1"])
def test_malformed_url_is_a_usage_error(capsys, bad):
    assert main(["jobs", "--url", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --url {bad!r}") and err.count("\n") == 1


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.func.__name__ == "cmd_serve"
        assert (args.host, args.port, args.workers) \
            == ("127.0.0.1", 8458, 2)
        assert args.no_cache is False

    def test_endpoint_parsing(self):
        from repro.cli import _service_endpoint

        assert _service_endpoint("http://10.0.0.2:9000") \
            == ("10.0.0.2", 9000)
        assert _service_endpoint("localhost:8458") == ("localhost", 8458)
        assert _service_endpoint("http://svc") == ("svc", 8458)
