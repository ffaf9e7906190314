"""End-to-end smoke tier for the job service (docs/SERVICE.md).

Boots the real service in-process (one HTTP protocol on an ephemeral
TCP port and a Unix socket) and drives it through the blocking client
exactly the way ``repro submit`` does: a two-tenant sweep with ordered
results, cache-dedupe on resubmission, a checkpoint-preempt-resume round
trip verified bit-identical, typed quota rejections, and verbatim loader
errors for malformed submissions.

Every test runs unmarked in the plain tier-1 invocation; the
``service_smoke`` marker exists so the tier can be selected on its own
(docs/CI.md).
"""

import http.client
import json
import logging
import socket

import pytest

from repro.platforms.loader import config_from_dict, config_to_dict
from repro.platforms.variants import quick_config
from repro.service import server as server_module
from repro.service import (
    BackgroundService,
    NotReady,
    ProtocolError,
    QuotaExceeded,
    ServiceClient,
    SocketClient,
    SubmissionError,
    UnknownJob,
    UnknownWorker,
)
from repro.sweep import Run, SweepCache, result_to_dict

pytestmark = pytest.mark.service_smoke

CONFIG = config_to_dict(quick_config(traffic_scale=0.05))
MAX_US = 10.0
MAX_PS = int(MAX_US * 1e6)

SWEEP = {
    "base": CONFIG,
    "max_us": MAX_US,
    "points": [
        {"label": "light", "traffic_scale": 0.05},
        {"label": "heavy", "traffic_scale": 0.1},
    ],
}


def health(api):
    """The service's ``/healthz`` document, over ``api``'s listener."""
    return api._request("GET", "/healthz")


def stream_events(api, job_id):
    """Follow a job's live event stream (``follow=1``) over ``api``'s
    listener until the server ends it at the job's terminal state."""
    connection = api._connect()
    try:
        connection.request("GET", f"/jobs/{job_id}/events?since=0&follow=1")
        response = connection.getresponse()
        assert response.status == 200
        events = []
        while True:
            line = response.readline()
            if not line:
                return events
            if line.strip():
                events.append(json.loads(line))
    finally:
        connection.close()


@pytest.fixture()
def service(tmp_path):
    with BackgroundService(port=0, fleet=2,
                           cache=str(tmp_path / "store"),
                           socket_path=str(tmp_path / "queue.sock"),
                           slice_ps=500_000) as running:
        yield running


@pytest.fixture()
def client(service):
    return ServiceClient(port=service.port, timeout=120.0)


class TestSweepLane:
    def test_two_tenant_sweep_returns_ordered_results(self, client):
        """Two tenants share the fleet; each gets its own job with
        results in submission (point) order."""
        alice = client.submit({"tenant": "alice", "sweep": SWEEP})
        bob = client.submit({"tenant": "bob", "sweep": SWEEP,
                             "priority": "batch"})
        for view, tenant in ((alice, "alice"), (bob, "bob")):
            outcome = client.result(view["id"], wait=True, timeout=120)
            assert outcome["state"] == "done"
            labels = [row["label"] for row in outcome["results"]]
            assert labels == ["light", "heavy"]  # point order, always
            for row in outcome["results"]:
                assert row["state"] == "done"
                assert row["result"]["transactions"] > 0
        assert {job["tenant"] for job in client.jobs()} \
            == {"alice", "bob"}
        assert [job["tenant"] for job in client.jobs(tenant="bob")] \
            == ["bob"]

    def test_resubmission_is_served_from_the_shared_cache(self, client):
        first = client.submit({"tenant": "alice", "sweep": SWEEP})
        cold = client.result(first["id"], wait=True, timeout=120)
        second = client.submit({"tenant": "bob", "sweep": SWEEP})
        warm = client.result(second["id"], wait=True, timeout=120)
        # Identical configs, so every unit is a dedupe hit — either from
        # the on-disk store or coalesced with an in-flight twin.
        assert all(row["cached"] in ("cache", "inflight")
                   for row in warm["results"])
        assert [row["result"] for row in warm["results"]] \
            == [row["result"] for row in cold["results"]]


class TestPreemptionLane:
    def test_checkpoint_preempt_resume_round_trip(self, client):
        """Force a preemption mid-run; the resumed result must be
        bit-identical to an uninterrupted simulation."""
        view = client.submit({"tenant": "carol", "config": CONFIG,
                              "max_us": MAX_US, "checkpoint_at_us": 1.0})
        outcome = client.result(view["id"], wait=True, timeout=120)
        (row,) = outcome["results"]
        assert row["state"] == "done"
        assert row["preemptions"] == 1
        events = {event["event"]: event
                  for event in client.events(view["id"])}
        assert events["unit_preempted"]["at_ps"] == 1_000_000
        assert events["unit_done"]["resumed"] is True
        # Migration: the resume landed on a different worker.
        assert events["unit_resumed"]["worker"] \
            != events["unit_started"]["worker"]
        straight = Run(config_from_dict(CONFIG), MAX_PS).finish()
        assert row["result"] == result_to_dict(straight.result)

    def test_drain_and_undrain_workers(self, client):
        assert client.drain("worker-0")["state"] == "drained"
        names = {worker["name"]: worker["state"]
                 for worker in client.workers()}
        assert names == {"worker-0": "drained", "worker-1": "idle"}
        # The fleet still serves jobs on the remaining worker.
        view = client.submit({"tenant": "dora", "config": CONFIG,
                              "max_us": MAX_US})
        outcome = client.result(view["id"], wait=True, timeout=120)
        assert outcome["state"] == "done"
        assert client.undrain("worker-0")["state"] == "idle"


class TestRejections:
    def test_quota_exhaustion_is_a_typed_rejection(self, tmp_path):
        """An over-quota submission is refused immediately with a 429 —
        never accepted, queued, or hung."""
        with BackgroundService(port=0, fleet=1, quota_units=2,
                               cache=False) as running:
            client = ServiceClient(port=running.port, timeout=60.0)
            # Hold dave's first job queued: finished, it would free the
            # budget before the second submission is judged.
            client.drain("worker-0")
            client.submit({"tenant": "dave", "sweep": SWEEP})
            with pytest.raises(QuotaExceeded) as excinfo:
                client.submit({"tenant": "dave", "sweep": SWEEP})
            assert "quota of 2" in str(excinfo.value)
            client.undrain("worker-0")
            # Other tenants are unaffected, and dave's first job still
            # completes and frees the budget for a retry.
            client.submit({"tenant": "erin", "config": CONFIG,
                           "max_us": MAX_US})
            client.result("job-1", wait=True, timeout=120)
            retry = client.submit({"tenant": "dave", "config": CONFIG,
                                   "max_us": MAX_US})
            assert retry["tenant"] == "dave"

    def test_malformed_submission_surfaces_loader_error_verbatim(
            self, client):
        bad = json.loads(json.dumps(CONFIG))
        bad["memory"]["kind"] = "bogus"
        with pytest.raises(ValueError) as local:
            config_from_dict(bad)
        with pytest.raises(SubmissionError) as remote:
            client.submit({"tenant": "alice", "config": bad})
        assert str(remote.value) == str(local.value)

    def test_unknown_job_and_worker_are_404s(self, client):
        with pytest.raises(UnknownJob):
            client.job("job-999")
        with pytest.raises(UnknownWorker):
            client.drain("worker-999")

    def test_result_wait_timeout_is_not_ready(self, tmp_path):
        """A wait that expires reports 409, it does not block forever."""
        with BackgroundService(port=0, fleet=1, cache=False) as running:
            client = ServiceClient(port=running.port, timeout=60.0)
            # The only worker is drained, so the job cannot finish
            # before the zero-length wait expires.
            client.drain("worker-0")
            view = client.submit({"tenant": "frank", "sweep": SWEEP})
            with pytest.raises(NotReady):
                client.result(view["id"], wait=True, timeout=0.0)
            # Clean drain: let it finish before tearing the loop down.
            client.undrain("worker-0")
            client.result(view["id"], wait=True, timeout=120)

    def test_failed_job_is_a_result_not_a_rejection(self, service, client,
                                                    tmp_path):
        """The job's error *string* is not an error envelope."""
        socket_client = SocketClient(str(tmp_path / "queue.sock"))
        for api in (client, socket_client):
            view = api.submit({"tenant": "kim", "config": CONFIG,
                               "max_us": 0.2})
            outcome = api.result(view["id"], wait=True, timeout=120)
            assert outcome["state"] == "failed"
            assert "did not finish within 200000 ps" in outcome["error"]
        with pytest.raises(ProtocolError, match="timeout"):
            socket_client.result(view["id"], wait=True, timeout="abc")

    @pytest.mark.parametrize("target, headers", [
        ("/jobs/job-1/events?since=abc", {}),
        ("/jobs/job-1/result?wait=1&timeout=abc", {}),
        ("/jobs/job-1/result?wait=1&timeout=nan", {}),
        ("/healthz", {"X-Padding": "a" * 70_000}),  # > the stream limit
    ])
    def test_malformed_request_is_a_400_never_a_500_or_a_hangup(
            self, service, client, target, headers):
        client.submit({"tenant": "lee", "config": CONFIG, "max_us": MAX_US})
        connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                                timeout=30)
        connection.request("GET", target, headers=headers)
        response = connection.getresponse()
        kind = json.loads(response.read())["error"]["kind"]
        connection.close()
        assert (response.status, kind) == (400, "protocol_error")
        assert health(client)["ok"] is True

    @pytest.mark.parametrize("tenant", ["team a", "a&b"])
    def test_client_percent_encodes_what_it_sends(self, client, tenant):
        for name in ("other", tenant):
            view = client.submit({"tenant": name, "config": CONFIG,
                                  "max_us": MAX_US})
        assert [job["id"] for job in client.jobs(tenant=tenant)] \
            == [view["id"]]
        with pytest.raises(UnknownJob, match="'no such/job'"):
            client.job("no such/job")
        client.result(view["id"], wait=True, timeout=120)


class TestStreams:
    def test_event_stream_follows_to_terminal_state(self, client):
        view = client.submit({"tenant": "gail", "config": CONFIG,
                              "max_us": MAX_US})
        seen = [event["event"]
                for event in stream_events(client, view["id"])]
        assert seen[0] == "job_submitted"
        assert seen[-1] == "job_done"
        assert "unit_done" in seen

    def test_trace_endpoint_streams_perfetto_json(self, client):
        view = client.submit({"tenant": "hana", "config": CONFIG,
                              "max_us": MAX_US, "trace": True})
        client.result(view["id"], wait=True, timeout=120)
        trace = client.trace(view["id"])
        assert len(trace["traceEvents"]) > 0
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert "X" in phases  # complete spans, Perfetto-loadable

    def test_trace_before_completion_is_not_ready(self, tmp_path):
        with BackgroundService(port=0, fleet=1, cache=False) as running:
            client = ServiceClient(port=running.port, timeout=60.0)
            view = client.submit({"tenant": "ivan", "config": CONFIG,
                                  "max_us": MAX_US})  # no trace requested
            client.result(view["id"], wait=True, timeout=120)
            with pytest.raises(NotReady):
                client.trace(view["id"])


class TestSocketFrontEnd:
    def test_socket_submit_and_result(self, service, tmp_path):
        socket_client = SocketClient(str(tmp_path / "queue.sock"))
        assert health(socket_client)["ok"] is True
        view = socket_client.submit({"tenant": "jane", "config": CONFIG,
                                     "max_us": MAX_US})
        outcome = socket_client.result(view["id"], wait=True, timeout=120)
        assert outcome["state"] == "done"

    def test_http_health_reports_protocol_and_fleet(self, client):
        document = health(client)
        assert document["ok"] is True
        assert document["protocol"] == 1
        assert document["workers"] == 2


class TestOneProtocolTwoListeners:
    @pytest.mark.parametrize("listener", ["tcp", "unix"])
    def test_every_client_method_over_either_listener(self, service, client,
                                                      tmp_path, listener):
        """The Unix socket serves the endpoints the TCP port serves: one
        client drives every operation, the other listener's client must
        read back the same documents."""
        apis = {"tcp": client,
                "unix": SocketClient(str(tmp_path / "queue.sock"))}
        api = apis.pop(listener)
        (witness,) = apis.values()
        assert health(api) == health(witness) \
            == {"ok": True, "protocol": 1, "workers": 2, "jobs": 0}
        view = api.submit({"tenant": "both", "config": CONFIG,
                           "max_us": MAX_US, "trace": True})
        streamed = stream_events(api, view["id"])
        assert (streamed[0]["event"], streamed[-1]["event"]) \
            == ("job_submitted", "job_done")
        assert api.events(view["id"]) == witness.events(view["id"]) \
            == streamed
        assert api.events(view["id"], since=streamed[-2]["seq"]) \
            == streamed[-1:]
        outcome = api.result(view["id"], wait=True, timeout=120)
        assert outcome == witness.result(view["id"], wait=False)
        assert outcome["state"] == "done"
        assert api.job(view["id"]) == witness.job(view["id"])
        assert api.jobs(tenant="both") == witness.jobs() \
            == [api.job(view["id"])]
        assert api.trace(view["id"]) == witness.trace(view["id"])
        assert api.trace(view["id"])["traceEvents"]
        assert api.workers() == witness.workers()
        assert api.drain("worker-1") == witness.workers()[1]
        assert api.undrain("worker-1")["state"] == "idle"
        with pytest.raises(UnknownJob, match="job-999"):
            api.job("job-999")
        with pytest.raises(ProtocolError, match="no route"):
            api._request("GET", "/nowhere")


class TestHardening:
    """A silent or endless client cannot hold the service."""

    def test_idle_connection_is_closed_after_the_read_timeout(
            self, monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)
        with BackgroundService(port=0, fleet=1, cache=False) as running:
            with socket.create_connection(("127.0.0.1", running.port),
                                          timeout=10) as idle:
                assert idle.recv(1) == b""  # hung up on, nothing to say
            assert health(ServiceClient(port=running.port))["ok"] is True

    def test_header_flood_is_a_400_and_the_service_still_answers(
            self, service, client):
        def status_of(header_lines):
            with socket.create_connection(("127.0.0.1", service.port),
                                          timeout=10) as raw:
                raw.sendall(b"GET /healthz HTTP/1.1\r\n"
                            + b"X-Same: y\r\n" * header_lines + b"\r\n")
                reply = raw.makefile("rb").read()
            head, _blank, body = reply.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(body)

        limit = server_module.MAX_HEADER_LINES
        assert status_of(limit) == (200, health(client))
        status, document = status_of(limit + 1)
        assert (status, document["error"]["kind"]) == (400, "protocol_error")
        assert health(client)["ok"] is True

    def test_stop_with_an_idle_client_attached_returns_quietly(self, caplog):
        running = BackgroundService(port=0, fleet=1, cache=False).start()
        loop_thread = running._thread
        with socket.create_connection(("127.0.0.1", running.port),
                                      timeout=10) as idle:
            health(ServiceClient(port=running.port))  # idle is accepted
            with caplog.at_level(logging.DEBUG):
                running.stop()
            assert not loop_thread.is_alive()
            assert idle.recv(1) == b""
        assert "Traceback" not in caplog.text
        assert [record for record in caplog.records
                if record.levelno >= logging.ERROR] == []
