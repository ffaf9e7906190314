"""Wire-protocol tests for ``repro.service``: submission validation,
the typed error taxonomy, and the JSONL framing (docs/SERVICE.md)."""

import json

import pytest

from repro.platforms.loader import config_from_dict, config_to_dict
from repro.platforms.variants import quick_config
from repro.service import (
    LANES,
    NotReady,
    ProtocolError,
    QuotaExceeded,
    ServiceError,
    SubmissionError,
    UnknownJob,
    UnknownWorker,
    parse_submission,
)
from repro.service.protocol import decode_line, encode_line, error_from_document

CONFIG = config_to_dict(quick_config(traffic_scale=0.05))


def doc(**overrides):
    base = {"tenant": "alice", "config": CONFIG, "max_us": 10.0}
    base.update(overrides)
    return {key: value for key, value in base.items() if value is not None}


class TestParseSubmission:
    def test_single_config(self):
        sub = parse_submission(doc())
        assert sub.kind == "config"
        assert sub.tenant == "alice"
        assert sub.lane == "normal"
        assert len(sub.configs) == 1
        assert sub.max_ps == 10_000_000
        assert sub.labels == [sub.configs[0].label()]

    def test_sweep_expands_points(self):
        sub = parse_submission({
            "tenant": "bob",
            "sweep": {"base": CONFIG, "points": [
                {"label": "a", "traffic_scale": 0.05},
                {"label": "b", "traffic_scale": 0.1},
            ]},
        })
        assert sub.kind == "sweep"
        assert sub.labels == ["a", "b"]
        assert sub.configs[0].traffic_scale == 0.05
        assert sub.configs[1].traffic_scale == 0.1

    def test_submission_max_us_overrides_sweep(self):
        sub = parse_submission({
            "tenant": "bob", "max_us": 5.0,
            "sweep": {"base": CONFIG, "max_us": 50.0},
        })
        assert sub.max_ps == 5_000_000

    def test_not_an_object(self):
        with pytest.raises(SubmissionError, match="top level"):
            parse_submission([1, 2])

    def test_unknown_keys_refused(self):
        with pytest.raises(SubmissionError, match="unknown keys.*'sweeps'"):
            parse_submission(doc(sweeps={}))

    def test_tenant_required(self):
        bad = doc()
        del bad["tenant"]
        with pytest.raises(SubmissionError, match="tenant"):
            parse_submission(bad)
        with pytest.raises(SubmissionError, match="tenant"):
            parse_submission(doc(tenant=""))

    def test_priority_must_be_a_lane(self):
        for lane in LANES:
            assert parse_submission(doc(priority=lane)).lane == lane
        with pytest.raises(SubmissionError, match="'urgent' is not one of"):
            parse_submission(doc(priority="urgent"))

    def test_exactly_one_of_config_or_sweep(self):
        with pytest.raises(SubmissionError, match="exactly one"):
            parse_submission({"tenant": "a"})
        with pytest.raises(SubmissionError, match="exactly one"):
            parse_submission({"tenant": "a", "config": CONFIG,
                              "sweep": {"base": CONFIG}})

    def test_trace_and_preemption_mutually_exclusive(self):
        with pytest.raises(SubmissionError, match="mutually exclusive"):
            parse_submission(doc(trace=True, preemptible=True))
        with pytest.raises(SubmissionError, match="mutually exclusive"):
            parse_submission(doc(trace=True, checkpoint_at_us=1.0))

    def test_checkpoint_implies_preemptible(self):
        sub = parse_submission(doc(checkpoint_at_us=2.5))
        assert sub.preemptible is True
        assert sub.checkpoint_at_ps == 2_500_000

    def test_checkpoint_must_be_positive(self):
        with pytest.raises(SubmissionError, match="checkpoint_at_us"):
            parse_submission(doc(checkpoint_at_us=0))
        with pytest.raises(SubmissionError, match="checkpoint_at_us"):
            parse_submission(doc(checkpoint_at_us="soon"))

    def test_boolean_checkpoint_rejected(self):
        """JSON ``true`` does not force a preemption at 1 us."""
        with pytest.raises(SubmissionError, match="checkpoint_at_us"):
            parse_submission(doc(checkpoint_at_us=True))

    def test_max_us_must_be_positive(self):
        with pytest.raises(SubmissionError, match="max_us"):
            parse_submission(doc(max_us=-1))

    def test_boolean_max_us_rejected(self):
        with pytest.raises(SubmissionError, match="submission.max_us"):
            parse_submission(doc(max_us=True))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e303])
    def test_non_finite_max_us_is_a_bad_submission(self, value):
        """A bound whose picosecond count is not an integer is a 400
        ``bad_submission`` naming the field, not a 500."""
        with pytest.raises(SubmissionError, match="submission.max_us") as err:
            parse_submission(doc(max_us=value))
        assert err.value.http_status == 400

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e303])
    def test_non_finite_checkpoint_is_a_bad_submission(self, value):
        with pytest.raises(SubmissionError,
                           match="submission.checkpoint_at_us") as err:
            parse_submission(doc(checkpoint_at_us=value))
        assert err.value.http_status == 400

    def test_loader_error_passes_through_verbatim(self):
        """A malformed platform surfaces the exact local loader message."""
        bad = json.loads(json.dumps(CONFIG))
        bad["memory"]["kind"] = "bogus"
        with pytest.raises(ValueError) as local:  # bare, not ConfigError
            config_from_dict(bad)
        with pytest.raises(SubmissionError) as remote:
            parse_submission(doc(config=bad))
        assert str(remote.value) == str(local.value)

    def test_sweep_error_passes_through_verbatim(self):
        bad_sweep = {"base": CONFIG, "points": "nope"}
        with pytest.raises(SubmissionError, match="sweep.points"):
            parse_submission({"tenant": "a", "sweep": bad_sweep})


class TestErrorTaxonomy:
    CASES = [
        (ProtocolError("bad frame"), "protocol_error", 400),
        (SubmissionError("bad doc"), "bad_submission", 400),
        (QuotaExceeded("t", 3, 4, incoming=2), "quota_exceeded", 429),
        (UnknownJob("job-9"), "unknown_job", 404),
        (UnknownWorker("w9"), "unknown_worker", 404),
        (NotReady("trace pending"), "not_ready", 409),
        (ServiceError("boom"), "service_error", 500),
    ]

    def test_kinds_and_statuses(self):
        for error, kind, status in self.CASES:
            assert error.kind == kind
            assert error.http_status == status

    def test_round_trip_through_documents(self):
        """Client-side reconstruction preserves type and message."""
        for error, _kind, status in self.CASES:
            rebuilt = error_from_document(error.to_document())
            assert type(rebuilt) is type(error)
            assert str(rebuilt) == str(error)
            assert rebuilt.http_status == status

    def test_unknown_kind_degrades_to_base(self):
        rebuilt = error_from_document(
            {"error": {"kind": "mystery", "message": "?"}})
        assert type(rebuilt) is ServiceError

    def test_quota_message_names_the_numbers(self):
        error = QuotaExceeded("dave", 1, 2, incoming=4)
        text = str(error)
        assert "'dave'" in text
        assert "4 submitted" in text
        assert "quota of 2" in text


class TestFraming:
    def test_encode_decode_round_trip(self):
        line = encode_line({"op": "submit", "n": 1})
        assert line.endswith(b"\n")
        assert decode_line(line) == {"op": "submit", "n": 1}

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            decode_line(b"{nope\n")

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ProtocolError, match="objects"):
            decode_line(b"[1, 2]\n")
