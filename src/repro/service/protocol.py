"""Wire protocol for the simulation job service (``docs/SERVICE.md``).

Everything that crosses the service boundary is defined here: the
submission document schema, the typed error taxonomy (each error kind
maps to one HTTP status), the public JSON views of jobs and events, and
the newline-delimited JSON framing of the chunked event stream.

Validation routes through the *existing* platform loader — a submission
is either a single platform document (validated by
:func:`repro.platforms.loader.config_from_dict`) or a sweep document
(expanded by :func:`repro.sweep.parse_sweep`) — so a malformed
submission surfaces the exact :class:`~repro.platforms.loader.ConfigError`
message a local ``repro platform``/``repro sweep`` run would print.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..platforms.config import PlatformConfig
from ..platforms.loader import ConfigError, config_from_dict
from ..sweep import bound_ps, parse_sweep, us_to_ps

#: Bumped when the submission schema or the public job view changes
#: incompatibly; reported by ``GET /healthz``.
PROTOCOL_VERSION = 1

#: Priority lanes, highest first.  The scheduler always drains lower
#: ranks first; within a lane, submission order is preserved.
LANES: Tuple[str, ...] = ("interactive", "normal", "batch")

#: Job lifecycle states (terminal: done, failed).
JOB_STATES = ("queued", "running", "done", "failed")

#: Unit lifecycle states (terminal: done, failed).
UNIT_STATES = ("queued", "running", "preempted", "done", "failed")


def lane_rank(lane: str) -> int:
    """Numeric rank of a lane, 0 = most urgent."""
    return LANES.index(lane)


# ----------------------------------------------------------------------
# typed errors — each kind maps to one HTTP status
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base class for every error the service reports to a client."""

    kind = "service_error"
    http_status = 500

    def to_document(self) -> Dict[str, Any]:
        return {"error": {"kind": self.kind, "message": str(self)}}


class ProtocolError(ServiceError):
    """The request itself is malformed (framing, routing, non-JSON)."""

    kind = "protocol_error"
    http_status = 400


class SubmissionError(ServiceError):
    """The submission document failed validation.

    Wraps the loader's :class:`ConfigError` (or the schema check here)
    with the message preserved verbatim — the client sees exactly what a
    local run would print.
    """

    kind = "bad_submission"
    http_status = 400


class QuotaExceeded(ServiceError):
    """The tenant's in-flight unit quota is exhausted.

    A typed rejection, not a hang: the submission is refused immediately
    and the client can retry once earlier jobs finish.
    """

    kind = "quota_exceeded"
    http_status = 429

    def __init__(self, tenant: str, active: int, limit: int,
                 incoming: int = 0) -> None:
        super().__init__(
            f"tenant {tenant!r}: {incoming} submitted unit(s) plus "
            f"{active} already queued or running exceed the quota of "
            f"{limit} — retry after existing jobs finish")
        self.tenant = tenant
        self.active = active
        self.limit = limit
        self.incoming = incoming


class UnknownJob(ServiceError):
    """The referenced job id does not exist."""

    kind = "unknown_job"
    http_status = 404

    def __init__(self, job_id: str) -> None:
        super().__init__(f"no such job: {job_id!r}")
        self.job_id = job_id


class UnknownWorker(ServiceError):
    """The referenced worker name does not exist."""

    kind = "unknown_worker"
    http_status = 404

    def __init__(self, name: str) -> None:
        super().__init__(f"no such worker: {name!r}")
        self.name = name


class NotReady(ServiceError):
    """The requested artifact is not available (yet)."""

    kind = "not_ready"
    http_status = 409


def error_from_document(document: Dict[str, Any]) -> ServiceError:
    """Rebuild the typed error a response document carries."""
    payload = document.get("error")
    if not isinstance(payload, dict):  # a bare message, or nothing at all
        payload = {"message": str(payload)} if payload else {}
    kind = payload.get("kind", "service_error")
    message = payload.get("message", "unknown service error")
    for cls in (ProtocolError, SubmissionError, QuotaExceeded, UnknownJob,
                UnknownWorker, NotReady):
        if cls.kind == kind:
            error = cls.__new__(cls)
            RuntimeError.__init__(error, message)
            return error
    error = ServiceError.__new__(ServiceError)
    RuntimeError.__init__(error, message)
    return error


# ----------------------------------------------------------------------
# submissions
# ----------------------------------------------------------------------
_SUBMISSION_KEYS = frozenset({
    "tenant", "priority", "config", "sweep", "max_us", "trace",
    "preemptible", "checkpoint_at_us",
})


@dataclass
class Submission:
    """A validated job submission, ready for the queue.

    ``labels``/``configs`` are index-aligned: one entry per work unit
    (a single-config submission has exactly one).  ``checkpoint_at_us``
    arms a forced one-shot preemption at that simulated instant — the
    deterministic form of a drain, used to exercise migration.
    """

    tenant: str
    lane: str
    kind: str  # "config" | "sweep"
    labels: List[str]
    configs: List[PlatformConfig]
    max_ps: int
    trace: bool = False
    preemptible: bool = False
    checkpoint_at_ps: Optional[int] = None
    document: Dict[str, Any] = field(default_factory=dict)


def parse_submission(document: Any) -> Submission:
    """Validate a submission document into a :class:`Submission`.

    Schema::

        {
          "tenant": "alice",            # required, non-empty string
          "priority": "normal",         # optional, one of LANES
          "config": {...platform...},   # exactly one of config / sweep
          "sweep": {base/points/grid},  #
          "max_us": 20000.0,            # optional run bound (config jobs)
          "trace": false,               # capture a Perfetto trace
          "preemptible": false,         # allow drain-time checkpointing
          "checkpoint_at_us": null      # force one preemption at this
        }                               #   simulated instant (implies
                                        #   preemptible)

    Loader errors pass through verbatim as :class:`SubmissionError`.
    """
    if not isinstance(document, dict):
        raise SubmissionError("submission: top level must be an object")
    unknown = set(document) - _SUBMISSION_KEYS
    if unknown:
        raise SubmissionError(
            f"submission: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_SUBMISSION_KEYS)}")

    tenant = document.get("tenant")
    if not isinstance(tenant, str) or not tenant:
        raise SubmissionError("submission.tenant: must be a non-empty string")
    lane = document.get("priority", "normal")
    if lane not in LANES:
        raise SubmissionError(
            f"submission.priority: {lane!r} is not one of {list(LANES)}")

    has_config = "config" in document
    has_sweep = "sweep" in document
    if has_config == has_sweep:
        raise SubmissionError(
            "submission: exactly one of 'config' or 'sweep' is required")

    trace = document.get("trace", False)
    if not isinstance(trace, bool):
        raise SubmissionError("submission.trace: must be a boolean")
    preemptible = document.get("preemptible", False)
    if not isinstance(preemptible, bool):
        raise SubmissionError("submission.preemptible: must be a boolean")
    if trace and (preemptible or document.get("checkpoint_at_us")):
        # A resumed segment rebuilds its simulator inside the snapshot
        # layer, where a span recorder cannot be attached — the trace
        # would silently lose the pre-preemption prefix.
        raise SubmissionError(
            "submission: 'trace' and 'preemptible'/'checkpoint_at_us' "
            "are mutually exclusive")
    checkpoint_at_us = document.get("checkpoint_at_us")
    checkpoint_at_ps: Optional[int] = None
    try:
        if checkpoint_at_us is not None:
            checkpoint_at_ps = us_to_ps(checkpoint_at_us,
                                        "submission.checkpoint_at_us")
            preemptible = True
        max_ps = bound_ps(document, "submission")
        if has_config:
            if not isinstance(document["config"], dict):
                raise SubmissionError(
                    "submission.config: must be a platform object")
            config = config_from_dict(document["config"])
            labels = [config.label()]
            configs = [config]
            kind = "config"
        else:
            if not isinstance(document["sweep"], dict):
                raise SubmissionError(
                    "submission.sweep: must be a sweep object")
            spec = parse_sweep(document["sweep"])
            labels = spec.labels
            configs = spec.configs
            max_ps = spec.max_ps if "max_us" not in document else max_ps
            kind = "sweep"
    except ValueError as exc:
        # ConfigError subclasses ValueError, and config validation also
        # raises bare ValueError from dataclass __post_init__ checks.
        # Either way the message crosses the wire verbatim: the remote
        # client reads exactly what a local `repro platform`/`repro
        # sweep` would have printed.
        raise SubmissionError(str(exc)) from exc

    return Submission(tenant=tenant, lane=lane, kind=kind, labels=labels,
                      configs=configs, max_ps=max_ps, trace=trace,
                      preemptible=preemptible,
                      checkpoint_at_ps=checkpoint_at_ps,
                      document=dict(document))


# ----------------------------------------------------------------------
# newline-delimited JSON framing (the chunked event stream)
# ----------------------------------------------------------------------
def encode_line(document: Dict[str, Any]) -> bytes:
    """One protocol message as a newline-terminated JSON line."""
    return (json.dumps(document, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
