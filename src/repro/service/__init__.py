"""``repro.service`` — simulation-as-a-service job scheduler.

The long-running form of the sweep engine (``docs/SERVICE.md``): an
asyncio job service whose listeners (a TCP port and, optionally, a Unix
socket, both speaking the same HTTP endpoints) accept config/sweep
submissions from many concurrent tenants, shard them
across a worker fleet, dedupe identical configurations through the
shared SHA-256 :class:`~repro.sweep.SweepCache`, stream progress events
and Perfetto traces back live, and preempt/migrate long runs through
verified :mod:`repro.snapshot` checkpoints.

Nothing in the simulator imports this package — ``import repro`` and
every experiment path stay service-free, so the service costs nothing
when unused (the CLI only imports it inside the ``serve``/``submit``/
``jobs`` handlers).

Quick start::

    repro serve --port 8458 --workers 4          # terminal 1
    repro submit examples/configs/quick_sweep.json \\
        --url http://127.0.0.1:8458 --tenant alice --wait   # terminal 2

(``--url unix:PATH`` reaches a service started with ``--socket PATH``.)
"""

from .client import ServiceClient, SocketClient
from .jobqueue import DEFAULT_QUOTA_UNITS, Job, JobQueue, Unit
from .protocol import (
    LANES,
    PROTOCOL_VERSION,
    NotReady,
    ProtocolError,
    QuotaExceeded,
    ServiceError,
    Submission,
    SubmissionError,
    UnknownJob,
    UnknownWorker,
    parse_submission,
)
from .scheduler import DEFAULT_SLICE_PS, Scheduler, Worker
from .server import (
    BackgroundService,
    ServiceConfig,
    ServiceServer,
)

__all__ = [
    "BackgroundService",
    "DEFAULT_QUOTA_UNITS",
    "DEFAULT_SLICE_PS",
    "Job",
    "JobQueue",
    "LANES",
    "NotReady",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QuotaExceeded",
    "Scheduler",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "SocketClient",
    "Submission",
    "SubmissionError",
    "Unit",
    "UnknownJob",
    "UnknownWorker",
    "Worker",
    "parse_submission",
]
