"""Deterministic checkpoint/resume subsystem (see ``docs/ARCHITECTURE.md``).

A :class:`Checkpoint` captures one platform run at a chosen simulation
instant: the configuration document, the kernel position (time and
processed-event count, plus the pending-event profile of the queue) and a
canonical per-component state tree gathered through the
``Component.snapshot_state()`` protocol — FIFO contents, in-flight
transactions, arbiter pointers, bridge relay jobs, SDRAM bank/timing state,
RNG streams, cache tags.  The tree is content-addressed (SHA-256 over its
canonical JSON), versioned and stored on disk.

Resume re-elaborates the configuration on a fresh kernel, deterministically
fast-forwards to the checkpoint instant and then captures the state tree
once, verifying it bit for bit (by digest) against the stored tree before
the run continues.  Python cannot serialise
live generator frames, so this is the classic "checkpoint + deterministic
re-execution" scheme (gem5-style): what the checkpoint buys is not
wall-clock savings on the prefix but a *verified* resume point — any
divergence between the simulator that wrote the checkpoint and the one
resuming it is caught at the checkpoint instant instead of corrupting the
continued run silently.

The committed golden regression corpus (``tests/golden/``) is built from
these checkpoints: CI replays every entry and compares both the mid-run
state digest and the final :class:`~repro.platforms.result.RunResult`
digest bit for bit (see ``docs/CI.md``).
"""

from .state import (
    StateEncoder,
    capture_state,
    diff_states,
    state_digest,
)
from .checkpoint import (
    SNAPSHOT_FORMAT,
    Checkpoint,
    ResumeOutcome,
    SnapshotError,
    SnapshotFormatError,
    StateMismatch,
    TakeOutcome,
    checkpoint_here,
    load_checkpoint,
    resume_checkpoint,
    result_digest,
    run_with_checkpoints,
    save_checkpoint,
    take_checkpoint,
)
from .golden import (
    corpus_summary,
    golden_configs,
    golden_dir,
    golden_entries,
    refresh_golden,
    verify_golden,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "Checkpoint",
    "ResumeOutcome",
    "SnapshotError",
    "SnapshotFormatError",
    "StateEncoder",
    "StateMismatch",
    "TakeOutcome",
    "capture_state",
    "checkpoint_here",
    "corpus_summary",
    "diff_states",
    "golden_configs",
    "golden_dir",
    "golden_entries",
    "load_checkpoint",
    "refresh_golden",
    "resume_checkpoint",
    "result_digest",
    "run_with_checkpoints",
    "save_checkpoint",
    "state_digest",
    "take_checkpoint",
    "verify_golden",
]
