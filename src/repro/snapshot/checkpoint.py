"""Versioned, content-addressed checkpoints with verified resume.

A checkpoint records one platform run at a chosen simulation instant:
the configuration document, the kernel position, and the canonical
component state tree from :func:`~repro.snapshot.state.capture_state`.
Python cannot serialise live generator frames, so resume is *deterministic
re-execution*: re-elaborate the configuration on a fresh kernel,
fast-forward to the checkpoint instant, then capture the state tree once
and compare its digest with the stored one — a mismatch names the
diverged kernel or component paths — before letting the run continue.
Continuing a paused run is bit-identical to an uninterrupted one (a
kernel guarantee pinned by ``tests/test_kernel.py``), so a verified
resume point makes the whole continuation trustworthy.

On-disk format (``*.ckpt.json``)::

    {
      "format": 2,                  # SNAPSHOT_FORMAT, checked on load
      "generator": "repro.snapshot",
      "config": {...},              # platform document (config_to_dict)
      "max_ps": 20000000000000,     # run bound the checkpoint was taken under
      "at_ps": 123456,              # checkpoint instant
      "events": 4242,               # events processed up to at_ps
      "state": {"kernel": ..., "components": {...}},
      "state_digest": "sha256...",  # content address of "state"
      "expect": {                   # optional: recorded final outcome
        "final_time_ps": ..., "final_events": ...,
        "result": {...}, "result_digest": "sha256..."
      },
      "payload_digest": "sha256..." # over everything above; detects corruption
    }

Files are content-addressed (``<state_digest[:16]>.ckpt.json`` when saved
into a directory) and written atomically.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..platforms.config import PlatformConfig
from ..platforms.loader import config_from_dict, config_to_dict
from ..platforms.result import RunResult
from ..sweep import DEFAULT_MAX_PS, Run, publish_atomically, result_to_dict
from .state import (
    StateEncoder,
    canonical_json,
    capture_state,
    diff_states,
    state_digest,
)

#: Bumped whenever the checkpoint document schema, the configuration
#: schema it embeds or the state-tree encoding changes; old files then
#: fail with :class:`SnapshotFormatError`.
SNAPSHOT_FORMAT = 2

_GENERATOR = "repro.snapshot"


class SnapshotError(RuntimeError):
    """A checkpoint could not be read, written, or trusted."""


class SnapshotFormatError(SnapshotError):
    """The checkpoint file's format version does not match this code."""


class StateMismatch(SnapshotError):
    """A resumed run diverged from the stored checkpoint state."""

    def __init__(self, message: str,
                 diffs: Optional[List[str]] = None) -> None:
        self.diffs: List[str] = list(diffs or [])
        if self.diffs:
            message = message + "\n  " + "\n  ".join(self.diffs)
        super().__init__(message)


# ----------------------------------------------------------------------
# the checkpoint value object and its document form
# ----------------------------------------------------------------------
@dataclass
class Checkpoint:
    """One platform run frozen at a simulation instant."""

    config: Dict[str, Any]
    max_ps: int
    at_ps: int
    events: int
    state: Dict[str, Any]
    state_digest: str
    expect: Optional[Dict[str, Any]] = None
    generator: str = _GENERATOR
    format: int = SNAPSHOT_FORMAT

    def platform_config(self) -> PlatformConfig:
        """The configuration this checkpoint was taken from."""
        return config_from_dict(self.config)

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "format": self.format,
            "generator": self.generator,
            "config": self.config,
            "max_ps": self.max_ps,
            "at_ps": self.at_ps,
            "events": self.events,
            "state": self.state,
            "state_digest": self.state_digest,
        }
        if self.expect is not None:
            document["expect"] = self.expect
        document["payload_digest"] = _payload_digest(document)
        return document

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "Checkpoint":
        try:
            return cls(
                config=document["config"],
                max_ps=int(document["max_ps"]),
                at_ps=int(document["at_ps"]),
                events=int(document["events"]),
                state=document["state"],
                state_digest=document["state_digest"],
                expect=document.get("expect"),
                generator=document.get("generator", _GENERATOR),
                format=int(document["format"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed checkpoint document: {exc}") \
                from exc


def _payload_digest(document: Dict[str, Any]) -> str:
    """Digest of the document minus the digest field itself."""
    payload = {key: value for key, value in document.items()
               if key != "payload_digest"}
    return state_digest(payload)


def result_digest(result: RunResult) -> str:
    """Content address of a :class:`RunResult` (floats bit-exact)."""
    encoder = StateEncoder()
    return state_digest(encoder.encode(dataclasses.asdict(result)))


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def save_checkpoint(checkpoint: Checkpoint,
                    target: Union[str, Path]) -> Path:
    """Write a checkpoint atomically; returns the path written.

    ``target`` may be a directory (an existing one, or any path without a
    ``.json`` suffix), in which case the file is content-addressed as
    ``<state_digest[:16]>.ckpt.json`` inside it.
    """
    target = Path(target)
    if target.suffix != ".json" or target.is_dir():
        target = target / f"{checkpoint.state_digest[:16]}.ckpt.json"
    text = json.dumps(checkpoint.to_document(), sort_keys=True, indent=1)
    try:
        publish_atomically(target, text + "\n")
    except OSError as exc:
        raise SnapshotError(f"cannot write checkpoint {target}: {exc}") \
            from exc
    return target


def load_checkpoint(path: Union[str, Path]) -> Checkpoint:
    """Read and validate a checkpoint file.

    Raises :class:`SnapshotFormatError` on a format-version mismatch and
    :class:`SnapshotError` on unreadable, truncated, or tampered files
    (the stored payload digest must match the recomputed one).
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise SnapshotError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"checkpoint {path} is not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise SnapshotError(f"checkpoint {path}: top level must be an object")
    version = document.get("format")
    if version != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(
            f"checkpoint {path} has format {version!r}; this build reads "
            f"format {SNAPSHOT_FORMAT} — regenerate it with "
            f"`repro snapshot --refresh-golden` or retake the checkpoint")
    stored = document.get("payload_digest")
    actual = _payload_digest(document)
    if stored != actual:
        raise SnapshotError(
            f"checkpoint {path} is corrupt: payload digest mismatch "
            f"(stored {str(stored)[:16]}..., recomputed {actual[:16]}...)")
    checkpoint = Checkpoint.from_document(document)
    if state_digest(checkpoint.state) != checkpoint.state_digest:
        raise SnapshotError(
            f"checkpoint {path} is corrupt: state digest mismatch")
    return checkpoint


# ----------------------------------------------------------------------
# taking checkpoints
# ----------------------------------------------------------------------
@dataclass
class TakeOutcome:
    """A freshly taken checkpoint plus the run it was carved out of."""

    checkpoint: Checkpoint
    result: RunResult
    final_time_ps: int
    final_events: int


def checkpoint_here(run: Run) -> Checkpoint:
    """Capture a paused run's current instant as a checkpoint (no expect)."""
    if run.max_ps is None:
        raise ValueError("an unbounded run cannot be checkpointed")
    state = capture_state(run.platform)
    return Checkpoint(
        config=config_to_dict(run.config),
        max_ps=int(run.max_ps),
        at_ps=run.sim.now,
        events=run.sim.processed_events,
        state=state,
        state_digest=state_digest(state),
    )


def take_checkpoint(config: PlatformConfig,
                    at_ps: Optional[int] = None,
                    fraction: float = 0.5,
                    max_ps: int = DEFAULT_MAX_PS) -> TakeOutcome:
    """Run ``config``, pausing at ``at_ps`` to capture a checkpoint.

    With ``at_ps=None`` the instant is chosen as ``fraction`` of the
    run's execution time, which costs one extra probe run to learn it.
    The run then continues to completion and its final outcome is
    recorded in the checkpoint's ``expect`` block, so a later resume can
    verify not just the mid-run state but the finished result.
    """
    if at_ps is None:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        probe = Run(config, max_ps).finish().result
        at_ps = max(1, int(probe.execution_time_ps * fraction))
    if at_ps <= 0:
        raise ValueError(f"at_ps must be positive, got {at_ps}")

    run = Run(config, max_ps)
    if not run.advance(at_ps):
        raise SnapshotError(
            f"run finished at {run.finish().sim_time_ps} ps, before the "
            f"requested {at_ps} ps")
    checkpoint = checkpoint_here(run)
    done = run.finish()
    checkpoint.expect = {
        "final_time_ps": done.sim_time_ps,
        "final_events": done.events,
        "result": result_to_dict(done.result),
        "result_digest": result_digest(done.result),
    }
    return TakeOutcome(checkpoint=checkpoint, result=done.result,
                       final_time_ps=done.sim_time_ps,
                       final_events=done.events)


def run_with_checkpoints(config: PlatformConfig,
                         every_ps: int,
                         out_dir: Union[str, Path],
                         max_ps: int = DEFAULT_MAX_PS
                         ) -> Tuple[RunResult, List[Path]]:
    """Run to completion, saving a checkpoint every ``every_ps``.

    Backs the CLI ``--checkpoint-every`` flag for long runs.  Checkpoints
    are written as soon as each interval is reached (so a killed run
    leaves usable resume points behind); they therefore carry no
    ``expect`` block — resume still verifies the full state tree.
    Checkpointing stops once the platform's traffic has finished.
    """
    if every_ps <= 0:
        raise ValueError(f"every_ps must be positive, got {every_ps}")
    run = Run(config, max_ps)
    paths: List[Path] = []
    for next_at in range(every_ps, max_ps, every_ps):
        if not run.advance(next_at):
            break
        paths.append(save_checkpoint(checkpoint_here(run), out_dir))
    return run.finish().result, paths


# ----------------------------------------------------------------------
# resuming checkpoints
# ----------------------------------------------------------------------
@dataclass
class ResumeOutcome:
    """Outcome of resuming a checkpoint to completion."""

    checkpoint: Checkpoint
    result: RunResult
    final_time_ps: int
    final_events: int
    resumed_state_digest: str
    #: Divergences from the checkpoint's ``expect`` block (empty when the
    #: resumed run finished bit-identically to the recorded one).
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def format(self) -> str:
        lines = [f"resume @{self.checkpoint.at_ps}ps -> "
                 f"{self.final_events} events, now={self.final_time_ps}ps"]
        if self.mismatches:
            lines.append("resumed run diverged from the recorded outcome:")
            lines.extend(f"  {m}" for m in self.mismatches)
        else:
            lines.append("resumed run matches the recorded outcome "
                         "bit for bit")
        return "\n".join(lines)


def resume_checkpoint(checkpoint: Checkpoint) -> ResumeOutcome:
    """Resume a checkpoint and run it to completion.

    Re-elaborates the stored configuration on a fresh kernel,
    fast-forwards deterministically to the checkpoint instant and
    captures the state tree once: if its digest differs from the stored
    one, :class:`StateMismatch` names the diverged paths (kernel
    position or component).  Then the run continues; the returned
    outcome reports any divergence from the checkpoint's recorded final
    result.
    """
    run = Run(checkpoint.platform_config(), checkpoint.max_ps)
    run.advance(checkpoint.at_ps)

    actual = capture_state(run.platform)
    digest = state_digest(actual)
    if digest != checkpoint.state_digest:
        raise StateMismatch(
            f"state tree digest mismatch at the checkpoint instant "
            f"(stored {checkpoint.state_digest[:16]}..., "
            f"resumed {digest[:16]}...)",
            diff_states(checkpoint.state, actual))

    done = run.finish()
    result = done.result

    mismatches: List[str] = []
    expect = checkpoint.expect
    if expect is not None:
        if done.sim_time_ps != expect.get("final_time_ps"):
            mismatches.append(f"final time: resumed={done.sim_time_ps}ps "
                              f"recorded={expect.get('final_time_ps')}ps")
        if done.events != expect.get("final_events"):
            mismatches.append(
                f"processed events: resumed={done.events} "
                f"recorded={expect.get('final_events')}")
        digest_now = result_digest(result)
        if digest_now != expect.get("result_digest"):
            mismatches.append(
                f"result digest: resumed={digest_now[:16]}... "
                f"recorded={str(expect.get('result_digest'))[:16]}...")
            recorded = expect.get("result")
            if isinstance(recorded, dict):
                for fld in dataclasses.fields(RunResult):
                    now_value = getattr(result, fld.name)
                    then_value = recorded.get(fld.name)
                    if _jsonish(now_value) != _jsonish(then_value):
                        mismatches.append(
                            f"RunResult.{fld.name}: resumed={now_value!r} "
                            f"recorded={then_value!r}")

    return ResumeOutcome(
        checkpoint=checkpoint,
        result=result,
        final_time_ps=done.sim_time_ps,
        final_events=done.events,
        resumed_state_digest=digest,
        mismatches=mismatches,
    )


def _jsonish(value: Any) -> str:
    """Comparable canonical form for result fields round-tripped via JSON."""
    encoder = StateEncoder()
    return canonical_json(encoder.encode(value))


__all__ = [
    "SNAPSHOT_FORMAT",
    "Checkpoint",
    "ResumeOutcome",
    "SnapshotError",
    "SnapshotFormatError",
    "StateMismatch",
    "TakeOutcome",
    "checkpoint_here",
    "load_checkpoint",
    "resume_checkpoint",
    "result_digest",
    "run_with_checkpoints",
    "save_checkpoint",
    "take_checkpoint",
]
