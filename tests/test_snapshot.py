"""Checkpoint/resume: bit-identity, persistence, and rejection paths.

The snapshot subsystem's contract (docs/ARCHITECTURE.md) is that resuming
a checkpoint is bit-identical to never having paused: same final time,
same processed-event count, same ``RunResult`` down to float bits.  The
property test drives that claim across the randomized platform space of
``repro.check.random_config`` — every fabric protocol, both topologies,
on-chip and LMI/SDRAM memory — and the persistence tests pin the on-disk
format's corruption and version-mismatch rejection behaviour.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import CheckedRun, random_config
from repro.core import Simulator
from repro.platforms import build_platform
from repro.platforms.variants import quick_config
from repro.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    SnapshotFormatError,
    StateEncoder,
    StateMismatch,
    capture_state,
    load_checkpoint,
    resume_checkpoint,
    run_with_checkpoints,
    save_checkpoint,
    state_digest,
    take_checkpoint,
)
from repro.snapshot.state import StateEncodingError, diff_states

MAX_PS = 20_000_000_000_000


def _race_save(barrier, seed_path, directory, rounds):
    """Subprocess body: publish one checkpoint into a shared directory
    over and over (module-level so it pickles under any start method)."""
    checkpoint = load_checkpoint(seed_path)
    barrier.wait(timeout=30)  # maximise overlap between the writers
    for _ in range(rounds):
        save_checkpoint(checkpoint, directory)


# ----------------------------------------------------------------------
# resume-vs-straight-through bit-identity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(seed=st.integers(0, 10_000))
    def test_resume_is_bit_identical(self, seed):
        """Checkpoint mid-run, resume, and match the recorded outcome."""
        outcome = take_checkpoint(random_config(seed))
        resumed = resume_checkpoint(outcome.checkpoint)
        assert resumed.ok, "\n".join(resumed.mismatches)
        assert resumed.final_time_ps == outcome.final_time_ps
        assert resumed.final_events == outcome.final_events
        assert resumed.result == outcome.result

    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_arbitrary_checkpoint_instant(self, fraction):
        """The instant is arbitrary: early, middle and late all round-trip."""
        outcome = take_checkpoint(random_config(42), fraction=fraction)
        resumed = resume_checkpoint(outcome.checkpoint)
        assert resumed.ok, "\n".join(resumed.mismatches)

    def test_resume_matches_checked_run(self):
        """The resumed run agrees with the CheckedRun differential pair."""
        config = random_config(7)
        differential = CheckedRun(config, max_ps=MAX_PS)
        assert differential.ok, differential.format()
        outcome = take_checkpoint(config)
        resumed = resume_checkpoint(outcome.checkpoint)
        assert resumed.ok, "\n".join(resumed.mismatches)
        assert resumed.final_events == differential.fast_events
        assert resumed.final_time_ps == differential.fast_now
        for fld in dataclasses.fields(type(differential.fast)):
            assert getattr(resumed.result, fld.name) == \
                getattr(differential.fast, fld.name)

    def test_quick_platform_round_trip(self):
        """A full reference platform (not just the fuzz space)."""
        outcome = take_checkpoint(quick_config())
        resumed = resume_checkpoint(outcome.checkpoint)
        assert resumed.ok, "\n".join(resumed.mismatches)


# ----------------------------------------------------------------------
# a state tree the re-elaborated platform does not reach
# ----------------------------------------------------------------------
def _bump_mem_reads(state):
    mem = state["components"]["platform.mem"]
    mem["reads"] += 1
    return (f"state.components.platform.mem.reads: "
            f"{mem['reads']} != {mem['reads'] - 1}")


def _bump_pending_profile(state):
    profile = state["kernel"]["pending_profile"]
    key = min(profile)
    profile[key] += 1
    return (f"state.kernel.pending_profile.{key}: "
            f"{profile[key]} != {profile[key] - 1}")


def _add_ghost_component(state):
    state["components"]["platform.ghost"] = {"reads": 0}
    return "state.components.platform.ghost: missing from resumed run"


class TestStateMismatch:
    """Every checkpoint here is tampered *and resealed* (state digest,
    then payload digest), so it loads cleanly and only the resume-time
    capture can object — with a diff naming what changed."""

    @pytest.fixture(scope="class")
    def document(self):
        outcome = take_checkpoint(quick_config(traffic_scale=0.05))
        return outcome.checkpoint.to_document()

    @pytest.mark.parametrize("tamper", [
        _bump_mem_reads, _bump_pending_profile, _add_ghost_component],
        ids=["component-value", "kernel-pending-profile",
             "component-absent"])
    def test_resume_names_the_divergence(self, document, tamper, tmp_path):
        from repro.snapshot.checkpoint import _payload_digest

        document = json.loads(json.dumps(document))
        expected = tamper(document["state"])
        document["state_digest"] = state_digest(document["state"])
        document["payload_digest"] = _payload_digest(document)
        path = tmp_path / "resealed.ckpt.json"
        path.write_text(json.dumps(document))
        with pytest.raises(StateMismatch, match="digest mismatch") as caught:
            resume_checkpoint(load_checkpoint(path))
        assert caught.value.diffs == [expected]


# ----------------------------------------------------------------------
# persistence: save/load, corruption, format versioning
# ----------------------------------------------------------------------
class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        outcome = take_checkpoint(random_config(11))
        path = save_checkpoint(outcome.checkpoint, tmp_path / "run.ckpt.json")
        loaded = load_checkpoint(path)
        assert loaded.state_digest == outcome.checkpoint.state_digest
        assert loaded.at_ps == outcome.checkpoint.at_ps
        resumed = resume_checkpoint(loaded)
        assert resumed.ok, "\n".join(resumed.mismatches)

    def test_directory_target_content_addresses(self, tmp_path):
        outcome = take_checkpoint(random_config(11))
        path = save_checkpoint(outcome.checkpoint, tmp_path / "ckpts")
        assert path.parent == tmp_path / "ckpts"
        assert path.name.startswith(outcome.checkpoint.state_digest[:16])

    def test_two_writers_of_one_checkpoint_never_fail_each_other(
            self, tmp_path):
        """Regression: every save staged in ``<name>.tmp``, one path
        shared by all writers of a content-addressed file, so one
        writer's rename pulled the temp file from under the other's
        (``SnapshotError: cannot write checkpoint ... [Errno 2]``).  The
        sweep cache's per-writer temp file now serves both."""
        import multiprocessing

        context = multiprocessing.get_context()
        outcome = take_checkpoint(quick_config(traffic_scale=0.05))
        seed = save_checkpoint(outcome.checkpoint, tmp_path / "seed.ckpt.json")
        shared = tmp_path / "shared"
        barrier = context.Barrier(2)
        writers = [context.Process(target=_race_save,
                                   args=(barrier, str(seed), str(shared), 300))
                   for _ in range(2)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]
        published = list(shared.iterdir())  # one file, no stray temp files
        assert [path.name for path in published] \
            == [f"{outcome.checkpoint.state_digest[:16]}.ckpt.json"]
        resumed = resume_checkpoint(load_checkpoint(published[0]))
        assert resumed.ok, "\n".join(resumed.mismatches)
        assert resumed.result == outcome.result

    def test_corrupted_payload_rejected(self, tmp_path):
        outcome = take_checkpoint(random_config(13))
        path = save_checkpoint(outcome.checkpoint, tmp_path / "run.ckpt.json")
        document = json.loads(path.read_text())
        document["at_ps"] += 1  # tamper without updating the digest
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_checkpoint(path)

    def test_corrupted_state_tree_rejected(self, tmp_path):
        outcome = take_checkpoint(random_config(13))
        path = save_checkpoint(outcome.checkpoint, tmp_path / "run.ckpt.json")
        document = json.loads(path.read_text())
        document["state"]["kernel"]["now_ps"] += 1
        # Re-seal the outer payload so only the state digest can object.
        from repro.snapshot.checkpoint import _payload_digest

        del document["payload_digest"]
        document["payload_digest"] = _payload_digest(document)
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="state digest"):
            load_checkpoint(path)

    def test_format_version_mismatch_rejected(self, tmp_path):
        outcome = take_checkpoint(random_config(17))
        path = save_checkpoint(outcome.checkpoint, tmp_path / "run.ckpt.json")
        document = json.loads(path.read_text())
        document["format"] = SNAPSHOT_FORMAT + 1
        path.write_text(json.dumps(document))
        # The version check fires before any digest check: an old reader
        # must say "wrong format", not "corrupt".
        with pytest.raises(SnapshotFormatError, match="format"):
            load_checkpoint(path)

    def test_pre_schema_change_checkpoint_rejected(self, tmp_path):
        # A checkpoint written before the config schema last changed
        # (format 1 still carried ``abstraction``) is refused with the
        # typed "regenerate it" error, not a loader KeyError.
        outcome = take_checkpoint(random_config(17))
        path = save_checkpoint(outcome.checkpoint, tmp_path / "run.ckpt.json")
        document = json.loads(path.read_text())
        document["format"] = SNAPSHOT_FORMAT - 1
        document["config"]["abstraction"] = "ca"
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotFormatError, match="regenerate"):
            load_checkpoint(path)

    def test_unreadable_and_malformed_files_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_checkpoint(tmp_path / "missing.ckpt.json")
        bad = tmp_path / "bad.ckpt.json"
        bad.write_text("{not json")
        with pytest.raises(SnapshotError, match="JSON"):
            load_checkpoint(bad)
        bad.write_text(json.dumps(["not", "an", "object"]))
        with pytest.raises(SnapshotError, match="object"):
            load_checkpoint(bad)


# ----------------------------------------------------------------------
# periodic checkpointing (the CLI --checkpoint-every path)
# ----------------------------------------------------------------------
class TestRunWithCheckpoints:
    def test_interval_files_resume_bit_identically(self, tmp_path):
        config = random_config(23)
        # Learn the run length, then checkpoint at ~1/4 intervals.
        probe = take_checkpoint(config)
        every = max(1, probe.final_time_ps // 4)
        result, paths = run_with_checkpoints(config, every_ps=every,
                                             out_dir=tmp_path,
                                             max_ps=MAX_PS)
        assert result == probe.result
        assert paths, "expected at least one interval checkpoint"
        for path in paths:
            resumed = resume_checkpoint(load_checkpoint(path))
            assert resumed.result == result
            assert resumed.final_time_ps == probe.final_time_ps

    def test_rejects_non_positive_interval(self, tmp_path):
        with pytest.raises(ValueError):
            run_with_checkpoints(random_config(1), every_ps=0,
                                 out_dir=tmp_path)


# ----------------------------------------------------------------------
# the state encoder
# ----------------------------------------------------------------------
class TestStateEncoder:
    def test_floats_encode_bit_exactly(self):
        encoder = StateEncoder()
        assert encoder.encode(0.1) == {"__float__": repr(0.1)}
        assert state_digest(encoder.encode(0.1)) != \
            state_digest(encoder.encode(0.1 + 2**-55))

    def test_rejects_unknown_objects(self):
        encoder = StateEncoder()
        with pytest.raises(StateEncodingError):
            encoder.encode(object())

    def test_capture_is_stable_at_an_instant(self):
        """Two captures of the same paused platform are identical."""
        config = quick_config()
        sim = Simulator()
        platform = build_platform(sim, config)
        platform.prepare()
        sim.run(until=1_000_000)
        first = capture_state(platform)
        second = capture_state(platform)
        assert first == second
        assert state_digest(first) == state_digest(second)

    def test_diff_states_reports_the_first_20_paths(self):
        expected = {f"k{i:02d}": i for i in range(25)}
        actual = {key: value + 1 for key, value in expected.items()}
        diffs = diff_states(expected, actual)
        assert len(diffs) == 20
        assert diffs[0] == "state.k00: 0 != 1"
        assert diffs[-1] == "state.k19: 19 != 20"

    def test_diff_states_pinpoints_changes(self):
        diffs = diff_states({"a": 1, "b": {"c": 2}},
                            {"a": 1, "b": {"c": 3}})
        assert diffs and "b.c" in diffs[0]
