"""Canonical state capture: component tree -> JSON-safe, digestable value.

Everything a component returns from ``snapshot_state()`` passes through a
:class:`StateEncoder`, which normalises it into plain JSON types with two
hard guarantees:

* **Determinism** — the encoding of equal simulator states is byte-equal.
  Process-global allocation counters (transaction ``tid`` values, STBus
  message ids) are *not* reproducible across runs, so the encoder maps each
  one to a dense per-snapshot alias in first-encounter order; two runs in
  identical states therefore encode identically even though their absolute
  ids differ.
* **Serialisability** — live objects (events, callbacks, component
  back-references) never leak into the tree.  Transactions are flattened to
  their payload description plus timestamps; unknown objects are rejected
  loudly rather than encoded ambiguously.

The canonical JSON form (sorted keys, no whitespace) feeds
:func:`state_digest`, the SHA-256 content address of a snapshot.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, Dict, List, Optional

from ..interconnect.types import ResponseBeat, Transaction

#: JSON value type alias (kept loose: recursive aliases need 3.12+).
Json = Any


class StateEncodingError(TypeError):
    """A ``snapshot_state()`` returned something the encoder cannot
    canonicalise (a live object slipped into the tree)."""


class StateEncoder:
    """Normalises raw component state into canonical JSON values.

    One encoder instance spans one snapshot: the transaction-id and
    message-id alias maps it carries must see every component's state so
    cross-component references (the same in-flight transaction queued in a
    fabric and relayed by a bridge) alias consistently.
    """

    def __init__(self) -> None:
        self._tid_alias: Dict[int, int] = {}
        self._message_alias: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def tid_alias(self, tid: int) -> int:
        """Dense per-snapshot alias of a process-global transaction id."""
        alias = self._tid_alias.get(tid)
        if alias is None:
            alias = self._tid_alias[tid] = len(self._tid_alias)
        return alias

    def message_alias(self, message_id: Optional[int]) -> Optional[int]:
        """Dense per-snapshot alias of a process-global message id."""
        if message_id is None:
            return None
        alias = self._message_alias.get(message_id)
        if alias is None:
            alias = self._message_alias[message_id] = len(self._message_alias)
        return alias

    # ------------------------------------------------------------------
    def transaction(self, txn: Transaction) -> Dict[str, Json]:
        """Flatten one transaction to its canonical description."""
        return {
            "tid": self.tid_alias(txn.tid),
            "initiator": txn.initiator,
            "op": txn.opcode.value,
            "address": txn.address,
            "beats": txn.beats,
            "beat_bytes": txn.beat_bytes,
            "priority": txn.priority,
            "posted": txn.posted,
            "message": self.message_alias(txn.message_id),
            "message_last": txn.message_last,
            "error": txn.error,
            "t_created": txn.t_created,
            "t_issued": txn.t_issued,
            "t_granted": txn.t_granted,
            "t_accepted": txn.t_accepted,
            "t_first_data": txn.t_first_data,
            "t_done": txn.t_done,
        }

    def beat(self, beat: ResponseBeat) -> Dict[str, Json]:
        """Flatten one response beat."""
        return {
            "tid": self.tid_alias(beat.txn.tid),
            "index": beat.index,
            "is_last": beat.is_last,
            "error": beat.error,
        }

    def source_key(self, key: Any) -> Json:
        """Stable name for an arbitration source key (ports use their name)."""
        if key is None or isinstance(key, (str, int)):
            return key
        name = getattr(key, "name", None)
        if isinstance(name, str):
            return name
        raise StateEncodingError(
            f"arbitration key {key!r} has no stable name")

    def arbiter(self, arbiter: Any) -> Dict[str, Json]:
        """Canonical state of any arbitration policy (recursing wrappers)."""
        from .arbiters import arbiter_state

        return arbiter_state(arbiter, self)

    def encode(self, value: Any) -> Json:
        """Canonicalise an arbitrary state value (recursively)."""
        if value is None or isinstance(value, (bool, int, str)):
            return value
        if isinstance(value, float):
            # repr round-trips exactly; equality of encodings then means
            # bit-equality of the floats.
            return {"__float__": repr(value)}
        if isinstance(value, Transaction):
            return self.transaction(value)
        if isinstance(value, ResponseBeat):
            return self.beat(value)
        if isinstance(value, enum.Enum):
            return self.encode(value.value)
        if isinstance(value, dict):
            out: Dict[str, Json] = {}
            for key, item in value.items():
                if not isinstance(key, (str, int)):
                    raise StateEncodingError(
                        f"state dict key {key!r} is not str/int")
                out[str(key)] = self.encode(item)
            return out
        if isinstance(value, (list, tuple)):
            return [self.encode(item) for item in value]
        if isinstance(value, (set, frozenset)):
            encoded = [self.encode(item) for item in value]
            return sorted(encoded, key=canonical_json)
        raise StateEncodingError(
            f"cannot canonicalise {type(value).__name__} in snapshot state "
            f"({value!r})")

    def digest(self, value: Any) -> str:
        """SHA-256 of the canonical encoding of ``value`` (compact form for
        bulky-but-comparable state such as RNG streams or cache tag arrays)."""
        return hashlib.sha256(
            canonical_json(self.encode(value)).encode("utf-8")).hexdigest()


def canonical_json(value: Json) -> str:
    """The one true serialisation: sorted keys, no whitespace, no NaN."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def state_digest(tree: Json) -> str:
    """SHA-256 content address of an encoded state tree."""
    return hashlib.sha256(canonical_json(tree).encode("utf-8")).hexdigest()


def kernel_state(sim: Any, encoder: StateEncoder) -> Dict[str, Json]:
    """The kernel's own position: time, event count, pending-queue profile.

    Live events cannot be serialised (they hold callbacks into generator
    frames), but the *schedule profile* — how many events are pending at
    which relative offset and priority — is deterministic and meaningful:
    two runs in the same state have identical profiles.
    """
    now = sim.now
    profile: Dict[str, int] = {}
    for when, priority, _seq, _event in sim._queue:
        key = f"{when - now}@{priority}"
        profile[key] = profile.get(key, 0) + 1
    return {
        "now_ps": now,
        "processed_events": sim.processed_events,
        "pending_events": len(sim._queue),
        "pending_profile": profile,
    }


def capture_state(platform: Any) -> Dict[str, Json]:
    """Encoded state tree of a live platform (components + kernel).

    Components are visited depth-first in construction order — the same
    deterministic order elaboration produces — so alias assignment and the
    resulting digest are reproducible.  Components whose state is empty are
    omitted.
    """
    encoder = StateEncoder()
    components: Dict[str, Json] = {}
    for component in platform.iter_tree():
        raw = component.snapshot_state(encoder)
        if raw:
            components[component.path] = encoder.encode(raw)
    return {
        "kernel": kernel_state(platform.sim, encoder),
        "components": components,
    }


def diff_states(expected: Json, actual: Json) -> List[str]:
    """Human-readable paths where two encoded trees differ (for reports),
    the first 20 at most."""
    diffs: List[str] = []
    _walk_diff(expected, actual, "state", diffs, 20)
    return diffs


def _walk_diff(expected: Json, actual: Json, path: str,
               out: List[str], limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{path}.{key}: unexpected (only in resumed run)")
            elif key not in actual:
                out.append(f"{path}.{key}: missing from resumed run")
            else:
                _walk_diff(expected[key], actual[key], f"{path}.{key}",
                           out, limit)
            if len(out) >= limit:
                return
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} != {len(actual)}")
            return
        for index, (exp, act) in enumerate(zip(expected, actual)):
            _walk_diff(exp, act, f"{path}[{index}]", out, limit)
            if len(out) >= limit:
                return
        return
    if expected != actual:
        out.append(f"{path}: {expected!r} != {actual!r}")


__all__ = [
    "StateEncoder",
    "StateEncodingError",
    "canonical_json",
    "capture_state",
    "diff_states",
    "kernel_state",
    "state_digest",
]
