"""Arbitration policies.

"The resource sharing mechanism of the communication architecture is the
focus of many works" — the paper's related-work section lists priority-based
policies, TDMA, token passing and lottery-style bandwidth allocation, and the
platform itself uses *message-based* arbitration in STBus nodes ("packets are
grouped in messages and arbitration rounds in the nodes occur at the message
granularity") to generate memory-controller-friendly traffic.

All arbiters share one tiny interface: :meth:`Arbiter.select` receives the
list of current candidates as ``(source_key, transaction)`` pairs and returns
the winning pair.  Arbiters may keep state (round-robin pointers, message
locks) that is updated by the call itself.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from .types import Transaction

#: A request candidate: (source key, transaction at the head of its queue).
Candidate = Tuple[object, Transaction]


class Arbiter:
    """Base class; subclasses implement :meth:`select`."""

    def select(self, candidates: Sequence[Candidate]) -> Candidate:
        raise NotImplementedError

    def _require(self, candidates: Sequence[Candidate]) -> None:
        if not candidates:
            raise ValueError("arbitration requested with no candidates")


class FixedPriority(Arbiter):
    """Grant the candidate with the highest transaction priority.

    Ties break on the order sources were connected (their key order in the
    candidate list), which models hard-wired priority inputs.
    """

    def select(self, candidates: Sequence[Candidate]) -> Candidate:
        self._require(candidates)
        best = candidates[0]
        for candidate in candidates[1:]:
            if candidate[1].priority > best[1].priority:
                best = candidate
        return best


class RoundRobin(Arbiter):
    """Classic rotating-priority arbiter.

    The source granted last becomes the lowest priority for the next round.
    Sources are tracked by key, so the arbiter tolerates sources appearing
    and disappearing between rounds.
    """

    def __init__(self) -> None:
        self._order: List[object] = []

    def select(self, candidates: Sequence[Candidate]) -> Candidate:
        # One frame: every request channel calls this per grant.
        if not candidates:
            raise ValueError("arbitration requested with no candidates")
        order = self._order
        by_key: Dict[object, Candidate] = {}
        for candidate in candidates:
            key = candidate[0]
            if key not in order:
                order.append(key)
            by_key[key] = candidate
        for key in order:
            if key in by_key:
                order.remove(key)
                order.append(key)
                return by_key[key]
        # Unreachable: every candidate key was added to _order above.
        raise AssertionError("round-robin bookkeeping out of sync")


class LeastRecentlyGranted(Arbiter):
    """Grant the source that has waited longest since its last grant."""

    def __init__(self) -> None:
        self._last_grant: Dict[object, int] = {}
        self._tick = 0

    def select(self, candidates: Sequence[Candidate]) -> Candidate:
        self._require(candidates)
        winner = min(candidates,
                     key=lambda cand: self._last_grant.get(cand[0], -1))
        self._tick += 1
        self._last_grant[winner[0]] = self._tick
        return winner


class WeightedLottery(Arbiter):
    """Lottery-style probabilistic bandwidth allocation (LOTTERYBUS [1]).

    Each source holds a configurable number of tickets; a seeded RNG makes
    runs reproducible.  Unknown sources get ``default_tickets``.
    """

    def __init__(self, tickets: Optional[Dict[object, int]] = None,
                 default_tickets: int = 1, seed: int = 1) -> None:
        if default_tickets < 1:
            raise ValueError("default_tickets must be >= 1")
        self.tickets = dict(tickets or {})
        self.default_tickets = default_tickets
        self._rng = random.Random(seed)

    def select(self, candidates: Sequence[Candidate]) -> Candidate:
        self._require(candidates)
        weights = [max(1, self.tickets.get(key, self.default_tickets))
                   for key, _txn in candidates]
        total = sum(weights)
        draw = self._rng.randrange(total)
        for candidate, weight in zip(candidates, weights):
            draw -= weight
            if draw < 0:
                return candidate
        return candidates[-1]  # pragma: no cover - float-free, unreachable


class MessageArbiter(Arbiter):
    """Message-granularity wrapper around any inner policy.

    Once a source wins with a packet that belongs to a multi-packet message
    (``message_id`` set, ``message_last`` clear), the arbiter stays *locked*
    to that source until the message's final packet has been granted.  This
    keeps optimisable access sequences together all the way to the memory
    controller, exactly as the platform's STBus nodes do.

    If the locked source temporarily has nothing to offer, the lock holds and
    other candidates wait (the node idles), which is the conservative
    interpretation of message atomicity; :attr:`release_when_absent` relaxes
    this for ablation studies.
    """

    def __init__(self, inner: Optional[Arbiter] = None,
                 release_when_absent: bool = False) -> None:
        self.inner = inner if inner is not None else RoundRobin()
        self.release_when_absent = release_when_absent
        self._locked_key: Optional[object] = None
        self._locked_message: Optional[int] = None

    def break_lock(self) -> None:
        """Forcibly release the message lock.

        Real nodes bound how long a message may hold the bus; fabrics call
        this after a configurable number of stalled arbitration rounds so a
        delayed packet can never wedge the node.
        """
        self._locked_key = None
        self._locked_message = None

    def select(self, candidates: Sequence[Candidate]) -> Candidate:
        self._require(candidates)
        if self._locked_key is not None:
            for candidate in candidates:
                key, txn = candidate
                if key == self._locked_key and txn.message_id == self._locked_message:
                    self._update_lock(candidate)
                    return candidate
            if not self.release_when_absent:
                # Nothing from the locked source: report "no grant" by raising
                # a dedicated signal the caller turns into an idle cycle.
                raise MessageLockStall(self._locked_key)
            self._locked_key = None
            self._locked_message = None
        winner = self.inner.select(candidates)
        self._update_lock(winner)
        return winner

    def _update_lock(self, winner: Candidate) -> None:
        _key, txn = winner
        if txn.message_id is not None and not txn.message_last:
            self._locked_key = winner[0]
            self._locked_message = txn.message_id
        else:
            self._locked_key = None
            self._locked_message = None


class MessageLockStall(Exception):
    """Raised by :class:`MessageArbiter` when the locked source is absent.

    Fabric request-channel processes catch this and idle for a cycle.
    """

    def __init__(self, locked_key: object) -> None:
        super().__init__(f"message lock held by {locked_key!r}")
        self.locked_key = locked_key
