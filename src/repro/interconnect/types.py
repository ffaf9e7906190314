"""Transactions, bursts, messages and address ranges.

These are the protocol-neutral data carriers exchanged between initiators,
interconnect fabrics, bridges and targets.  Each fabric imposes its own
*timing* on them; the carriers themselves only hold payload description and
bookkeeping (timestamps, completion events) used by the statistics system.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.events import Event, _PENDING
from ..core.kernel import Simulator

_txn_ids = itertools.count(1)


class Opcode(enum.Enum):
    """Transaction direction.

    STBus opcodes additionally encode the size (LD4/LD8/.../ST32...); we keep
    the size in :attr:`Transaction.beats` x :attr:`Transaction.beat_bytes`
    and only distinguish direction, which is what the timing models need.
    """

    READ = "read"
    WRITE = "write"


class StbusType(enum.IntEnum):
    """STBus protocol types, in increasing order of capability.

    * ``T1`` — low cost, no split/pipelining.
    * ``T2`` — compound operations, source/priority labels, posted writes,
      full split and pipelined transaction support.
    * ``T3`` — adds shaped request/response packets and out-of-order support.
    """

    T1 = 1
    T2 = 2
    T3 = 3


@dataclass(frozen=True)
class AddressRange:
    """A decoded slave address window ``[base, base + size)``."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"address range size must be positive: {self.size}")
        if self.base < 0:
            raise ValueError(f"negative base address {self.base:#x}")

    @property
    def end(self) -> int:
        """First address past the window."""
        return self.base + self.size

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def __repr__(self) -> str:
        return f"AddressRange({self.base:#x}..{self.end:#x})"


@dataclass
class Transaction:
    """One bus transaction (a burst of ``beats`` data beats).

    A transaction is created by an initiator, routed by one or more fabrics
    (possibly crossing bridges, which re-issue a child transaction on the far
    side), served by a target, and completed back at the initiator.

    Timestamps are recorded by whoever performs the step; ``None`` means the
    step has not happened (yet).  All times are kernel picoseconds.
    """

    initiator: str
    opcode: Opcode
    address: int
    beats: int
    beat_bytes: int = 4
    priority: int = 0
    posted: bool = False
    #: Message grouping for STBus message-based arbitration: packets of the
    #: same message are kept together through arbitration rounds.
    message_id: Optional[int] = None
    message_last: bool = True
    tid: int = field(default_factory=lambda: next(_txn_ids))
    #: Free-form per-layer annotations (bridge routing, cache info, ...).
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Set when the transaction completed with a bus error (decode error,
    #: target fault).  The transaction still *completes* — error responses
    #: travel the same response path as data (STBus r_opc semantics).
    error: bool = False

    # -- timestamps (ps) ------------------------------------------------
    t_created: Optional[int] = None
    t_issued: Optional[int] = None
    t_granted: Optional[int] = None
    t_accepted: Optional[int] = None
    t_first_data: Optional[int] = None
    t_done: Optional[int] = None

    # -- completion plumbing --------------------------------------------
    ev_accepted: Optional[Event] = None
    ev_done: Optional[Event] = None

    # -- shape, derived once (nothing reassigns opcode, beats or width) --
    is_read: bool = field(init=False, repr=False, compare=False)
    is_write: bool = field(init=False, repr=False, compare=False)
    total_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.beats < 1:
            raise ValueError(f"burst must have >= 1 beat, got {self.beats}")
        if self.beat_bytes not in (1, 2, 4, 8, 16, 32):
            raise ValueError(f"unsupported beat width {self.beat_bytes} bytes")
        if self.address < 0:
            raise ValueError(f"negative address {self.address:#x}")
        self.is_read = self.opcode is Opcode.READ
        self.is_write = self.opcode is Opcode.WRITE
        self.total_bytes = self.beats * self.beat_bytes

    # ------------------------------------------------------------------
    @property
    def end_address(self) -> int:
        return self.address + self.total_bytes

    def bind(self, sim: Simulator) -> "Transaction":
        """Attach completion events and stamp creation time.

        Called exactly once, by the initiator-side port when the transaction
        enters the system.
        """
        if self.ev_done is not None:
            raise RuntimeError(f"transaction {self.tid} already bound")
        self.t_created = sim._now
        self.ev_accepted = Event(sim, name=f"txn{self.tid}.accepted")
        self.ev_done = Event(sim, name=f"txn{self.tid}.done")
        spans = sim._spans
        if spans is not None:
            spans.register(self)
        return self

    def mark_accepted(self, time_ps: int) -> None:
        """Record acceptance by the fabric/target and release the issuer."""
        if self.t_accepted is None:
            self.t_accepted = time_ps
        event = self.ev_accepted
        if event is not None and event._value is _PENDING:
            if event.sim.lt_enabled:
                event.succeed_inline(self)
            else:
                event.succeed(self)

    def complete(self, time_ps: int) -> None:
        """Record completion and wake whoever waits on ``ev_done``."""
        self.t_done = time_ps
        event = self.ev_done
        if event is not None and event._value is _PENDING:
            if event.sim.lt_enabled:
                event.succeed_inline(self)
            else:
                event.succeed(self)

    def complete_with_error(self, time_ps: int) -> None:
        """Complete the transaction as failed (bus error response)."""
        self.error = True
        self.complete(time_ps)

    @property
    def latency_ps(self) -> Optional[int]:
        """End-to-end latency, once complete."""
        if self.t_done is None or self.t_created is None:
            return None
        return self.t_done - self.t_created

    def child(self, **overrides: Any) -> "Transaction":
        """A derived transaction for re-issue on the far side of a bridge.

        The child shares payload description but gets fresh events and id;
        ``meta['parent']`` points back for statistics correlation.
        """
        fields = dict(
            initiator=self.initiator,
            opcode=self.opcode,
            address=self.address,
            beats=self.beats,
            beat_bytes=self.beat_bytes,
            priority=self.priority,
            posted=self.posted,
            message_id=self.message_id,
            message_last=self.message_last,
        )
        fields.update(overrides)
        kid = Transaction(**fields)
        kid.meta["parent"] = self
        return kid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Txn {self.tid} {self.opcode.value} {self.initiator} "
                f"@{self.address:#x} x{self.beats}b{self.beat_bytes}>")


@dataclass
class ResponseBeat:
    """One beat of response data travelling target -> initiator.

    Targets emit these into their response FIFOs as data becomes available;
    fabric response channels forward them, one bus cycle each.  For writes
    that need confirmation (non-posted), a single beat with ``index == -1``
    carries the write acknowledgement.  ``error`` marks an error response
    cell (the initiator's transaction completes failed).
    """

    txn: Transaction
    index: int
    is_last: bool
    error: bool = False

    @property
    def is_write_ack(self) -> bool:
        return self.index == -1
