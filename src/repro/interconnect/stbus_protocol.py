"""STBus packet/opcode level protocol details.

The behavioural node model in :mod:`repro.interconnect.stbus` times
*transactions*; this module captures the layer below — the operation
encoding and request/response packet composition the STBus specification
defines — and the node derives its channel occupancies from it, so the
cycle counts used throughout the platform are grounded in actual packet
structure rather than ad-hoc constants.

STBus operations are sized loads/stores (LD1...LD64 / ST1...ST64, the
size in bytes).  A *request packet* is a sequence of cells on the request
channel: loads need a single address/opcode cell regardless of size;
stores carry their data, one cell per bus-width chunk.  A *response
packet* carries one data cell per bus-width chunk for loads and a single
acknowledge cell for (non-posted) stores.  Type 3 additionally allows
*shaped* packets — per-cell byte enables so a packet touches only the
lanes it needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from .types import Transaction

#: Operation sizes (bytes) the STBus opcode repertoire encodes.
VALID_SIZES = (1, 2, 4, 8, 16, 32, 64)


class StbusOpcode(enum.Enum):
    """The sized load/store opcode repertoire."""

    LD1 = ("load", 1)
    LD2 = ("load", 2)
    LD4 = ("load", 4)
    LD8 = ("load", 8)
    LD16 = ("load", 16)
    LD32 = ("load", 32)
    LD64 = ("load", 64)
    ST1 = ("store", 1)
    ST2 = ("store", 2)
    ST4 = ("store", 4)
    ST8 = ("store", 8)
    ST16 = ("store", 16)
    ST32 = ("store", 32)
    ST64 = ("store", 64)

    @property
    def is_load(self) -> bool:
        return self.value[0] == "load"

    @classmethod
    def encode(cls, is_load: bool, size_bytes: int) -> "StbusOpcode":
        """The opcode for one operation of ``size_bytes``."""
        if size_bytes not in VALID_SIZES:
            raise ValueError(
                f"no STBus opcode for size {size_bytes}; "
                f"valid sizes: {VALID_SIZES}")
        prefix = "LD" if is_load else "ST"
        return cls[f"{prefix}{size_bytes}"]


@dataclass(frozen=True)
class RequestPacket:
    """The request-channel footprint of one transaction."""

    opcode: StbusOpcode
    address: int
    #: Cells on the request channel (1 for loads; data cells for stores).
    cells: int
    #: Source label (Type >= 2): lets targets route responses back.
    source: str = ""
    #: Priority label (Type >= 2).
    priority: int = 0
    #: Shaped packet (Type 3): byte enables restrict active lanes.
    shaped: bool = False

    def __post_init__(self) -> None:
        if self.cells < 1:
            raise ValueError("a packet has at least one cell")


def _chunks(total_bytes: int, bus_width_bytes: int) -> int:
    return max(1, -(-total_bytes // bus_width_bytes))


def request_packet(txn: Transaction, bus_width_bytes: int,
                   shaped: bool = False) -> RequestPacket:
    """Compose the request packet of ``txn`` on a bus of the given width."""
    opcode = StbusOpcode.encode(txn.is_read, txn.beat_bytes)
    if txn.is_read:
        cells = 1  # a single opcode/address cell requests the whole burst
    else:
        cells = _chunks(txn.total_bytes, bus_width_bytes)
    return RequestPacket(opcode=opcode, address=txn.address, cells=cells,
                         source=txn.initiator, priority=txn.priority,
                         shaped=shaped)
