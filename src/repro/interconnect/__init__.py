"""Interconnect fabric models and the declarative protocol registry.

One channel engine, :class:`GenericFabric`, elaborates any registered
:class:`ProtocolSpec`: Wishbone, APB, AXI4-Lite, Avalon-MM and
TileLink-UL are pure spec entries (see docs/PROTOCOLS.md); STBus nodes,
the STBus crossbar and AMBA AXI are subclasses that choose which
channels to instantiate.  AMBA AHB is a model of its own.
"""

from .arbiter import (
    Arbiter,
    FixedPriority,
    LeastRecentlyGranted,
    MessageArbiter,
    MessageLockStall,
    RoundRobin,
    WeightedLottery,
)
from .ahb import AhbLayer
from .axi import AxiFabric
from .base import Fabric, FabricError, InitiatorPort, TargetPort
from .crossbar import StbusCrossbar
from .generic import GenericFabric
from .protocols import (
    PROTOCOLS,
    ProtocolSpec,
    get_spec,
    platform_protocols,
    register_protocol,
    spec_for_fabric,
)
from .stbus import StbusNode
from .types import (
    AddressRange,
    Opcode,
    ResponseBeat,
    StbusType,
    Transaction,
)

__all__ = [
    "AddressRange",
    "AhbLayer",
    "Arbiter",
    "AxiFabric",
    "Fabric",
    "FabricError",
    "FixedPriority",
    "GenericFabric",
    "InitiatorPort",
    "LeastRecentlyGranted",
    "MessageArbiter",
    "MessageLockStall",
    "Opcode",
    "PROTOCOLS",
    "ProtocolSpec",
    "ResponseBeat",
    "RoundRobin",
    "StbusCrossbar",
    "StbusNode",
    "StbusType",
    "TargetPort",
    "Transaction",
    "WeightedLottery",
    "get_spec",
    "platform_protocols",
    "register_protocol",
    "spec_for_fabric",
]
