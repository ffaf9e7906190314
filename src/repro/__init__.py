"""repro — a cycle-accurate virtual platform for memory-centric MPSoCs.

Reproduction of Medardoni et al., "Capturing the interaction of the
communication, memory and I/O subsystems in memory-centric industrial MPSoC
platforms" (DATE 2007).

The package models a complete industrial MPSoC platform — STBus / AMBA AHB /
AMBA AXI interconnect layers, protocol bridges, configurable traffic
generators (IPTG), a VLIW DSP core with caches, an on-chip shared memory and
an LMI SDRAM memory controller with its optimisation engine — on top of a
deterministic discrete-event simulation kernel, together with the experiment
harness that regenerates every result figure of the paper.

See ``examples/quickstart.py`` for a complete runnable example and
``DESIGN.md`` for the system inventory.
"""

from .core import (
    Clock,
    Component,
    Event,
    Fifo,
    Semaphore,
    SimulationError,
    Simulator,
)
from .interconnect import (
    AddressRange,
    AhbLayer,
    AxiFabric,
    Opcode,
    StbusNode,
    StbusType,
    Transaction,
)
from .devices import DisplayController, DmaDescriptor, DmaEngine
from .memory import LmiConfig, LmiController, OnChipMemory

__version__ = "1.0.0"

__all__ = [
    "AddressRange",
    "AhbLayer",
    "AxiFabric",
    "Clock",
    "Component",
    "DisplayController",
    "DmaDescriptor",
    "DmaEngine",
    "Event",
    "Fifo",
    "LmiConfig",
    "LmiController",
    "OnChipMemory",
    "Opcode",
    "Semaphore",
    "SimulationError",
    "Simulator",
    "StbusNode",
    "StbusType",
    "Transaction",
    "__version__",
]
