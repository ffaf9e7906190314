"""Simulation core: kernel, events, clocks, FIFOs, statistics.

This package is the substrate every platform model is built on — the Python
equivalent of the SystemC backbone the paper's virtual platform uses.
"""

from .clock import Clock
from .component import Component
from .events import (
    AllOf,
    Event,
    EventError,
    Process,
    Timeout,
    completed_event,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
)
from .fifo import Fifo
from .kernel import MS, NS, US, SimulationError, Simulator
from .statistics import (
    ChannelUtilization,
    Counter,
    LatencySummary,
    PhasedStates,
    TimeWeightedStates,
)
from .sync import Semaphore

__all__ = [
    "AllOf",
    "ChannelUtilization",
    "Clock",
    "completed_event",
    "Component",
    "Counter",
    "Event",
    "EventError",
    "Fifo",
    "LatencySummary",
    "MS",
    "NS",
    "PhasedStates",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "Semaphore",
    "SimulationError",
    "Simulator",
    "TimeWeightedStates",
    "Timeout",
    "US",
]
