"""Analysis: the run result and the Fig. 6 interface monitor.

Renderers and exporters live in :mod:`repro.obs.export`.
"""

from .fifo_monitor import (
    STATE_FULL,
    STATE_IDLE,
    STATE_STORING,
    InterfaceMonitor,
)
from .metrics import RunResult, summarize_transactions

__all__ = [
    "InterfaceMonitor",
    "RunResult",
    "STATE_FULL",
    "STATE_IDLE",
    "STATE_STORING",
    "summarize_transactions",
]
