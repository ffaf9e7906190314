"""Traffic generation: IPTG generators, address patterns, agents, traces."""

from .agents import AgentSpec, MultiAgentIp
from .iptg import Iptg, IptgPhase
from .patterns import (
    AddressPattern,
    Choice,
    Distribution,
    Fixed,
    Geometric,
    RandomUniform,
    Sequential,
    Strided,
)
from .trace import TracePlayer, TraceRecord, TraceRecorder, load_trace, save_trace

__all__ = [
    "AddressPattern",
    "AgentSpec",
    "Choice",
    "Distribution",
    "Fixed",
    "Geometric",
    "Iptg",
    "IptgPhase",
    "MultiAgentIp",
    "RandomUniform",
    "Sequential",
    "Strided",
    "TracePlayer",
    "TraceRecord",
    "TraceRecorder",
    "load_trace",
    "save_trace",
]
