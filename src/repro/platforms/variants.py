"""Named platform variants — the instances the paper's figures compare.

Each helper returns :class:`PlatformConfig` objects; experiments elaborate
and run them.  Labels follow the paper's naming ("collapsed AXI",
"full STBus", ...).
"""

from __future__ import annotations

from typing import Dict, List

from ..memory.lmi import LmiConfig
from .config import CpuConfig, MemoryConfig, PlatformConfig


def onchip_memory(wait_states: int = 1) -> MemoryConfig:
    """The on-chip shared memory of Sections 4.1/4.2."""
    return MemoryConfig(kind="onchip", wait_states=wait_states)


def lmi_memory(lmi: LmiConfig = LmiConfig()) -> MemoryConfig:
    """The LMI controller + off-chip DDR SDRAM of Fig. 5."""
    return MemoryConfig(kind="lmi", lmi=lmi)


def instance(protocol: str, topology: str, memory: MemoryConfig,
             **overrides) -> PlatformConfig:
    """One platform instance; keyword overrides tweak any config field."""
    return PlatformConfig(protocol=protocol, topology=topology,
                          memory=memory, **overrides)


def fig3_instances(traffic_scale: float = 1.0) -> Dict[str, PlatformConfig]:
    """The five bars of Fig. 3 (on-chip memory, 1 wait state).

    Expected shape: collapsed AXI ~ collapsed STBus ~ full STBus, all much
    faster than full AHB; distributed AXI lands near full AHB because of
    its lightweight blocking bridges.
    """
    memory = onchip_memory(wait_states=1)
    common = dict(traffic_scale=traffic_scale)
    return {
        "collapsed_axi": instance("axi", "collapsed", memory, **common),
        "collapsed_stbus": instance("stbus", "collapsed", memory, **common),
        "full_stbus": instance("stbus", "distributed", memory, **common),
        "full_ahb": instance("ahb", "distributed", memory, **common),
        "distributed_axi": instance("axi", "distributed", memory, **common),
    }


def fig4_pair(access_latency_cycles: int,
              traffic_scale: float = 1.0) -> Dict[str, PlatformConfig]:
    """Distributed vs centralized STBus at a given memory speed (Fig. 4).

    "the use of AXI and STBus is interchangeable here, what really matters
    is the architecture topology" — we use STBus for both.  The memory gets
    progressively slower *in responding to access requests* (initial access
    latency).  Per Section 4.2, the centralized instance has the simple
    slave's single-slot, non-pipelined target interface ("each transaction
    is blocking"); the distributed instance implements the distributed
    buffering the paper credits for keeping the multi-hop path filled —
    including a multi-slot, pipelined memory interface (guideline 3).
    """
    centralized_memory = MemoryConfig(
        kind="onchip", wait_states=1,
        access_latency_cycles=access_latency_cycles,
        pipeline_depth=1, request_depth=1)
    distributed_memory = MemoryConfig(
        kind="onchip", wait_states=1,
        access_latency_cycles=access_latency_cycles,
        pipeline_depth=4, request_depth=4)
    common = dict(traffic_scale=traffic_scale)
    return {
        "collapsed": instance("stbus", "collapsed", centralized_memory,
                              **common),
        "distributed": instance("stbus", "distributed", distributed_memory,
                                **common),
    }


def fig5_instances(traffic_scale: float = 1.0) -> Dict[str, PlatformConfig]:
    """The Fig. 5 bars (LMI memory controller + DDR SDRAM).

    Expected shape: distributed STBus best; collapsed STBus close behind
    (native interface, no bridge, outstanding transactions fill the LMI
    FIFO); collapsed AXI much worse (non-split converter starves the
    optimisation engine); distributed AHB worst, with a larger gap to
    STBus than in Fig. 3.
    """
    memory = lmi_memory()
    common = dict(traffic_scale=traffic_scale)
    return {
        "distributed_stbus": instance("stbus", "distributed", memory, **common),
        "collapsed_stbus": instance("stbus", "collapsed", memory, **common),
        "collapsed_axi": instance("axi", "collapsed", memory, **common),
        "distributed_ahb": instance("ahb", "distributed", memory, **common),
    }


def quick_config(**overrides) -> PlatformConfig:
    """A light configuration for tests: small traffic, no CPU by default."""
    defaults = dict(
        memory=onchip_memory(1),
        cpu=CpuConfig(enabled=False),
        traffic_scale=0.15,
    )
    defaults.update(overrides)
    return PlatformConfig(**defaults)
