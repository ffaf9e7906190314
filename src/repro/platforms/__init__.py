"""Platform construction: the Fig. 1 reference MPSoC and its variants."""

from .config import (
    MEMORY_BASE,
    MEMORY_SPAN,
    ClusterSpec,
    CpuConfig,
    IpSpec,
    MemoryConfig,
    PlatformConfig,
    reference_clusters,
)
from .reference import PlatformInstance, RunIncomplete, build_platform
from .result import RunResult, summarize_transactions
from .variants import (
    fig3_instances,
    fig4_pair,
    fig5_instances,
    instance,
    lmi_memory,
    onchip_memory,
    quick_config,
)

__all__ = [
    "ClusterSpec",
    "CpuConfig",
    "IpSpec",
    "MEMORY_BASE",
    "MEMORY_SPAN",
    "MemoryConfig",
    "PlatformConfig",
    "PlatformInstance",
    "RunIncomplete",
    "RunResult",
    "build_platform",
    "fig3_instances",
    "fig4_pair",
    "fig5_instances",
    "instance",
    "lmi_memory",
    "onchip_memory",
    "quick_config",
    "reference_clusters",
    "summarize_transactions",
]
