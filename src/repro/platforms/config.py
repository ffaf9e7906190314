"""Platform configuration objects.

The reference platform (Fig. 1) is described by data, not code: a list of
functional clusters ("each one implementing functionalities like video
stream decrypting and decoding, image resizing or more generic DMA tasks,
and therefore features different combinations of data width, clock frequency
and STBus protocol type"), a central node, an ST220 CPU subsystem and a
memory subsystem.  The paper's exact netlist is proprietary; these defaults
synthesise a platform with every property the text states (see DESIGN.md,
substitution 2).

Architectural variants (Section 3.2) are configuration changes:

* ``protocol``   — STBus / AMBA AHB / AMBA AXI ports of the same template;
* ``topology``   — ``distributed`` multi-layer vs ``collapsed`` single layer
  ("the most heavily congested cluster is removed and its communication
  actors attached to the central cluster" — taken to the limit, every
  cluster collapses onto the central node);
* ``memory.kind``— on-chip shared memory vs LMI + off-chip DDR SDRAM.

Every platform is built from a netlist of
:class:`~repro.platforms.netlist.NetEntry` components: the one
:func:`~repro.platforms.netlist.lower` makes of the reference topology,
or the configuration's own ``netlist`` (the single-layer, arbitration,
segmentation and I/O studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..interconnect.protocols import platform_protocols
from ..interconnect.types import StbusType
from ..memory.lmi import LmiConfig
from ..memory.timing import DDR_SDRAM, SdramTiming
from ..obs.energy import EnergyConfig

#: Base address and span of the unified memory (all traffic targets it).
MEMORY_BASE = 0x8000_0000
MEMORY_SPAN = 1 << 28  # 256 MiB


@dataclass(frozen=True)
class IpSpec:
    """One IP core, reproduced by an IPTG.

    ``pattern`` selects the addressing scheme: ``seq`` (streaming),
    ``random`` (scattered) or ``strided`` (2D blocks).  ``message_packets``
    groups consecutive bursts into STBus messages.
    """

    name: str
    transactions: int = 120
    burst_beats: int = 8
    read_fraction: float = 1.0
    idle_cycles: int = 2
    message_packets: int = 1
    pattern: str = "seq"
    max_outstanding: int = 4
    priority: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in ("seq", "random", "strided"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.transactions < 1 or self.burst_beats < 1:
            raise ValueError("transactions and burst_beats must be >= 1")


@dataclass(frozen=True)
class ClusterSpec:
    """One functional cluster (an interconnect layer plus its IPs)."""

    name: str
    freq_mhz: float
    data_width_bytes: int
    stbus_type: StbusType
    ips: Tuple[IpSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.ips:
            raise ValueError(f"cluster {self.name} has no IPs")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory subsystem selection.

    For on-chip memory, ``access_latency_cycles`` is the initial response
    latency per burst (the Fig. 4 sweep variable), ``pipeline_depth`` and
    ``request_depth`` describe the target interface: a simple slave has a
    single-slot, non-pipelined interface ("each transaction is blocking",
    Section 4.2) while a smarter interface overlaps several accesses.
    """

    kind: str = "onchip"  # "onchip" | "lmi"
    wait_states: int = 1
    access_latency_cycles: int = 0
    pipeline_depth: int = 1
    request_depth: int = 1
    response_depth: int = 2
    lmi: LmiConfig = field(default_factory=LmiConfig)
    sdram: SdramTiming = DDR_SDRAM
    lmi_freq_mhz: float = 166.0

    def __post_init__(self) -> None:
        if self.kind not in ("onchip", "lmi"):
            raise ValueError(f"unknown memory kind {self.kind!r}")
        if self.wait_states < 0:
            raise ValueError("wait_states must be >= 0")
        if self.access_latency_cycles < 0:
            raise ValueError("access_latency_cycles must be >= 0")
        if self.pipeline_depth < 1 or self.request_depth < 1:
            raise ValueError("pipeline_depth and request_depth must be >= 1")


@dataclass(frozen=True)
class TwoPhaseSpec:
    """Two-regime application lifetime (the Fig. 6 working phases).

    Phase 1 runs each IP's configured program (intensive traffic); phase 2
    issues ``fraction`` of the transaction count again at a lower *average*
    intensity (mean gap = ``idle_multiplier`` x the phase-1 gap) but in a
    burstier shape: with ``burst_run > 1`` the gaps are bimodal — runs of
    about ``burst_run`` back-to-back transactions separated by long
    silences — so transients still fill the memory-controller FIFO while
    the FIFO also sits empty for long stretches.
    """

    fraction: float = 0.6
    idle_multiplier: float = 10.0
    burst_run: int = 1

    def __post_init__(self) -> None:
        if self.fraction <= 0:
            raise ValueError("phase-2 fraction must be positive")
        if self.idle_multiplier < 1:
            raise ValueError("idle_multiplier must be >= 1")
        if self.burst_run < 1:
            raise ValueError("burst_run must be >= 1")


@dataclass(frozen=True)
class CpuConfig:
    """ST220 subsystem parameters."""

    enabled: bool = True
    freq_mhz: float = 400.0
    blocks: int = 200
    working_set: int = 1 << 16
    seed: int = 42


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to elaborate one platform instance."""

    #: Interconnect protocol; any value of
    #: :func:`repro.interconnect.protocols.platform_protocols` — the
    #: paper's three ("stbus" | "ahb" | "axi") plus the registry-served
    #: generic fabrics ("wishbone" | "apb" | "axi4lite" | "avalon" |
    #: "tilelink").
    protocol: str = "stbus"
    topology: str = "distributed"  # "distributed" | "collapsed"
    #: Simulation resolution: "ca" simulates every arbitration cycle; "lt"
    #: (loosely timed) fast-forwards provably contention-free stretches
    #: analytically and falls back to the cycle-accurate engine under
    #: contention — it changes how the models *execute*, not what they
    #: model.  See docs/FAST_SIM.md for the speed/accuracy contract.
    resolution: str = "ca"  # "ca" | "lt"
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    cpu: CpuConfig = field(default_factory=CpuConfig)
    clusters: Tuple[ClusterSpec, ...] = ()
    central_freq_mhz: float = 250.0
    central_width_bytes: int = 8
    central_stbus_type: StbusType = StbusType.T3
    #: Scales every IP's transaction count (and the CPU block count).
    traffic_scale: float = 1.0
    #: One-way crossing latency of lightweight bridges, in cycles ("they
    #: have tunable latency"; basic bridges resynchronise conservatively).
    bridge_crossing_cycles: int = 4
    #: One-way crossing latency of GenConv converters ("combining
    #: conversions has the advantage of minimizing the latency").
    genconv_crossing_cycles: int = 1
    #: Outstanding children of split-capable (GenConv) bridges.
    genconv_outstanding: int = 4
    #: Force split-capable bridges even for AHB/AXI (ablation knob); None
    #: keeps the paper's setup: GenConv for STBus, lightweight otherwise.
    bridge_split_override: Optional[bool] = None
    #: Force a split-capable converter in front of the LMI for non-STBus
    #: platforms (ablation knob; the paper's converters are non-split).
    lmi_bridge_split: bool = False
    #: Two-regime application lifetime (Fig. 6); None = single phase.
    two_phase: Optional[TwoPhaseSpec] = None
    #: Message-granularity arbitration in STBus nodes (ablation knob —
    #: "messaging is a solution to generate memory controller-friendly
    #: traffic").
    message_arbitration: bool = True
    #: Instantiate the central STBus node as a full crossbar instead of a
    #: shared bus.  With the memory-centric many-to-one pattern this buys
    #: nothing (guideline 2) — which the tests assert.
    central_crossbar: bool = False
    #: Energy-model coefficient block (``repro.obs.energy``).  Disabled by
    #: default: no accountant is attached and the taps stay dormant.  Part
    #: of the configuration document, so energy coefficients participate
    #: in sweep cache keys and checkpoint digests like every other knob.
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    seed: int = 1
    #: Hand-placed components built in list order instead of the
    #: reference template; () = the reference template.
    netlist: Tuple["NetEntry", ...] = ()

    def __post_init__(self) -> None:
        if self.protocol not in platform_protocols():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; registered: "
                f"{sorted(platform_protocols())}")
        if self.topology not in ("distributed", "collapsed"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.resolution not in ("ca", "lt"):
            raise ValueError(f"unknown resolution {self.resolution!r}")
        if self.traffic_scale <= 0:
            raise ValueError("traffic_scale must be positive")
        if self.netlist:
            from .netlist import check_netlist  # netlist.py builds on this

            check_netlist(self.netlist)
        elif not self.clusters:
            object.__setattr__(self, "clusters", reference_clusters())

    @property
    def bridges_split(self) -> bool:
        """Are inter-cluster bridges split-capable on this instance?"""
        if self.bridge_split_override is not None:
            return self.bridge_split_override
        return self.protocol == "stbus"

    def scaled(self, **overrides) -> "PlatformConfig":
        """Copy with overrides (sweep helper)."""
        return replace(self, **overrides)

    def label(self) -> str:
        """Short instance name used in figures, e.g. ``stbus/distributed``."""
        if self.netlist:
            return "netlist"
        return f"{self.protocol}/{self.topology}"


def reference_clusters() -> Tuple[ClusterSpec, ...]:
    """The synthesised Fig. 1 cluster set (see DESIGN.md substitution 2).

    N5 (DMA) is deliberately the heaviest-loaded cluster, matching "the most
    heavily congested cluster (node N5)".
    """
    return (
        ClusterSpec("n1_decrypt", freq_mhz=200, data_width_bytes=4,
                    stbus_type=StbusType.T2, ips=(
                        IpSpec("dec_in", transactions=70, burst_beats=8,
                               read_fraction=1.0, idle_cycles=30),
                        IpSpec("dec_out", transactions=70, burst_beats=8,
                               read_fraction=0.0, idle_cycles=30),
                    )),
        ClusterSpec("n2_decode", freq_mhz=200, data_width_bytes=8,
                    stbus_type=StbusType.T3, ips=(
                        IpSpec("vld", transactions=70, burst_beats=8,
                               read_fraction=1.0, idle_cycles=10,
                               message_packets=2),
                        IpSpec("mc_ref", transactions=70, burst_beats=8,
                               read_fraction=1.0, idle_cycles=12,
                               pattern="strided"),
                        IpSpec("rec_out", transactions=60, burst_beats=8,
                               read_fraction=0.0, idle_cycles=14),
                    )),
        ClusterSpec("n3_resize", freq_mhz=166, data_width_bytes=4,
                    stbus_type=StbusType.T2, ips=(
                        IpSpec("rsz_in", transactions=70, burst_beats=8,
                               read_fraction=1.0, idle_cycles=40,
                               pattern="strided"),
                        IpSpec("rsz_out", transactions=70, burst_beats=4,
                               read_fraction=0.0, idle_cycles=40),
                    )),
        ClusterSpec("n4_audio", freq_mhz=125, data_width_bytes=4,
                    stbus_type=StbusType.T2, ips=(
                        IpSpec("aud", transactions=40, burst_beats=4,
                               read_fraction=0.7, idle_cycles=80),
                    )),
        # N5: the heavily congested cluster — three DMA engines streaming
        # out of the unified memory nearly back to back.
        ClusterSpec("n5_dma", freq_mhz=250, data_width_bytes=8,
                    stbus_type=StbusType.T3, ips=(
                        IpSpec("dma0", transactions=120, burst_beats=8,
                               read_fraction=0.95, idle_cycles=2,
                               message_packets=2),
                        IpSpec("dma1", transactions=120, burst_beats=8,
                               read_fraction=0.9, idle_cycles=2,
                               message_packets=2),
                        IpSpec("dma2", transactions=100, burst_beats=8,
                               read_fraction=0.9, idle_cycles=4),
                    )),
    )
