"""Declarative protocol registry.

What actually distinguishes bus protocols is a small table of handshake,
burst, posted-write and split semantics — the observation behind
bus-interface signal tables like processor_ci_connector's ``PROTOCOLS``
(see SNIPPETS.md) and the Samsung cycle-count-accurate AMBA TLM work.
This module makes that table explicit: a :class:`ProtocolSpec` per
protocol, a registry keyed by spec name, and lookup helpers used by

* :mod:`repro.interconnect.generic` — the channel engine that turns a
  spec entry into a runnable fabric (Wishbone, APB, AXI4-Lite, Avalon,
  TileLink-UL are nothing else; adding another protocol is ~50 lines of
  table, see docs/PROTOCOLS.md),
* :mod:`repro.bridge.matrix` — the derived N x N bridge matrix
  (spec diff -> store-and-forward conversion plan),
* :mod:`repro.platforms` — configuration validation and elaboration,
* :mod:`repro.check` / :mod:`repro.obs.energy` — the beat-ordering rule
  id (``beat_rule``) and the per-beat energy coefficient (the
  ``EnergyConfig`` field ``<name>_pj_per_beat``).

STBus T1/T2/T3 and AXI are served by the same engine through classes
that choose which channels to instantiate (``engine`` names the class);
AHB keeps a model of its own.  The golden corpus pins every one of them
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

#: One bus-interface signal: ``(name, min_bits, max_bits)`` — the
#: processor_ci_connector table idiom.  Width-parameterised signals
#: (data paths, byte strobes) span a range; control wires pin both ends.
Signal = Tuple[str, int, int]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the generic engine, bridge matrix, monitors and energy
    model need to know about one bus protocol.  The energy model's
    coefficient is the ``EnergyConfig`` field ``<name>_pj_per_beat``.

    ``engine`` names the class that serves the spec.  ``"generic"`` is
    :class:`~repro.interconnect.generic.GenericFabric` itself — the
    channel engine, parameterised entirely by this spec; ``"stbus"``
    (:class:`StbusNode`, :class:`StbusCrossbar`) and ``"axi"``
    (:class:`AxiFabric`) are subclasses that run the same channel bodies
    and only choose how many to instantiate; ``"ahb"`` is a model of its
    own, which the engine refuses.
    """

    #: Registry key; also the ``Fabric.protocol`` label of generic
    #: fabrics (the other engines keep their historical labels).
    name: str
    #: Human-readable protocol name for docs and CLI tables.
    title: str
    #: Protocol family ("stbus", "amba", "open").
    family: str
    #: Serving class: "stbus" | "ahb" | "axi" | "generic".
    engine: str
    #: ``PlatformConfig.protocol`` value that elaborates this spec.
    platform_key: str
    #: Bus-interface signal table, initiator perspective.
    signals: Tuple[Signal, ...]
    #: Physical/logical channels the protocol multiplexes traffic over.
    channels: Tuple[str, ...]
    #: Handshake style, e.g. "req/gnt", "valid/ready", "cyc/stb/ack".
    handshake: str
    #: Split transactions: the request path frees during target latency.
    split: bool
    #: Posted writes may complete at target acceptance.
    posted_writes: bool
    #: Address phase may overlap the previous data phase.
    pipelined: bool
    #: More than one transaction in flight on the fabric at once.
    multi_outstanding: bool
    #: Response beats of different packets may interleave.
    response_interleave: bool
    #: Longest burst one transfer may carry (0 = unbounded; 1 = a
    #: single-beat protocol — bursts are serialised into transfers).
    max_burst_beats: int
    #: Per-transfer request-phase overhead cycles (APB SETUP phase,
    #: Wishbone cycle assertion).
    setup_cycles: int = 0
    #: Per-beat response handshake overhead cycles (classic Wishbone
    #: ack turnaround).
    resp_overhead_cycles: int = 0
    #: Rule id the checker attaches to beat-ordering violations
    #: (:meth:`repro.check.monitors.SimChecker.note_beat` reads it).
    beat_rule: str = "fabric.beat_order"
    #: One-line rationale / reference for docs.
    notes: str = ""

    def __post_init__(self) -> None:
        if self.engine not in ("stbus", "ahb", "axi", "generic"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.max_burst_beats < 0:
            raise ValueError("max_burst_beats must be >= 0")
        if self.setup_cycles < 0 or self.resp_overhead_cycles < 0:
            raise ValueError("cycle overheads must be >= 0")

    @property
    def fabric_label(self) -> str:
        """The ``Fabric.protocol`` label instances of this spec carry.

        Generic fabrics use the spec name; the other engines carry the
        engine name (all three STBus types report ``"stbus"``).
        """
        return self.name if self.engine == "generic" else self.engine

    @property
    def single_beat(self) -> bool:
        """Bursts must be serialised into one-beat transfers."""
        return self.max_burst_beats == 1

    def wire_bits(self, data_width_bytes: int = 4) -> int:
        """Physical wires one port of this protocol needs, in bits.

        Control signals (pinned ``min == max``) count their fixed width.
        Width-parameterised signals (data paths, byte strobes) are tabled
        at their narrowest 32-bit-data instance; an instance with a wider
        data path scales them proportionally, clamped to the table's
        ``max_bits``.  This is the area term of the DSE wire-cost model
        (:mod:`repro.dse.cost`): purely spec-derived, so every registered
        protocol gets a cost without hand-written per-protocol numbers.
        """
        if data_width_bytes < 1:
            raise ValueError("data_width_bytes must be >= 1")
        scale = max(1.0, data_width_bytes * 8 / 32)
        total = 0
        for _name, lo, hi in self.signals:
            total += hi if hi == lo else min(hi, int(lo * scale))
        return total


#: The registry.  Ordered: the paper's protocols first, then the entries
#: served by the bare engine.
PROTOCOLS: Dict[str, ProtocolSpec] = {}


def register_protocol(spec: ProtocolSpec) -> ProtocolSpec:
    """Add ``spec`` to the registry (name must be unused)."""
    if spec.name in PROTOCOLS:
        raise ValueError(f"protocol {spec.name!r} already registered")
    PROTOCOLS[spec.name] = spec
    return spec


def get_spec(name: str) -> ProtocolSpec:
    """Look up a registered protocol by name."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; registered: "
                         f"{sorted(PROTOCOLS)}") from None


def spec_for_fabric(fabric) -> ProtocolSpec:
    """The spec a live fabric instance carries (every fabric class of
    this package carries one)."""
    spec = getattr(fabric, "spec", None)
    if spec is None:
        raise ValueError(f"no registered spec for fabric "
                         f"{getattr(fabric, 'name', fabric)!r} "
                         f"(protocol {getattr(fabric, 'protocol', None)!r})")
    return spec


def platform_protocols() -> Tuple[str, ...]:
    """Valid ``PlatformConfig.protocol`` values, registry-derived."""
    seen = []
    for spec in PROTOCOLS.values():
        if spec.platform_key not in seen:
            seen.append(spec.platform_key)
    return tuple(seen)


def spec_for_platform(platform_key: str,
                      stbus_type: int = 3) -> ProtocolSpec:
    """The spec behind a ``PlatformConfig.protocol`` value.

    The STBus platform key fans out over three specs; ``stbus_type``
    (the cluster/central ``StbusType``) picks which one.  Other keys map
    one-to-one.
    """
    if platform_key == "stbus":
        return get_spec(f"stbus_t{int(stbus_type)}")
    for spec in PROTOCOLS.values():
        if spec.platform_key == platform_key:
            return spec
    raise ValueError(f"unknown platform protocol {platform_key!r}; "
                     f"valid: {sorted(platform_protocols())}")


# ---------------------------------------------------------------------------
# signal-table shorthands
# ---------------------------------------------------------------------------
def _sig(name: str, lo: int, hi: Optional[int] = None) -> Signal:
    return (name, lo, hi if hi is not None else lo)


_STBUS_SIGNALS = (
    _sig("req", 1), _sig("gnt", 1), _sig("opc", 8), _sig("add", 32),
    _sig("data", 32, 128), _sig("be", 4, 16),
    _sig("r_req", 1), _sig("r_gnt", 1), _sig("r_opc", 8),
    _sig("r_data", 32, 128),
)
_STBUS_T2_EXTRA = (_sig("src", 8), _sig("tid", 8), _sig("pri", 4))

_AHB_SIGNALS = (
    _sig("hbusreq", 1), _sig("hgrant", 1), _sig("haddr", 32),
    _sig("htrans", 2), _sig("hwrite", 1), _sig("hsize", 3),
    _sig("hburst", 3), _sig("hwdata", 32, 64), _sig("hrdata", 32, 64),
    _sig("hready", 1), _sig("hresp", 2),
)

_AXI_SIGNALS = (
    _sig("arvalid", 1), _sig("arready", 1), _sig("araddr", 32),
    _sig("arid", 4, 8), _sig("arlen", 8), _sig("arsize", 3),
    _sig("awvalid", 1), _sig("awready", 1), _sig("awaddr", 32),
    _sig("awid", 4, 8), _sig("awlen", 8),
    _sig("wvalid", 1), _sig("wready", 1), _sig("wdata", 32, 128),
    _sig("wstrb", 4, 16), _sig("wlast", 1),
    _sig("rvalid", 1), _sig("rready", 1), _sig("rdata", 32, 128),
    _sig("rid", 4, 8), _sig("rresp", 2), _sig("rlast", 1),
    _sig("bvalid", 1), _sig("bready", 1), _sig("bid", 4, 8),
    _sig("bresp", 2),
)

_WISHBONE_SIGNALS = (
    _sig("cyc_o", 1), _sig("stb_o", 1), _sig("we_o", 1),
    _sig("adr_o", 32), _sig("sel_o", 4, 8),
    _sig("dat_o", 32, 64), _sig("dat_i", 32, 64),
    _sig("ack_i", 1), _sig("err_i", 1), _sig("stall_i", 1),
)

_APB_SIGNALS = (
    _sig("psel", 1), _sig("penable", 1), _sig("pwrite", 1),
    _sig("paddr", 32), _sig("pwdata", 32), _sig("prdata", 32),
    _sig("pready", 1), _sig("pslverr", 1),
)

_AXI4LITE_SIGNALS = (
    _sig("arvalid", 1), _sig("arready", 1), _sig("araddr", 32),
    _sig("awvalid", 1), _sig("awready", 1), _sig("awaddr", 32),
    _sig("wvalid", 1), _sig("wready", 1), _sig("wdata", 32, 64),
    _sig("wstrb", 4, 8),
    _sig("rvalid", 1), _sig("rready", 1), _sig("rdata", 32, 64),
    _sig("rresp", 2),
    _sig("bvalid", 1), _sig("bready", 1), _sig("bresp", 2),
)

_AVALON_SIGNALS = (
    _sig("chipselect", 1), _sig("read", 1), _sig("write", 1),
    _sig("address", 32), _sig("byteenable", 4, 8),
    _sig("writedata", 32, 64), _sig("readdata", 32, 64),
    _sig("waitrequest", 1), _sig("readdatavalid", 1),
    _sig("burstcount", 4, 8),
)

_TILELINK_SIGNALS = (
    _sig("a_valid", 1), _sig("a_ready", 1), _sig("a_opcode", 3),
    _sig("a_address", 32), _sig("a_size", 4), _sig("a_mask", 4, 8),
    _sig("a_data", 32, 64),
    _sig("d_valid", 1), _sig("d_ready", 1), _sig("d_opcode", 3),
    _sig("d_data", 32, 64), _sig("d_error", 1),
)


# ---------------------------------------------------------------------------
# the paper's protocols, served through their classes
# ---------------------------------------------------------------------------
register_protocol(ProtocolSpec(
    name="stbus_t1", title="STBus Type 1", family="stbus", engine="stbus",
    platform_key="stbus", signals=_STBUS_SIGNALS,
    channels=("request", "response"), handshake="req/gnt",
    split=False, posted_writes=False, pipelined=False,
    multi_outstanding=False, response_interleave=False, max_burst_beats=0,
    beat_rule="stbus.packet_order",
    notes="low cost; the node is held end to end per transaction"))

register_protocol(ProtocolSpec(
    name="stbus_t2", title="STBus Type 2", family="stbus", engine="stbus",
    platform_key="stbus", signals=_STBUS_SIGNALS + _STBUS_T2_EXTRA,
    channels=("request", "response"), handshake="req/gnt",
    split=True, posted_writes=True, pipelined=True,
    multi_outstanding=True, response_interleave=False, max_burst_beats=0,
    beat_rule="stbus.packet_order",
    notes="split + pipelined, posted writes, packet-atomic responses"))

register_protocol(ProtocolSpec(
    name="stbus_t3", title="STBus Type 3", family="stbus", engine="stbus",
    platform_key="stbus", signals=_STBUS_SIGNALS + _STBUS_T2_EXTRA,
    channels=("request", "response"), handshake="req/gnt",
    split=True, posted_writes=True, pipelined=True,
    multi_outstanding=True, response_interleave=True, max_burst_beats=0,
    beat_rule="stbus.packet_order",
    notes="adds shaped packets and out-of-order response interleaving"))

register_protocol(ProtocolSpec(
    name="ahb", title="AMBA AHB", family="amba", engine="ahb",
    platform_key="ahb", signals=_AHB_SIGNALS,
    channels=("bus",), handshake="hbusreq/hgrant + hready",
    split=False, posted_writes=False, pipelined=True,
    multi_outstanding=False, response_interleave=False, max_burst_beats=0,
    beat_rule="ahb.data_order",
    notes="single data link, address pipelining, non-posted writes"))

register_protocol(ProtocolSpec(
    name="axi", title="AMBA AXI", family="amba", engine="axi",
    platform_key="axi", signals=_AXI_SIGNALS,
    channels=("ar", "aw", "w", "r", "b"), handshake="valid/ready",
    split=True, posted_writes=False, pipelined=True,
    multi_outstanding=True, response_interleave=True, max_burst_beats=0,
    beat_rule="axi.id_order",
    notes="five independent channels, per-beat R re-arbitration"))


# ---------------------------------------------------------------------------
# pure spec entries served by the bare engine
# ---------------------------------------------------------------------------
register_protocol(ProtocolSpec(
    name="wishbone", title="Wishbone B4 (classic)", family="open",
    engine="generic", platform_key="wishbone", signals=_WISHBONE_SIGNALS,
    channels=("bus",), handshake="cyc/stb/ack",
    split=False, posted_writes=False, pipelined=False,
    multi_outstanding=False, response_interleave=False, max_burst_beats=0,
    setup_cycles=1, resp_overhead_cycles=1,
    beat_rule="wishbone.ack_order",
    notes="classic cycles: cyc assertion + one ack turnaround per beat"))

register_protocol(ProtocolSpec(
    name="apb", title="AMBA APB", family="amba",
    engine="generic", platform_key="apb", signals=_APB_SIGNALS,
    channels=("bus",), handshake="psel/penable/pready",
    split=False, posted_writes=False, pipelined=False,
    multi_outstanding=False, response_interleave=False, max_burst_beats=1,
    setup_cycles=1, beat_rule="apb.access_order",
    notes="two-phase SETUP/ACCESS, one beat per transfer, no bursts"))

register_protocol(ProtocolSpec(
    name="axi4lite", title="AMBA AXI4-Lite", family="amba",
    engine="generic", platform_key="axi4lite", signals=_AXI4LITE_SIGNALS,
    channels=("ar", "aw", "w", "r", "b"), handshake="valid/ready",
    split=True, posted_writes=False, pipelined=True,
    multi_outstanding=True, response_interleave=True, max_burst_beats=1,
    beat_rule="axi4lite.channel_order",
    notes="AXI channels without bursts or IDs; every beat is a transfer"))

register_protocol(ProtocolSpec(
    name="avalon", title="Avalon-MM", family="open",
    engine="generic", platform_key="avalon", signals=_AVALON_SIGNALS,
    channels=("bus",), handshake="waitrequest",
    split=True, posted_writes=True, pipelined=True,
    multi_outstanding=True, response_interleave=False, max_burst_beats=0,
    beat_rule="avalon.readdata_order",
    notes="pipelined reads via readdatavalid, posted writes, bursts"))

register_protocol(ProtocolSpec(
    name="tilelink", title="TileLink-UL", family="open",
    engine="generic", platform_key="tilelink", signals=_TILELINK_SIGNALS,
    channels=("a", "d"), handshake="valid/ready",
    split=True, posted_writes=False, pipelined=True,
    multi_outstanding=True, response_interleave=True, max_burst_beats=1,
    beat_rule="tilelink.d_order",
    notes="uncached-lightweight: single-beat A/D messages, every write "
          "acked on D"))


__all__ = [
    "PROTOCOLS",
    "ProtocolSpec",
    "Signal",
    "get_spec",
    "platform_protocols",
    "register_protocol",
    "spec_for_fabric",
    "spec_for_platform",
]
