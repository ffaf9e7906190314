"""Netlists: every platform is a list of components built in list order
(which fixes same-instant event order), placed by hand or made by
:func:`lower` from a reference configuration.  :data:`NETLIST_SCHEMA` is
the schema: each kind (``fabric``, ``onchip``, ``lmi``, ``bridge``,
``iptg``, ``cpu``, ``dma``, ``display``) and its keys with defaults,
exactly the keywords of its builder in ``PlatformInstance``.  A null
``config`` / ``sdram`` / ``two_phase`` is the default ``LmiConfig`` /
DDR timing / one phase, a null ``clock_mhz`` / ``beat_bytes`` the
fabric's; a ``cpu``'s code sits ``CPU_CODE_OFFSET`` above ``base``.
:func:`check_netlist` is what a netlist must pass before it is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from ..cpu.benchmark import BenchmarkConfig
from ..interconnect.arbiter import (
    FixedPriority,
    LeastRecentlyGranted,
    RoundRobin,
    WeightedLottery,
)
from ..interconnect.protocols import platform_protocols
from ..interconnect.types import AddressRange
from ..memory.lmi import LmiConfig
from ..memory.timing import SdramTiming
from ..traffic.patterns import RandomUniform, Sequential, Strided
from .config import MEMORY_BASE, MEMORY_SPAN, PlatformConfig, TwoPhaseSpec

#: Netlist entry kind -> its keys and their defaults (``...`` = required).
#: Memories, generators and devices take their fabric's clock and width
#: unless a key says otherwise.
NETLIST_SCHEMA: Dict[str, Dict[str, Any]] = {
    "fabric": dict(protocol="stbus", freq_mhz=200.0, width_bytes=4,
                   stbus_type=2, arbiter=None, message_arbitration=True),
    "onchip": dict(fabric=..., base=..., span=..., wait_states=1,
                   request_depth=1, response_depth=2,
                   access_latency_cycles=0, pipeline_depth=1),
    "lmi": dict(fabric=..., base=..., span=..., freq_mhz=166.0,
                config=None, sdram=None),
    "bridge": dict(source=..., dest=..., base=..., span=..., split=False,
                   crossing_cycles=2, child_outstanding=4),
    "iptg": dict(fabric=..., base=..., span=..., transactions=..., seed=...,
                 idle_cycles=0, read_fraction=1.0, priority=0,
                 max_outstanding=4, burst_beats=8, message_packets=1,
                 pattern="seq", clock_mhz=None, beat_bytes=None,
                 two_phase=None),
    "cpu": dict(fabric=..., base=..., blocks=200, working_set=1 << 16,
                seed=42),
    "dma": dict(fabric=..., src=..., dst=..., length=...),
    "display": dict(fabric=..., framebuffer_base=..., lines=...),
}

#: The arbiters a netlist STBus node may name; the lottery's seed is fixed.
ARBITERS = {"fixed_priority": FixedPriority, "round_robin": RoundRobin,
            "lru": LeastRecentlyGranted,
            "lottery": partial(WeightedLottery, seed=7)}

_STBUS = ("stbus", "stbus-xbar")

#: Bytes a display fetches per line.
_LINE_BYTES = 512

#: Offset of the ST220's code window above its data window.
CPU_CODE_OFFSET = 0x0100_0000

#: The strided pattern: ``_BLOCK`` bytes read at every ``_STRIDE`` bytes.
_BLOCK, _STRIDE = 2048, 16384

#: IPTG ``pattern`` -> its address pattern over ``(base, span)``.
PATTERNS = {
    "seq": Sequential,
    "random": partial(RandomUniform, align=64),
    "strided": lambda base, span: Strided(base, block=_BLOCK, stride=_STRIDE,
                                          blocks=span // _STRIDE),
}

#: Bytes of unified memory assigned to each reference IP's working region.
_IP_REGION = 1 << 20


def _ints(low: int) -> Tuple[Callable[[Any], bool], str]:
    return (lambda value: type(value) is int and value >= low,
            f"an integer >= {low}")


def _fields(cls) -> Tuple[Callable[[Any], bool], str]:
    """Null, or a JSON object of ``cls`` fields that ``cls`` accepts."""
    def accepts(value: Any) -> bool:
        try:
            return value is None or isinstance(value, dict) \
                and cls(**value) is not None
        except (TypeError, ValueError):
            return False
    return accepts, f"null or an object of {cls.__name__} fields"


_WIDTHS = (1, 2, 4, 8, 16, 32)

#: Key -> (does it accept the value?, what the value must be).
_VALUES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    **dict.fromkeys(("base", "src", "dst", "framebuffer_base", "seed",
                     "wait_states", "idle_cycles", "priority",
                     "access_latency_cycles", "crossing_cycles"), _ints(0)),
    **dict.fromkeys(("span", "length", "transactions", "lines",
                     "request_depth", "response_depth", "max_outstanding",
                     "pipeline_depth", "child_outstanding", "burst_beats",
                     "message_packets", "blocks"), _ints(1)),
    "working_set": _ints(64),
    **dict.fromkeys(("fabric", "source", "dest"),
                    (lambda value: isinstance(value, str), "a fabric name")),
    **dict.fromkeys(("split", "message_arbitration"),
                    (lambda value: isinstance(value, bool), "true or false")),
    "width_bytes": (lambda value: value in _WIDTHS and type(value) is int,
                    "one of 1, 2, 4, 8, 16, 32"),
    "beat_bytes": (lambda value: value is None or value in _WIDTHS
                   and type(value) is int, "null or one of 1, 2, 4, 8, 16, 32"),
    "freq_mhz": (lambda value: type(value) in (int, float)
                 and 0 < value <= 1e6, "a number in (0, 1e6]"),
    "clock_mhz": (lambda value: value is None or type(value) in (int, float)
                  and 0 < value <= 1e6, "null or a number in (0, 1e6]"),
    "read_fraction": (lambda value: type(value) in (int, float)
                      and 0 <= value <= 1, "a number in [0, 1]"),
    "stbus_type": (lambda value: value in (1, 2, 3) and type(value) is int,
                   "1, 2 or 3"),
    "protocol": (lambda value: value in (*_STBUS, *platform_protocols()),
                 f"one of {sorted({*_STBUS, *platform_protocols()})}"),
    "arbiter": (lambda value: value is None or value in tuple(ARBITERS),
                f"null or one of {sorted(ARBITERS)}"),
    "pattern": (lambda value: value in ("seq", "random", "strided"),
                "one of 'random', 'seq', 'strided'"),
    "config": _fields(LmiConfig),
    "sdram": _fields(SdramTiming),
    "two_phase": _fields(TwoPhaseSpec),
}


@dataclass(frozen=True)
class NetEntry:
    """One netlist component: its kind, unique name and the keys its
    document gives, in schema order (it serialises as it was written)."""

    kind: str
    name: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def of(cls, kind: Any = None, name: Any = None,
           **params: Any) -> "NetEntry":
        schema = NETLIST_SCHEMA.get(kind) if isinstance(kind, str) else None
        if schema is None:
            raise ValueError(f"unknown kind {kind!r}; choose from "
                             f"{sorted(NETLIST_SCHEMA)}")
        where = f"{kind} {name!r}"
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: needs a name")
        unknown = sorted(set(params) - set(schema))
        missing = sorted(key for key, default in schema.items()
                         if default is ... and key not in params)
        if unknown or missing:
            raise ValueError(f"{where}: unknown keys {unknown}, missing "
                             f"keys {missing}; allowed: {sorted(schema)}")
        for key, value in params.items():
            accepts, expected = _VALUES[key]
            if not accepts(value):
                raise ValueError(f"{where}: {key} must be {expected}, "
                                 f"not {value!r}")
        return cls(kind, name, tuple((key, params[key]) for key in schema
                                     if key in params))

    def filled(self) -> Dict[str, Any]:
        """Every key of the kind: the given ones, defaults for the rest."""
        return {**NETLIST_SCHEMA[self.kind], **dict(self.params)}


#: Initiator kind -> the ``(base, size)`` windows its requests start in.
_TRAFFIC = {
    "iptg": lambda p: [(p["base"], p["span"])],
    "dma": lambda p: [(p["src"], p["length"]), (p["dst"], p["length"])],
    "display": lambda p: [(p["framebuffer_base"], p["lines"] * _LINE_BYTES)],
    "cpu": lambda p: [(p["base"], p["working_set"]),
                      (p["base"] + CPU_CODE_OFFSET, BenchmarkConfig.code_size)],
}


def check_netlist(entries: Tuple[NetEntry, ...]) -> None:
    """Unique names, references to earlier fabrics, STBus-only options,
    at most one CPU, target windows that do not overlap on one fabric,
    IPTG windows that hold their pattern's bursts, and initiator windows
    that each lie in one memory's window (through bridges)."""
    kinds: Dict[str, str] = {}
    widths: Dict[str, int] = {}
    #: fabric -> [(target window, the far fabric of a bridge or None)]
    targets: Dict[str, List[Tuple[AddressRange, Any]]] = {}
    traffic = []
    for entry in entries:
        where = f"netlist entry {entry.name!r}"
        if entry.name in kinds:
            raise ValueError(f"{where}: duplicate name")
        params = entry.filled()
        for ref in ("fabric", "source", "dest"):
            if ref in params and kinds.get(params[ref]) != "fabric":
                raise ValueError(f"{where}: {ref} {params[ref]!r} is not a "
                                 f"fabric declared before it")
        if entry.kind == "cpu" and "cpu" in kinds.values():
            raise ValueError(f"{where}: a platform has one CPU")
        kinds[entry.name] = entry.kind
        if entry.kind == "fabric":
            widths[entry.name] = params["width_bytes"]
            if params["protocol"] not in _STBUS and (
                    params["arbiter"] or not params["message_arbitration"]):
                raise ValueError(f"{where}: an arbiter and "
                                 f"message_arbitration apply to STBus "
                                 f"nodes only")
        if entry.kind == "iptg":
            span, pattern = params["span"], params["pattern"]
            burst = params["burst_beats"] * (params["beat_bytes"]
                                             or widths[params["fabric"]])
            # A strided pattern's last block starts at its last whole stride.
            strided = pattern == "strided"
            last = (span // _STRIDE - 1) * _STRIDE if strided else 0
            if last < 0 or last + burst > span:
                raise ValueError(f"{where}: a {burst}-byte {pattern} burst "
                                 f"does not fit its {span}-byte window")
        if entry.kind in ("onchip", "lmi", "bridge"):
            window = AddressRange(params["base"], params["span"])
            layer = targets.setdefault(
                params["source" if entry.kind == "bridge" else "fabric"], [])
            for other, _ in layer:
                if window.overlaps(other):
                    raise ValueError(f"{where}: window {window} overlaps "
                                     f"another target's {other}")
            layer.append((window, params.get("dest")))
        if entry.kind in _TRAFFIC:
            traffic.extend((where, params["fabric"], low, size)
                           for low, size in _TRAFFIC[entry.kind](params))
    for where, fabric, low, size in traffic:
        for _ in entries:  # one bridge per step; a loop of bridges ends it
            fabric = next((dest for window, dest in targets.get(fabric, ())
                           if window.base <= low
                           and low + size <= window.end), "")
            if not fabric:
                break
        if fabric is not None:
            raise ValueError(f"{where}: addresses [{low:#x}, "
                             f"{low + size:#x}) do not lie in one memory's "
                             f"window")


def lower(config: PlatformConfig) -> Tuple[NetEntry, ...]:
    """The reference topology of ``config`` as a netlist, in build order:
    the central node (or crossbar); the memory (``mem``, the native-STBus
    ``lmi``, or ``lmi_node`` + ``lmi`` + the ``to_lmi`` converter); per
    cluster its layer, its bridge to the central node and its IPs; then
    ``cpu_node``, its bridge and the ST220.  A collapsed topology puts
    every IP and the ST220 on the central node."""
    stbus, split = config.protocol == "stbus", config.bridges_split
    # Only an STBus node reads message_arbitration: emit what is built.
    arbitration = config.message_arbitration or not stbus
    window = dict(base=MEMORY_BASE, span=MEMORY_SPAN)
    bridge = dict(split=split, child_outstanding=config.genconv_outstanding,
                  crossing_cycles=config.genconv_crossing_cycles if split
                  else config.bridge_crossing_cycles)

    def entry(kind, name, mirror=None, **params):
        # A key named like a field of ``mirror`` takes its value; the
        # values are already checked, so NetEntry.of is not needed.
        schema = NETLIST_SCHEMA[kind]
        fields = {} if mirror is None else {
            key: value for key, value in vars(mirror).items()
            if key in schema}
        return NetEntry(kind, name,
                        tuple({**schema, **fields, **params}.items()))

    def layer(name, freq_mhz, width_bytes, stbus_type,
              message_arbitration=arbitration):
        return [entry("fabric", name, protocol=config.protocol,
                      freq_mhz=freq_mhz, width_bytes=width_bytes,
                      stbus_type=int(stbus_type),
                      message_arbitration=message_arbitration),
                entry("bridge", name + ("_conv" if split else "_br"),
                      source=name, dest="central", **window, **bridge)]

    entries = [entry(
        "fabric", "central", protocol="stbus-xbar"
        if config.central_crossbar and stbus else config.protocol,
        freq_mhz=config.central_freq_mhz,
        width_bytes=config.central_width_bytes,
        stbus_type=int(config.central_stbus_type),
        message_arbitration=arbitration)]
    memory = config.memory
    if memory.kind == "onchip":
        entries.append(entry("onchip", "mem", memory, fabric="central",
                             **window))
    else:
        # The LMI natively exposes an STBus target interface (Section 4.2);
        # other platforms reach it through a converter on an STBus node.
        lmi = [entry("lmi", "lmi", fabric="central" if stbus else "lmi_node",
                     **window, freq_mhz=memory.lmi_freq_mhz,
                     config=asdict(memory.lmi), sdram=asdict(memory.sdram))]
        entries += lmi if stbus else [
            entry("fabric", "lmi_node", freq_mhz=memory.lmi_freq_mhz,
                  width_bytes=8, stbus_type=3), *lmi,
            entry("bridge", "to_lmi", source="central", dest="lmi_node",
                  **window, split=config.lmi_bridge_split,
                  crossing_cycles=config.bridge_crossing_cycles)]
    two_phase = config.two_phase and asdict(config.two_phase)
    index = 0
    for cluster in config.clusters:
        fabric = "central"
        if config.topology != "collapsed":
            fabric = cluster.name
            entries += layer(cluster.name, cluster.freq_mhz,
                             cluster.data_width_bytes, cluster.stbus_type)
        for ip in cluster.ips:
            # An IP keeps its cluster's clock and width, collapsed or not.
            entries.append(entry(
                "iptg", f"{cluster.name}.{ip.name}", ip, fabric=fabric,
                base=MEMORY_BASE + 0x0100_0000 + index * _IP_REGION,
                span=_IP_REGION, seed=config.seed * 1000 + index + 1,
                transactions=max(1, int(ip.transactions
                                        * config.traffic_scale)),
                clock_mhz=cluster.freq_mhz,
                beat_bytes=cluster.data_width_bytes, two_phase=two_phase))
            index += 1
    cpu = config.cpu
    if cpu.enabled:
        fabric = "central"
        if config.topology != "collapsed":
            # The ST220 sits on its own 32-bit layer behind an upsize +
            # frequency converter towards the central node.
            fabric = "cpu_node"
            entries += layer(fabric, cpu.freq_mhz, 4, 2,
                             message_arbitration=True)
        entries.append(entry(
            "cpu", "st220", cpu, fabric=fabric,
            base=MEMORY_BASE + 0x0800_0000,
            blocks=max(1, int(cpu.blocks * config.traffic_scale))))
    return tuple(entries)
