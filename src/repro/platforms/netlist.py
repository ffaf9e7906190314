"""Netlist platforms: ``PlatformConfig.netlist``, hand-placed components
built in list order (construction order fixes same-instant event order)
on top of :class:`PlatformInstance`'s finish detection, run bound and
``result()``.  :data:`NETLIST_SCHEMA` gives each kind's keys, exactly the
keywords of its builder; :func:`check_netlist` is what a netlist must
pass before it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from ..bridge.matrix import make_bridge
from ..devices.display import DisplayController
from ..devices.dma import DmaDescriptor, DmaEngine
from ..interconnect.arbiter import (
    FixedPriority,
    LeastRecentlyGranted,
    RoundRobin,
    WeightedLottery,
)
from ..interconnect.protocols import platform_protocols
from ..interconnect.types import AddressRange, StbusType
from ..memory.lmi import LmiController
from ..memory.onchip import OnChipMemory
from ..traffic.iptg import Iptg, IptgPhase
from ..traffic.patterns import Fixed, Sequential
from .reference import PlatformInstance, make_fabric
from .result import RunResult

#: Netlist entry kind -> its keys and their defaults (``...`` = required).
#: Memories, generators and devices take their fabric's clock and width;
#: what no two study points set apart is a constant of the builder.
NETLIST_SCHEMA: Dict[str, Dict[str, Any]] = {
    "fabric": dict(protocol="stbus", freq_mhz=200.0, width_bytes=4,
                   stbus_type=2, arbiter=None, message_arbitration=True),
    "onchip": dict(fabric=..., base=..., span=..., wait_states=1,
                   request_depth=1, response_depth=2),
    "lmi": dict(fabric=..., base=..., span=...),
    "bridge": dict(source=..., dest=..., base=..., span=..., split=False),
    "iptg": dict(fabric=..., base=..., span=..., transactions=..., seed=...,
                 idle_cycles=0, read_fraction=1.0, priority=0,
                 max_outstanding=4),
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


def _ints(low: int) -> Tuple[Callable[[Any], bool], str]:
    return (lambda value: type(value) is int and value >= low,
            f"an integer >= {low}")


#: Key -> (does it accept the value?, what the value must be).
_VALUES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    **dict.fromkeys(("base", "src", "dst", "framebuffer_base", "seed",
                     "wait_states", "idle_cycles", "priority"), _ints(0)),
    **dict.fromkeys(("span", "length", "transactions", "lines",
                     "request_depth", "response_depth", "max_outstanding"),
                    _ints(1)),
    **dict.fromkeys(("fabric", "source", "dest"),
                    (lambda value: isinstance(value, str), "a fabric name")),
    **dict.fromkeys(("split", "message_arbitration"),
                    (lambda value: isinstance(value, bool), "true or false")),
    "width_bytes": (lambda value: value in (1, 2, 4, 8, 16, 32)
                    and type(value) is int, "one of 1, 2, 4, 8, 16, 32"),
    "freq_mhz": (lambda value: type(value) in (int, float)
                 and 0 < value <= 1e6, "a number in (0, 1e6]"),
    "read_fraction": (lambda value: type(value) in (int, float)
                      and 0 <= value <= 1, "a number in [0, 1]"),
    "stbus_type": (lambda value: value in (1, 2, 3) and type(value) is int,
                   "1, 2 or 3"),
    "protocol": (lambda value: value in (*_STBUS, *platform_protocols()),
                 f"one of {sorted({*_STBUS, *platform_protocols()})}"),
    "arbiter": (lambda value: value is None or value in tuple(ARBITERS),
                f"null or one of {sorted(ARBITERS)}"),
}


@dataclass(frozen=True)
class NetEntry:
    """One netlist component: its kind, unique name and every key
    :data:`NETLIST_SCHEMA` gives the kind, defaults filled in."""

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
        return cls(kind, name, tuple({**schema, **params}.items()))


#: Initiator kind -> the ``(base, size)`` windows its requests start in.
_TRAFFIC = {
    "iptg": lambda p: [(p["base"], p["span"])],
    "dma": lambda p: [(p["src"], p["length"]), (p["dst"], p["length"])],
    "display": lambda p: [(p["framebuffer_base"], p["lines"] * _LINE_BYTES)],
}


def check_netlist(entries: Tuple[NetEntry, ...]) -> None:
    """Unique names, references to earlier fabrics, STBus-only options,
    target windows that do not overlap on one fabric, and initiator
    windows that each lie in one memory's window (through bridges)."""
    kinds: Dict[str, str] = {}
    #: fabric -> [(target window, the far fabric of a bridge or None)]
    targets: Dict[str, List[Tuple[AddressRange, Any]]] = {}
    traffic = []
    for entry in entries:
        where = f"netlist entry {entry.name!r}"
        if entry.name in kinds:
            raise ValueError(f"{where}: duplicate name")
        params = dict(entry.params)
        for ref in ("fabric", "source", "dest"):
            if ref in params and kinds.get(params[ref]) != "fabric":
                raise ValueError(f"{where}: {ref} {params[ref]!r} is not a "
                                 f"fabric declared before it")
        kinds[entry.name] = entry.kind
        if entry.kind == "fabric" and params["protocol"] not in _STBUS \
                and (params["arbiter"] or not params["message_arbitration"]):
            raise ValueError(f"{where}: an arbiter and message_arbitration "
                             f"apply to STBus nodes only")
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


class NetlistPlatform(PlatformInstance):
    """A platform elaborated from ``config.netlist``, entry by entry."""

    def _build(self) -> None:
        self.displays: List[DisplayController] = []
        self.dmas: List[DmaEngine] = []
        builders = {"fabric": self._fabric, "onchip": self._onchip,
                    "lmi": self._lmi, "bridge": self._bridge,
                    "iptg": self._iptg, "dma": self._dma,
                    "display": self._display}
        for entry in self.config.netlist:
            builders[entry.kind](entry.name, **dict(entry.params))

    def _fabric(self, name, protocol, freq_mhz, width_bytes, stbus_type,
                arbiter, message_arbitration) -> None:
        self.fabrics[name] = make_fabric(
            self.sim, name, protocol, freq_mhz, width_bytes,
            StbusType(stbus_type), message_arbitration=message_arbitration,
            parent=self, arbiter=ARBITERS[arbiter]() if arbiter else None)

    def _onchip(self, name, fabric, base, span, wait_states, request_depth,
                response_depth) -> None:
        layer = self.fabrics[fabric]
        port = layer.add_target(name, AddressRange(base, span),
                                request_depth=request_depth,
                                response_depth=response_depth)
        OnChipMemory(self.sim, name, port, layer.clock,
                     wait_states=wait_states,
                     width_bytes=layer.data_width_bytes, parent=self)

    def _lmi(self, name, fabric, base, span) -> None:
        LmiController.attach(
            self.sim, self.fabrics[fabric], name, base, span,
            self.sim.clock(freq_mhz=166.0, name=f"{name}.clk"), parent=self)

    def _bridge(self, name, source, dest, base, span, split) -> None:
        self.bridges.append(make_bridge(
            self.sim, name, self.fabrics[source], self.fabrics[dest],
            AddressRange(base, span), split=split, crossing_cycles=2,
            parent=self))

    def _iptg(self, name, fabric, base, span, transactions, seed,
              idle_cycles, read_fraction, priority,
              max_outstanding) -> None:
        layer = self.fabrics[fabric]
        phase = IptgPhase(
            transactions=transactions, burst_beats=Fixed(8),
            beat_bytes=layer.data_width_bytes,
            idle_cycles=Fixed(idle_cycles), read_fraction=read_fraction,
            priority=priority, address_pattern=Sequential(base, span))
        port = layer.connect_initiator(name, max_outstanding=max_outstanding)
        self.iptgs.append(Iptg(self.sim, name, port, [phase],
                               address_base=base, address_span=span,
                               seed=seed, parent=self))

    def _dma(self, name, fabric, src, dst, length) -> None:
        layer = self.fabrics[fabric]
        port = layer.connect_initiator(name, max_outstanding=4)
        engine = DmaEngine(self.sim, name, port,
                           beat_bytes=layer.data_width_bytes, parent=self)
        engine.program([DmaDescriptor(src, dst, length, burst_bytes=128)])
        engine.start()
        self.dmas.append(engine)

    def _display(self, name, fabric, framebuffer_base, lines) -> None:
        layer = self.fabrics[fabric]
        port = layer.connect_initiator(name, max_outstanding=4)
        self.displays.append(DisplayController(
            self.sim, name, port, framebuffer_base=framebuffer_base,
            line_bytes=_LINE_BYTES, lines=lines, line_period_cycles=330,
            burst_bytes=64, beat_bytes=layer.data_width_bytes,
            line_buffer_lines=2, priority=5, parent=self))

    # ------------------------------------------------------------------
    def done_events(self) -> List:
        return super().done_events() \
            + [display.done for display in self.displays] \
            + [engine.all_done for engine in self.dmas]

    def result(self) -> RunResult:
        """Plus ``<component>.<metric>`` rows: IPTG mean latency, display
        underruns and worst margin, DMA bytes moved."""
        result = super().result()
        extra = result.extra
        for iptg in self.iptgs:
            extra[f"{iptg.name}.mean_latency_ps"] = iptg.mean_latency_ps()
        for display in self.displays:
            extra[f"{display.name}.underruns"] = float(display.underruns.value)
            extra[f"{display.name}.worst_margin_ps"] = float(
                display.worst_margin_ps)
        for engine in self.dmas:
            extra[f"{engine.name}.bytes_moved"] = float(
                engine.total_bytes_moved)
        return result
