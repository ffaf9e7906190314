"""The derived N x N bridge matrix.

Bridge pairings used to be hand-coded call sites: the platform builder
picked :class:`~repro.bridge.genconv.GenConvBridge` or
:class:`~repro.bridge.lightweight.LightweightBridge` purely from config
flags, and nothing validated the fabric pair.  This module derives the
whole matrix from the protocol registry instead:

* :func:`conversion_plan` diffs two :class:`ProtocolSpec` entries into
  the explicit store-and-forward conversion steps a bridge between them
  performs (handshake adaptation, width and clock crossing, burst
  serialisation, split downgrade, posted-write adaptation);
* :func:`validate_bridge_pair` resolves both ends of a pairing against
  the registry, raising :class:`~repro.platforms.loader.ConfigError` for
  an unregistered protocol name;
* :func:`make_bridge` turns a plan into a live bridge instance.  Both
  bridge classes were always protocol-agnostic behind the port
  abstraction; the matrix makes the pairing an explicit, validated,
  introspectable object instead of an implicit property of call sites.

For the five legacy fabrics the derived path instantiates exactly the
classes and arguments the hand-coded call sites used, so existing
platforms stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.component import Component
from ..core.kernel import Simulator
from ..interconnect.base import Fabric
from ..interconnect.protocols import (
    PROTOCOLS,
    ProtocolSpec,
    get_spec,
    spec_for_fabric,
)
from ..interconnect.types import AddressRange
from .base import BridgeBase
from .genconv import GenConvBridge
from .lightweight import LightweightBridge


@dataclass(frozen=True)
class ConversionStep:
    """One store-and-forward conversion a bridge performs."""

    kind: str    # "handshake" | "burst" | "split" | "posting" | "interleave"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class BridgePlan:
    """The derived conversion plan for one ``source -> dest`` pairing."""

    source: str
    dest: str
    split_capable: bool
    steps: Tuple[ConversionStep, ...]

    def describe(self) -> str:
        """One line per step, for docs/CLI output."""
        head = (f"{self.source} -> {self.dest} "
                f"[{'split' if self.split_capable else 'blocking'}]")
        if not self.steps:
            return head + ": direct store-and-forward"
        return head + ": " + "; ".join(s.detail for s in self.steps)

    def wire_bits(self, source_width_bytes: int = 4,
                  dest_width_bytes: int = 4) -> int:
        """Wires the bridge itself contributes: a full target-side port on
        the source protocol plus a full initiator-side port on the
        destination protocol (the DSE wire-cost model's bridge term)."""
        return (get_spec(self.source).wire_bits(source_width_bytes)
                + get_spec(self.dest).wire_bits(dest_width_bytes))


def _config_error(message: str) -> Exception:
    # Imported lazily: repro.platforms imports repro.bridge at package
    # load, so a module-level import here would be circular.
    from ..platforms.loader import ConfigError

    return ConfigError(message)


def validate_bridge_pair(source, dest) -> Tuple[ProtocolSpec, ProtocolSpec]:
    """Resolve a ``source -> dest`` bridge pairing against the registry.

    Accepts specs, registered protocol names or live fabric instances.
    Returns the resolved spec pair; raises ``ConfigError`` for a name
    the registry does not know.  Every registered pair is bridgeable.
    """
    return _resolve(source), _resolve(dest)


def _resolve(endpoint) -> ProtocolSpec:
    if isinstance(endpoint, ProtocolSpec):
        return endpoint
    if isinstance(endpoint, str):
        try:
            return get_spec(endpoint)
        except ValueError as exc:
            raise _config_error(str(exc)) from None
    return spec_for_fabric(endpoint)


def conversion_plan(source, dest,
                    split: Optional[bool] = None) -> BridgePlan:
    """Diff two specs into an explicit conversion plan.

    ``split`` forces the bridge's split capability (the platform
    ablation knobs); by default a pairing is split-capable when the
    source protocol can keep issuing during target latency *and* the
    destination sustains multiple outstanding children — otherwise the
    extra GenConv machinery buys nothing over the blocking bridge.
    """
    src, dst = validate_bridge_pair(source, dest)
    if split is None:
        split = src.split and dst.multi_outstanding
    steps = []
    if src.handshake != dst.handshake:
        steps.append(ConversionStep(
            "handshake", f"adapt {src.handshake} to {dst.handshake}"))
    if dst.single_beat and not src.single_beat:
        steps.append(ConversionStep(
            "burst", f"serialise bursts into single-beat {dst.name} "
                     "transfers"))
    elif src.single_beat and not dst.single_beat:
        steps.append(ConversionStep(
            "burst", f"forward single-beat transfers as {dst.name} bursts"))
    if src.split and not dst.split:
        steps.append(ConversionStep(
            "split", f"downgrade split {src.name} traffic onto the "
                     f"non-split {dst.name} side"
                     + ("" if split else " (blocking target side)")))
    elif dst.split and not src.split:
        steps.append(ConversionStep(
            "split", f"non-split {src.name} source serialises the split "
                     f"{dst.name} side"))
    if src.posted_writes and not dst.posted_writes:
        steps.append(ConversionStep(
            "posting", f"posted {src.name} writes complete at the bridge; "
                       f"{dst.name} acknowledgements absorbed"))
    elif dst.posted_writes and not src.posted_writes:
        steps.append(ConversionStep(
            "posting", f"non-posted {src.name} writes wait for {dst.name} "
                       "acceptance"))
    if src.response_interleave and not dst.response_interleave:
        steps.append(ConversionStep(
            "interleave", "reassemble interleaved responses into "
                          f"packet-atomic {dst.name} streams"))
    return BridgePlan(source=src.name, dest=dst.name, split_capable=split,
                      steps=tuple(steps))


def make_bridge(sim: Simulator, name: str, source: Fabric, dest: Fabric,
                address_range: AddressRange, *,
                split: Optional[bool] = None,
                crossing_cycles: Optional[int] = None,
                child_outstanding: int = 4,
                parent: Optional[Component] = None,
                **kwargs) -> BridgeBase:
    """Instantiate the derived bridge for ``source -> dest``.

    The pairing is validated against the registry first; construction
    arguments mirror the two bridge classes (``crossing_cycles``
    defaults to each class's own default when not given).
    """
    plan = conversion_plan(source, dest, split=split)
    if plan.split_capable:
        return GenConvBridge(
            sim, name, source, dest, address_range,
            crossing_cycles=1 if crossing_cycles is None else crossing_cycles,
            child_outstanding=child_outstanding, parent=parent, **kwargs)
    return LightweightBridge(
        sim, name, source, dest, address_range,
        crossing_cycles=2 if crossing_cycles is None else crossing_cycles,
        parent=parent, **kwargs)


def bridge_matrix() -> Dict[Tuple[str, str], BridgePlan]:
    """Every derivable ``(source, dest)`` plan, including same-protocol
    pairs (width/frequency conversion is still meaningful there)."""
    specs = PROTOCOLS.values()
    return {(a.name, b.name): conversion_plan(a, b)
            for a in specs for b in specs}


__all__ = [
    "BridgePlan",
    "ConversionStep",
    "bridge_matrix",
    "conversion_plan",
    "make_bridge",
    "validate_bridge_pair",
]
