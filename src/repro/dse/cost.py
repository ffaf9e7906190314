"""Wire-count / area cost, derived from the protocol registry.

The crossbar question is a cost question: a full crossbar buys
contention-free paths with O(initiators x targets) wiring, a shared bus
spends O(initiators + targets), and the partial (multi-layer, bridged)
topologies sit between.  This model makes that trade-off a first-class
objective without running a single simulation:

* each protocol's per-port wire count comes from its registry signal
  table (:meth:`ProtocolSpec.wire_bits`), scaled to the fabric's data
  width;
* a shared node wires every port onto one set of shared lines —
  ``bits * (initiators + targets)``;
* a crossbar wires every initiator to every target —
  ``bits * initiators * targets`` — plus the same per-port interface
  wiring as the shared node;
* a bridge contributes a target-side port on its source protocol and an
  initiator-side port on its destination protocol
  (:meth:`BridgePlan.wire_bits`);
* FIFO storage (memory request/response slots, LMI input/output FIFOs,
  the lookahead window's address/opcode entries) is counted in bits so
  buffering axes have a real cost, not a free lunch.

The unit is *wire bits*: a relative figure of merit for ranking
configurations, not square millimetres.  It is exact given the config —
the LT screening drift bound for the ``cost`` objective is zero.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..bridge.matrix import conversion_plan
from ..interconnect.protocols import spec_for_platform
from ..memory.lmi import LmiConfig
from ..platforms.config import PlatformConfig
from ..platforms.netlist import lower

#: Bits per lookahead-window entry: a 32-bit address plus opcode/length
#: bookkeeping, matching the LMI controller's queue entries.
_LOOKAHEAD_ENTRY_BITS = 40


def wire_cost(protocol: str, initiators: int, targets: int,
              width_bytes: int = 4, *, crossbar: bool = False,
              stbus_type: int = 3) -> int:
    """Wire bits of one interconnect node.

    ``protocol`` is a ``PlatformConfig.protocol`` value (``stbus_type``
    disambiguates the STBus tiers).  ``crossbar=True`` adds the full
    initiator-by-target switch matrix on top of the per-port interface
    wiring both organisations need.
    """
    if initiators < 1 or targets < 1:
        raise ValueError("a node needs at least one initiator and one "
                         "target")
    bits = spec_for_platform(protocol, stbus_type).wire_bits(width_bytes)
    ports = bits * (initiators + targets)
    if crossbar:
        return ports + bits * initiators * targets
    return ports


def _fifo_bits(kind: str, params: Dict[str, Any], width_bytes: int) -> int:
    """Storage bits of one memory's buffering, in words of its fabric."""
    word = width_bytes * 8
    if kind == "lmi":
        lmi = LmiConfig(**(params["config"] or {}))
        return (word * (lmi.input_fifo_depth + lmi.output_fifo_depth)
                + _LOOKAHEAD_ENTRY_BITS * lmi.lookahead_depth)
    return word * (params["request_depth"] + params["response_depth"])


def _node(fabric: Dict[str, Any]) -> Tuple[str, int]:
    """A netlist fabric's platform protocol key and STBus type."""
    protocol = fabric["protocol"]
    return ("stbus" if protocol == "stbus-xbar" else protocol,
            fabric["stbus_type"])


def platform_cost(config: PlatformConfig) -> int:
    """Total interconnect wire bits + FIFO storage bits of a platform.

    It prices what the builder builds: ``config.netlist or
    lower(config)``.  Each fabric is a node wired to its initiators (the
    traffic sources on it and the bridges into it) and its targets (the
    memories on it and the bridges out of it); an ``stbus-xbar`` fabric
    is the full switch matrix.  Each bridge adds the ports of its
    conversion plan, and each memory its buffering at its fabric's
    width.
    """
    entries = [(entry.kind, entry.name, entry.filled())
               for entry in config.netlist or lower(config)]
    fabrics = {name: params for kind, name, params in entries
               if kind == "fabric"}
    initiators = dict.fromkeys(fabrics, 0)
    targets = dict.fromkeys(fabrics, 0)
    total = 0
    for kind, _name, params in entries:
        if kind == "bridge":
            source, dest = fabrics[params["source"]], fabrics[params["dest"]]
            targets[params["source"]] += 1
            initiators[params["dest"]] += 1
            plan = conversion_plan(spec_for_platform(*_node(source)),
                                   spec_for_platform(*_node(dest)))
            total += plan.wire_bits(source["width_bytes"],
                                    dest["width_bytes"])
        elif kind in ("onchip", "lmi"):
            targets[params["fabric"]] += 1
            total += _fifo_bits(kind, params,
                                fabrics[params["fabric"]]["width_bytes"])
        elif kind != "fabric":
            initiators[params["fabric"]] += 1
    for name, fabric in fabrics.items():
        protocol, stbus_type = _node(fabric)
        total += wire_cost(protocol, max(1, initiators[name]),
                           max(1, targets[name]), fabric["width_bytes"],
                           crossbar=fabric["protocol"] == "stbus-xbar",
                           stbus_type=stbus_type)
    return total


__all__ = ["platform_cost", "wire_cost"]
