"""Platform configuration files.

The paper's IPTG is driven by "a per-IP configuration file, where all the
required options and parameters are set" (Section 3.1).  This module
provides the equivalent for the whole platform: JSON documents describing
clusters, IPs, memory, CPU and variant knobs, convertible to/from
:class:`~repro.platforms.config.PlatformConfig` — so experiment setups are
data, versionable and shareable, rather than Python code.

Schema (all sections optional; omitted fields keep their defaults)::

    {
      "protocol": "stbus", "topology": "distributed",
      "traffic_scale": 1.0, "seed": 1,
      "memory": {"kind": "lmi", "lmi": {"input_fifo_depth": 6, ...}},
      "cpu": {"enabled": true, "blocks": 200},
      "two_phase": {"fraction": 0.7, "idle_multiplier": 1.2, "burst_run": 40},
      "clusters": [
        {"name": "n5_dma", "freq_mhz": 250, "data_width_bytes": 8,
         "stbus_type": 3,
         "ips": [{"name": "dma0", "transactions": 120, "burst_beats": 8,
                  "read_fraction": 0.95, "idle_cycles": 2,
                  "message_packets": 2, "pattern": "seq"}]}
      ]
    }

A *netlist* document places components by hand, built in list order
(which fixes same-instant event order); beside ``netlist`` it may carry
only ``resolution`` and ``energy``.  A reference document is built as
the netlist :func:`~repro.platforms.netlist.lower` makes of it, itself a
valid document.  Kinds and keys (defaults in
:data:`~repro.platforms.netlist.NETLIST_SCHEMA`): ``fabric`` protocol,
freq_mhz, width_bytes, stbus_type, arbiter, message_arbitration;
``onchip`` fabric, base, span, wait_states, request_depth,
response_depth, access_latency_cycles, pipeline_depth; ``lmi`` fabric,
base, span, freq_mhz, config, sdram; ``bridge`` source, dest, base, span,
split, crossing_cycles, child_outstanding; ``iptg`` fabric, base, span,
transactions, seed, idle_cycles, read_fraction, priority,
max_outstanding, burst_beats, message_packets, pattern, clock_mhz,
beat_bytes, two_phase; ``cpu`` fabric, base, blocks, working_set, seed;
``dma`` fabric, src, dst, length; ``display`` fabric, framebuffer_base,
lines.  Every value is checked against its key (addresses are integers
>= 0, spans and counts >= 1) and the whole list against
:func:`~repro.platforms.netlist.check_netlist`::

    {"netlist": [{"kind": "fabric", "name": "node", "arbiter": "lru"},
                 {"kind": "onchip", "name": "mem", "fabric": "node",
                  "base": 0, "span": 65536},
                 {"kind": "iptg", "name": "ip0", "fabric": "node",
                  "base": 0, "span": 65536, "transactions": 40, "seed": 20}]}
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Tuple, Union

from ..interconnect.types import StbusType
from ..memory.lmi import LmiConfig
from ..memory.timing import ENERGY_PRESETS, TIMING_PRESETS, SdramEnergy, SdramTiming
from ..obs.energy import EnergyConfig
from .config import (
    ClusterSpec,
    CpuConfig,
    IpSpec,
    MemoryConfig,
    PlatformConfig,
    TwoPhaseSpec,
)
from .netlist import NetEntry


class ConfigError(ValueError):
    """A malformed platform configuration document."""


def _object(data: Any, context: str) -> Dict[str, Any]:
    """A copy of ``data``, which must be a JSON object."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: must be an object, not {data!r}")
    return dict(data)


def _make(cls, data: Any, context: str):
    """``cls(**data)`` for a JSON object ``data`` of ``cls`` fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context}: must be an object, not {data!r}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"{context}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    return cls(**data)


def _clusters_from_list(clusters: Any) -> Tuple[ClusterSpec, ...]:
    parsed = []
    for data in clusters:
        payload = _object(data, "clusters entry")
        context = f"cluster {payload.get('name')!r}"
        ips = payload.pop("ips", [])
        if not isinstance(ips, list) or not ips:
            raise ConfigError(f"{context}: needs an 'ips' list")
        payload["ips"] = tuple([_make(IpSpec, ip, f"{context}: ip")
                                for ip in ips])
        if "stbus_type" in payload:
            payload["stbus_type"] = StbusType(payload["stbus_type"])
        parsed.append(_make(ClusterSpec, payload, context))
    return tuple(parsed)


def _preset(value: Any, presets: Dict[str, Any], cls, context: str):
    """A named preset or an object of ``cls`` fields."""
    if isinstance(value, str):
        if value not in presets:
            raise ConfigError(f"{context}: unknown preset {value!r}; "
                              f"choose from {sorted(presets)}")
        return presets[value]
    return _make(cls, value, context)


def _memory_from_dict(data: Any) -> MemoryConfig:
    payload = _object(data, "memory")
    if "lmi" in payload:
        payload["lmi"] = _make(LmiConfig, payload["lmi"], "memory.lmi")
    if "sdram" in payload:
        payload["sdram"] = _preset(payload["sdram"], TIMING_PRESETS,
                                   SdramTiming, "memory.sdram")
    return _make(MemoryConfig, payload, "memory")


def _energy_from_dict(data: Any) -> EnergyConfig:
    payload = _object(data, "energy")
    if "sdram" in payload:
        payload["sdram"] = _preset(payload["sdram"], ENERGY_PRESETS,
                                   SdramEnergy, "energy.sdram")
    return _make(EnergyConfig, payload, "energy")


def _netlist(entries: Any) -> Tuple[NetEntry, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("netlist: must be a non-empty list of entries")
    return tuple([NetEntry.of(**_object(entry, "netlist entry"))
                  for entry in entries])


#: The top-level keys a netlist document may carry beside ``netlist``;
#: every other key describes the reference topology.
NETLIST_KEYS = frozenset({"netlist", "resolution", "energy"})

#: Top-level section -> its parser, or the dataclass it holds.
_SECTIONS = {
    "clusters": _clusters_from_list,
    "memory": _memory_from_dict,
    "energy": _energy_from_dict,
    "cpu": CpuConfig,
    "two_phase": TwoPhaseSpec,
    "central_stbus_type": StbusType,
    "netlist": _netlist,
}


def config_from_dict(document: Dict[str, Any]) -> PlatformConfig:
    """Build a :class:`PlatformConfig` from a parsed JSON document; any
    malformed section is a :class:`ConfigError` that names it."""
    payload = dict(document)
    if "netlist" in payload and set(payload) - NETLIST_KEYS:
        raise ConfigError(
            f"netlist: cannot be combined with reference-topology keys "
            f"{sorted(set(payload) - NETLIST_KEYS)}")
    section = "platform"
    try:
        for section, parse in _SECTIONS.items():
            value = payload.get(section)
            if section not in payload or parse is TwoPhaseSpec \
                    and value is None:
                continue  # absent, or a single-phase lifetime
            payload[section] = _make(parse, value, section) \
                if dataclasses.is_dataclass(parse) else parse(value)
        section = "platform"
        return _make(PlatformConfig, payload, section)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_to_dict(config: PlatformConfig) -> Dict[str, Any]:
    """Serialise a :class:`PlatformConfig` to a JSON-compatible dict; a
    netlist platform has no reference-topology keys."""
    document = _plain(config)
    del document["netlist"]
    if config.netlist:
        document = {key: value for key, value in document.items()
                    if key in NETLIST_KEYS}
        document["netlist"] = [{"kind": entry.kind, "name": entry.name,
                                **dict(entry.params)}
                               for entry in config.netlist]
    return document


def _plain(value: Any) -> Dict[str, Any]:
    """A dataclass as JSON types (dicts, lists, ints for enums)."""
    out = {}
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if isinstance(item, tuple):
            item = [_plain(entry) if dataclasses.is_dataclass(entry)
                    else entry for entry in item]
        elif isinstance(item, StbusType):
            item = int(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            item = _plain(item)
        out[field.name] = item
    return out


def read_document(path: Union[str, Path], what: str) -> Dict[str, Any]:
    """Read a user-supplied ``what`` specification file as a JSON object.

    Every failure mode — missing/unreadable file, malformed JSON, wrong
    document shape — surfaces as :class:`ConfigError`, so callers (the
    CLI in particular) can report one clean line instead of a traceback.
    """
    try:
        document = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(
            f"{path}: {exc.strerror or f'cannot read {what} file'}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return document


def load_config(path: Union[str, Path]) -> PlatformConfig:
    """Read a platform configuration from a JSON file."""
    return config_from_dict(read_document(path, "config"))


def save_config(config: PlatformConfig, path: Union[str, Path]) -> None:
    """Write a platform configuration to a JSON file (round-trippable)."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2)
                          + "\n")
