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
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Union

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


class ConfigError(ValueError):
    """A malformed platform configuration document."""


def _take(data: Dict[str, Any], cls, context: str) -> Dict[str, Any]:
    """Validate that ``data``'s keys are fields of dataclass ``cls``."""
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"{context}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    return data


def _ip_from_dict(data: Dict[str, Any]) -> IpSpec:
    return IpSpec(**_take(dict(data), IpSpec, f"ip {data.get('name')!r}"))


def _cluster_from_dict(data: Dict[str, Any]) -> ClusterSpec:
    payload = dict(data)
    ips = payload.pop("ips", [])
    if not isinstance(ips, list) or not ips:
        raise ConfigError(f"cluster {data.get('name')!r}: needs an 'ips' list")
    payload["ips"] = tuple(_ip_from_dict(ip) for ip in ips)
    if "stbus_type" in payload:
        payload["stbus_type"] = StbusType(payload["stbus_type"])
    return ClusterSpec(**_take(payload, ClusterSpec,
                               f"cluster {data.get('name')!r}"))


def _memory_from_dict(data: Dict[str, Any]) -> MemoryConfig:
    payload = dict(data)
    if "lmi" in payload:
        payload["lmi"] = LmiConfig(**_take(dict(payload["lmi"]), LmiConfig,
                                           "memory.lmi"))
    if "sdram" in payload:
        sdram = payload["sdram"]
        if isinstance(sdram, str):
            if sdram not in TIMING_PRESETS:
                raise ConfigError(f"memory.sdram: unknown preset {sdram!r}; "
                                  f"choose from {sorted(TIMING_PRESETS)}")
            payload["sdram"] = TIMING_PRESETS[sdram]
        else:
            payload["sdram"] = SdramTiming(**_take(dict(sdram), SdramTiming,
                                                   "memory.sdram"))
    return MemoryConfig(**_take(payload, MemoryConfig, "memory"))


def _energy_from_dict(data: Dict[str, Any]) -> EnergyConfig:
    payload = dict(data)
    if "sdram" in payload:
        sdram = payload["sdram"]
        if isinstance(sdram, str):
            if sdram not in ENERGY_PRESETS:
                raise ConfigError(f"energy.sdram: unknown preset {sdram!r}; "
                                  f"choose from {sorted(ENERGY_PRESETS)}")
            payload["sdram"] = ENERGY_PRESETS[sdram]
        else:
            payload["sdram"] = SdramEnergy(**_take(dict(sdram), SdramEnergy,
                                                   "energy.sdram"))
    return EnergyConfig(**_take(payload, EnergyConfig, "energy"))


def config_from_dict(document: Dict[str, Any]) -> PlatformConfig:
    """Build a :class:`PlatformConfig` from a parsed JSON document."""
    payload = dict(document)
    if "clusters" in payload:
        payload["clusters"] = tuple(_cluster_from_dict(c)
                                    for c in payload["clusters"])
    if "memory" in payload:
        payload["memory"] = _memory_from_dict(payload["memory"])
    if "energy" in payload:
        payload["energy"] = _energy_from_dict(payload["energy"])
    if "cpu" in payload:
        payload["cpu"] = CpuConfig(**_take(dict(payload["cpu"]), CpuConfig,
                                           "cpu"))
    if "two_phase" in payload and payload["two_phase"] is not None:
        payload["two_phase"] = TwoPhaseSpec(
            **_take(dict(payload["two_phase"]), TwoPhaseSpec, "two_phase"))
    if "central_stbus_type" in payload:
        payload["central_stbus_type"] = StbusType(
            payload["central_stbus_type"])
    try:
        return PlatformConfig(**_take(payload, PlatformConfig, "platform"))
    except TypeError as exc:  # pragma: no cover - _take catches key issues
        raise ConfigError(str(exc)) from exc


def config_to_dict(config: PlatformConfig) -> Dict[str, Any]:
    """Serialise a :class:`PlatformConfig` to a JSON-compatible dict."""
    def convert(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return {k: convert(v)
                    for k, v in dataclasses.asdict(value).items()}
        if isinstance(value, StbusType):
            return int(value)
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    result: Dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if isinstance(value, tuple):
            result[field.name] = [config_to_dict_item(v) for v in value]
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            result[field.name] = convert(value)
        elif isinstance(value, StbusType):
            result[field.name] = int(value)
        else:
            result[field.name] = value
    return result


def config_to_dict_item(value) -> Any:
    """Serialise one nested dataclass (cluster/ip) recursively."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            if isinstance(item, tuple):
                out[field.name] = [config_to_dict_item(v) for v in item]
            elif isinstance(item, StbusType):
                out[field.name] = int(item)
            elif dataclasses.is_dataclass(item) and not isinstance(item, type):
                out[field.name] = config_to_dict_item(item)
            else:
                out[field.name] = item
        return out
    return value


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
