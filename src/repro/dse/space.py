"""Declarative search spaces over platform configurations.

A search space is a base platform document plus named *axes*.  Each axis
is a list of values; a candidate is one index per axis (a plain tuple —
hashable, mutable by the optimizer's operators, and stable across
processes).  Axes come in two flavours:

Named axes
    ``topology`` (``shared`` | ``partial`` | ``crossbar`` — the
    application-specific crossbar question of Murali & De Micheli),
    ``protocol`` (any registered platform protocol),
    ``arbitration`` (``message`` | ``packet`` granularity),
    ``fifo_depth`` (the memory-side FIFO depths: LMI input/output FIFOs
    on LMI platforms, target request/response slots on on-chip ones) and
    ``lookahead`` (the LMI optimisation-engine window).  Each expands to
    the right set of platform-document overrides.

Dotted-path axes
    Any other axis name is a dotted path into the platform document
    (``"memory.wait_states"``, ``"traffic_scale"``), applied with the
    same semantics as the sweep engine's ``grid``.

Some assignments are contradictory rather than merely bad — a full
crossbar central node exists only for STBus, and the LMI lookahead is
meaningless without an LMI.  :meth:`SearchSpace.conflict` names the
contradiction and the space simply never yields such candidates, so the
optimizer searches the *valid* region instead of wasting simulations on
configurations that silently alias each other.

The JSON schema (see docs/DSE.md)::

    {
      "base": { ...platform document... },
      "max_us": 2000.0,
      "axes": {
        "topology": ["shared", "partial", "crossbar"],
        "protocol": ["stbus", "ahb"],
        "fifo_depth": [2, 4, 8],
        "memory.wait_states": [1, 4]
      },
      "objectives": ["latency", "cost"],
      "optimizer": {"seed": 1, "population": 8, "generations": 6}
    }
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..interconnect.protocols import platform_protocols
from ..platforms.config import PlatformConfig
from ..platforms.loader import ConfigError, config_from_dict, read_document
from ..sweep import DEFAULT_MAX_PS, bound_ps, deep_merge, set_dotted
from .objectives import DEFAULT_OBJECTIVES, resolve_objectives

#: One candidate: a value index per axis, in axis order.
Candidate = Tuple[int, ...]

_TOPOLOGIES = ("shared", "partial", "crossbar")
_ARBITRATIONS = ("message", "packet")

#: Named axes whose overrides depend on the memory kind are applied
#: after every other axis has settled the document.
_LATE_AXES = frozenset({"fifo_depth", "lookahead"})


@dataclass(frozen=True)
class Axis:
    """One search dimension: a name and its candidate values."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"axis {self.name!r}: needs at least one value")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ConfigError(f"axis {self.name!r}: duplicate values")
        checker = _AXIS_CHECKERS.get(self.name)
        if checker is not None:
            for value in self.values:
                problem = checker(value)
                if problem:
                    raise ConfigError(f"axis {self.name!r}: {problem}")


def _check_topology(value: Any) -> Optional[str]:
    if value not in _TOPOLOGIES:
        return f"unknown topology {value!r}; choose from {list(_TOPOLOGIES)}"
    return None


def _check_protocol(value: Any) -> Optional[str]:
    if value not in platform_protocols():
        return (f"unknown protocol {value!r}; registered: "
                f"{sorted(platform_protocols())}")
    return None


def _check_arbitration(value: Any) -> Optional[str]:
    if value not in _ARBITRATIONS:
        return (f"unknown arbitration {value!r}; choose from "
                f"{list(_ARBITRATIONS)}")
    return None


def _check_depth(value: Any) -> Optional[str]:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        return f"depths must be positive integers (got {value!r})"
    return None


_AXIS_CHECKERS = {
    "topology": _check_topology,
    "protocol": _check_protocol,
    "arbitration": _check_arbitration,
    "fifo_depth": _check_depth,
    "lookahead": _check_depth,
}


def _apply_axis(document: Dict[str, Any], name: str, value: Any) -> None:
    """Translate one axis assignment into document overrides."""
    if name == "topology":
        if value == "shared":
            document["topology"] = "collapsed"
            document["central_crossbar"] = False
        elif value == "partial":
            document["topology"] = "distributed"
            document["central_crossbar"] = False
        else:  # crossbar
            document["topology"] = "collapsed"
            document["central_crossbar"] = True
    elif name == "protocol":
        document["protocol"] = value
    elif name == "arbitration":
        document["message_arbitration"] = value == "message"
    elif name == "fifo_depth":
        memory = document.setdefault("memory", {})
        if memory.get("kind", "onchip") == "lmi":
            lmi = memory.setdefault("lmi", {})
            lmi["input_fifo_depth"] = value
            lmi["output_fifo_depth"] = value
        else:
            memory["request_depth"] = value
            memory["response_depth"] = value
    elif name == "lookahead":
        memory = document.setdefault("memory", {})
        memory.setdefault("lmi", {})["lookahead_depth"] = value
    else:
        set_dotted(document, name, value)


@dataclass(frozen=True)
class SearchSpace:
    """A base platform document plus the axes spanning the space."""

    base: Dict[str, Any] = field(hash=False)
    axes: Tuple[Axis, ...]
    max_ps: int = DEFAULT_MAX_PS

    def __post_init__(self) -> None:
        if not self.axes:
            raise ConfigError("search space needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate axis names in {names}")

    # ------------------------------------------------------------------
    # candidate accounting
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Raw cartesian size (including conflicted assignments)."""
        out = 1
        for axis in self.axes:
            out *= len(axis.values)
        return out

    def assignment(self, candidate: Candidate) -> Dict[str, Any]:
        """Axis-name -> value mapping for one candidate."""
        if len(candidate) != len(self.axes):
            raise ValueError(f"candidate {candidate} does not index "
                             f"{len(self.axes)} axes")
        out = {}
        for axis, index in zip(self.axes, candidate):
            if not 0 <= index < len(axis.values):
                raise ValueError(f"axis {axis.name!r}: index {index} out "
                                 f"of range")
            out[axis.name] = axis.values[index]
        return out

    def label(self, candidate: Candidate) -> str:
        """Stable human-readable identity, e.g. ``topology=shared,...``."""
        return ",".join(f"{name}={value}"
                        for name, value in self.assignment(candidate).items())

    def conflict(self, candidate: Candidate) -> Optional[str]:
        """Why this assignment is contradictory (``None`` = valid)."""
        assignment = self.assignment(candidate)
        protocol = assignment.get("protocol",
                                  self.base.get("protocol", "stbus"))
        if assignment.get("topology") == "crossbar" and protocol != "stbus":
            return (f"topology=crossbar needs protocol=stbus (the central "
                    f"crossbar node is STBus-only); got {protocol!r}")
        kind = self._memory_kind(assignment)
        if "lookahead" in assignment and kind != "lmi":
            return ("axis 'lookahead' tunes the LMI optimisation engine; "
                    f"memory.kind is {kind!r}")
        return None

    def _memory_kind(self, assignment: Dict[str, Any]) -> str:
        if "memory.kind" in assignment:
            return str(assignment["memory.kind"])
        return str(self.base.get("memory", {}).get("kind", "onchip"))

    def candidates(self) -> Iterator[Candidate]:
        """Every valid candidate, in lexicographic index order."""
        ranges = [range(len(axis.values)) for axis in self.axes]
        for combo in itertools.product(*ranges):
            if self.conflict(combo) is None:
                yield combo

    # ------------------------------------------------------------------
    # elaboration
    # ------------------------------------------------------------------
    def document(self, candidate: Candidate) -> Dict[str, Any]:
        """The platform document for one candidate (deep copy of base)."""
        conflict = self.conflict(candidate)
        if conflict is not None:
            raise ConfigError(f"candidate {self.label(candidate)!r}: "
                              f"{conflict}")
        document = json.loads(json.dumps(self.base))
        assignment = self.assignment(candidate)
        for name, value in assignment.items():
            if name not in _LATE_AXES:
                _apply_axis(document, name, value)
        for name, value in assignment.items():
            if name in _LATE_AXES:
                _apply_axis(document, name, value)
        return document

    def config(self, candidate: Candidate) -> PlatformConfig:
        """Elaborate one candidate into a :class:`PlatformConfig`."""
        try:
            return config_from_dict(self.document(candidate))
        except ValueError as exc:
            raise ConfigError(
                f"candidate {self.label(candidate)!r}: {exc}") from exc

    # ------------------------------------------------------------------
    # the optimizer's variation operators (all deterministic under `rng`)
    # ------------------------------------------------------------------
    def random_candidate(self, rng: Random) -> Candidate:
        """A uniformly drawn valid candidate (rejection sampling)."""
        for _ in range(64):
            combo = tuple(rng.randrange(len(axis.values))
                          for axis in self.axes)
            if self.conflict(combo) is None:
                return combo
        try:  # heavily constrained space: fall back to enumeration
            return next(self.candidates())
        except StopIteration:
            raise ConfigError("search space has no valid candidate "
                              "(every assignment conflicts)") from None

    def mutate(self, candidate: Candidate, rng: Random) -> Candidate:
        """Change one axis to a different value; repair conflicts."""
        for _ in range(32):
            position = rng.randrange(len(self.axes))
            width = len(self.axes[position].values)
            if width == 1:
                continue
            replacement = rng.randrange(width - 1)
            if replacement >= candidate[position]:
                replacement += 1
            mutated = (candidate[:position] + (replacement,)
                       + candidate[position + 1:])
            if self.conflict(mutated) is None:
                return mutated
        return self.random_candidate(rng)

    def crossover(self, left: Candidate, right: Candidate,
                  rng: Random) -> Candidate:
        """Uniform crossover of two parents; repair conflicts."""
        for _ in range(16):
            child = tuple(left[i] if rng.random() < 0.5 else right[i]
                          for i in range(len(self.axes)))
            if self.conflict(child) is None:
                return child
        return self.mutate(left, rng)


@dataclass(frozen=True)
class DseSpec:
    """A parsed exploration request: space, objectives, optimizer knobs."""

    space: SearchSpace
    objectives: Tuple[str, ...]
    optimizer: Dict[str, Any] = field(hash=False)


_SPEC_KEYS = frozenset({"base", "axes", "max_us", "objectives", "optimizer"})


def parse_dse(document: Dict[str, Any]) -> DseSpec:
    """Validate and expand a DSE specification document."""
    unknown = set(document) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"dse: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(_SPEC_KEYS)}")
    base = document.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("dse.base: must be a platform object")
    axes_doc = document.get("axes")
    if not isinstance(axes_doc, dict) or not axes_doc:
        raise ConfigError("dse.axes: must be a non-empty object mapping "
                          "axis names to value lists")
    axes = []
    for name, values in axes_doc.items():
        if not isinstance(values, list):
            raise ConfigError(f"dse.axes.{name}: must be a value list")
        axes.append(Axis(name=str(name), values=tuple(values)))
    space = SearchSpace(base=base, axes=tuple(axes),
                        max_ps=bound_ps(document, "dse"))

    objectives = document.get("objectives", list(DEFAULT_OBJECTIVES))
    if not isinstance(objectives, list) or not objectives:
        raise ConfigError("dse.objectives: must be a non-empty list")
    resolve_objectives(objectives)  # validates the names

    optimizer = document.get("optimizer", {})
    if not isinstance(optimizer, dict):
        raise ConfigError("dse.optimizer: must be an object")

    # Fail fast on schema typos: elaborating one candidate exercises the
    # base document, every early axis path and the config validators.
    try:
        first = next(space.candidates())
    except StopIteration:
        raise ConfigError("dse.axes: no valid candidate (every assignment "
                          "conflicts)") from None
    space.config(first)
    return DseSpec(space=space, objectives=tuple(str(o) for o in objectives),
                   optimizer=optimizer)


def load_dse(path: Union[str, Path]) -> DseSpec:
    """Read and validate a DSE specification file."""
    return parse_dse(read_document(path, "dse"))


__all__ = [
    "Axis",
    "Candidate",
    "DseSpec",
    "SearchSpace",
    "load_dse",
    "parse_dse",
]
