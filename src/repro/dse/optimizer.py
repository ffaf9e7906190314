"""The seeded evolutionary / branch-and-bound hybrid search driver.

Two regimes, one contract:

Exhaustive
    Spaces of at most ``exhaustive_limit`` raw assignments are simply
    enumerated and every valid candidate evaluated cycle-accurately.
    The returned front is then *exact* by construction — this is the
    regime the differential test pins against an independent grid
    search.

Evolutionary
    Larger spaces run a (mu + lambda)-style loop seeded from
    ``random.Random(options.seed)``: an initial random population, then
    per generation a brood bred from the current Pareto archive
    (crossover between front members, mutation, plus random immigrants),
    with every candidate evaluated at most once.  When screening is on,
    each brood is first evaluated in loosely-timed mode and
    :func:`repro.dse.pareto.prune_screened` discards candidates whose
    screened vectors prove them dominated under the docs/FAST_SIM.md
    drift bounds (scaled by ``options.margin``) — those never get a
    cycle-accurate run.  Survivors are re-validated cycle-accurately and
    only those vectors enter the archive, so LT inaccuracy can cost
    simulations, never corrupt the front.

Determinism: all randomness flows from the seed, candidates are handed
to :func:`repro.sweep.sweep` in sorted order and its outcomes come back
in input order regardless of ``jobs``, so the front is a pure function
of (spec, options) — byte-identical across reruns, worker counts and
cache states.  Every outcome is re-checked by the independent
:func:`repro.dse.pareto.verify_front` before being returned; a non-empty
violation list is a bug in the optimizer, and :func:`explore` refuses to
return one silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..platforms.config import PlatformConfig
from ..platforms.loader import ConfigError
from ..platforms.result import RunResult
from ..sweep import sweep
from .objectives import Objective, drift_bounds, resolve_objectives
from .pareto import (
    ParetoArchive,
    Point,
    Vector,
    check_vector,
    prune_screened,
    verify_front,
)
from .space import Candidate, DseSpec, SearchSpace, load_dse


@dataclass(frozen=True)
class OptimizerOptions:
    """Search knobs, all with spec-file spellings (docs/DSE.md)."""

    seed: int = 1
    population: int = 8
    generations: int = 6
    #: Raw-space sizes up to this are enumerated exhaustively (exact
    #: front); above it the evolutionary loop runs.
    exhaustive_limit: int = 64
    #: "auto" screens only in the evolutionary regime; "lt" always
    #: screens; "off" never does.
    screen: str = "auto"
    #: Safety factor applied to the documented LT drift bounds before
    #: pruning; must be >= 1.
    margin: float = 2.0
    jobs: Optional[int] = None
    cache: Union[bool, str, None] = None

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ConfigError("optimizer.population must be >= 2")
        if self.generations < 1:
            raise ConfigError("optimizer.generations must be >= 1")
        if self.exhaustive_limit < 1:
            raise ConfigError("optimizer.exhaustive_limit must be >= 1")
        if self.screen not in ("auto", "lt", "off"):
            raise ConfigError(f"optimizer.screen: unknown mode "
                              f"{self.screen!r} (auto | lt | off)")
        if self.margin < 1.0:
            raise ConfigError("optimizer.margin must be >= 1.0 (shrinking "
                              "the drift bounds is unsound)")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any],
                     **overrides: Any) -> "OptimizerOptions":
        """Build options from a spec's ``optimizer`` object."""
        merged = dict(mapping)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        unknown = set(merged) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ConfigError(
                f"dse.optimizer: unknown keys {sorted(unknown)}; allowed: "
                f"{sorted(cls.__dataclass_fields__)}")
        return cls(**merged)


@dataclass(frozen=True)
class EvaluatedPoint:
    """One explored design: identity, assignment, objectives, provenance."""

    label: str
    candidate: Candidate
    assignment: Dict[str, Any] = field(hash=False, compare=False)
    vector: Vector
    #: Objective name -> value, same numbers as ``vector``.
    objectives: Dict[str, float] = field(hash=False, compare=False)
    #: "ca" for cycle-accurate vectors, "lt" for screened-only points.
    fidelity: str = "ca"
    cached: bool = False
    sim_time_ps: int = 0

    def as_point(self) -> Point:
        return Point(key=self.label, vector=self.vector, payload=self)


@dataclass(frozen=True)
class DseOutcome:
    """Everything an exploration produced.

    ``front`` and ``evaluated`` hold cycle-accurate points only;
    ``pruned`` holds the loosely-timed screened points the bound proved
    dominated (never CA-simulated).  ``violations`` is the independent
    verifier's report over (front, evaluated) — empty on every healthy
    run.
    """

    mode: str  # "exhaustive" | "evolutionary"
    objectives: Tuple[str, ...]
    front: Tuple[EvaluatedPoint, ...]
    evaluated: Tuple[EvaluatedPoint, ...]
    pruned: Tuple[EvaluatedPoint, ...]
    generations: int
    space_size: int
    violations: Tuple[str, ...]

    @property
    def simulations(self) -> int:
        """Simulator runs spent (CA evaluations + LT screens)."""
        return len(self.evaluated) + len(self.pruned)


def _evaluate(space: SearchSpace, candidates: Sequence[Candidate],
              objectives: Sequence[Objective], options: OptimizerOptions,
              fidelity: str) -> List[EvaluatedPoint]:
    """Run a batch through the sweep engine at one fidelity.

    Candidates are simulated in sorted order (determinism does not then
    depend on how the caller assembled the batch) and the sweep engine
    guarantees input-order outcomes for any ``jobs``.
    """
    ordered = sorted(candidates)
    configs = []
    for candidate in ordered:
        config = space.config(candidate)
        if fidelity == "lt":
            config = replace(config, resolution="lt")
        configs.append(config)
    outcomes = sweep(configs, max_ps=space.max_ps, jobs=options.jobs,
                     cache=options.cache)
    points = []
    for candidate, outcome in zip(ordered, outcomes):
        values = _vector(outcome.result, outcome.config, objectives)
        points.append(EvaluatedPoint(
            label=space.label(candidate),
            candidate=candidate,
            assignment=space.assignment(candidate),
            vector=check_vector(values),
            objectives={obj.name: value
                        for obj, value in zip(objectives, values)},
            fidelity=fidelity,
            cached=outcome.cached,
            sim_time_ps=outcome.sim_time_ps,
        ))
    return points


def _vector(result: RunResult, config: PlatformConfig,
            objectives: Sequence[Objective]) -> Tuple[float, ...]:
    return tuple(obj.extract(result, config) for obj in objectives)


def _initial_population(space: SearchSpace, rng: Random,
                        count: int) -> List[Candidate]:
    chosen: List[Candidate] = []
    seen = set()
    for _ in range(count * 8):
        if len(chosen) >= count:
            break
        candidate = space.random_candidate(rng)
        if candidate not in seen:
            seen.add(candidate)
            chosen.append(candidate)
    return chosen


def _breed(space: SearchSpace, rng: Random, front: Sequence[EvaluatedPoint],
           seen: set, count: int) -> List[Candidate]:
    """Propose ``count`` unseen candidates from the current front."""
    parents = [p.candidate for p in front]
    brood: List[Candidate] = []
    produced = set()
    for _ in range(count * 10):
        if len(brood) >= count:
            break
        roll = rng.random()
        if len(parents) >= 2 and roll < 0.4:
            left, right = rng.sample(parents, 2)
            child = space.crossover(left, right, rng)
        elif parents and roll < 0.8:
            child = space.mutate(rng.choice(parents), rng)
        else:
            child = space.random_candidate(rng)
        if child not in seen and child not in produced:
            produced.add(child)
            brood.append(child)
    return brood


def optimize(spec: DseSpec,
             options: Optional[OptimizerOptions] = None) -> DseOutcome:
    """Search a spec's space and return its verified Pareto front."""
    if options is None:
        options = OptimizerOptions.from_mapping(spec.optimizer)
    space = spec.space
    objectives = resolve_objectives(spec.objectives)
    size = space.size()
    exhaustive = size <= options.exhaustive_limit
    screening = (options.screen == "lt"
                 or (options.screen == "auto" and not exhaustive))
    bounds = drift_bounds(objectives, options.margin)
    rng = Random(options.seed)
    archive = ParetoArchive(dimensions=len(objectives))
    evaluated: Dict[Candidate, EvaluatedPoint] = {}
    pruned_points: List[EvaluatedPoint] = []
    seen: set = set()

    def run_round(batch: Sequence[Candidate]) -> None:
        batch = [c for c in batch if c not in seen]
        seen.update(batch)
        if not batch:
            return
        if screening:
            screened = _evaluate(space, batch, objectives, options, "lt")
            survivors, pruned = prune_screened(
                [p.as_point() for p in screened], bounds)
            pruned_points.extend(p.payload for p in pruned)
            batch = sorted(p.payload.candidate for p in survivors)
            if not batch:
                return
        for point in _evaluate(space, batch, objectives, options, "ca"):
            evaluated[point.candidate] = point
            archive.add(point.as_point())

    generations = 0
    if exhaustive:
        run_round(list(space.candidates()))
        mode = "exhaustive"
    else:
        run_round(_initial_population(space, rng, options.population))
        for generations in range(1, options.generations + 1):
            front_points = [p.payload for p in archive.front()]
            brood = _breed(space, rng, front_points, seen,
                           options.population)
            if not brood:
                break
            run_round(brood)
        mode = "evolutionary"

    front = tuple(p.payload for p in archive.front())
    population = [p.as_point() for p in evaluated.values()]
    violations = tuple(verify_front([p.as_point() for p in front],
                                    population))
    return DseOutcome(
        mode=mode,
        objectives=tuple(obj.name for obj in objectives),
        front=front,
        evaluated=tuple(sorted(evaluated.values(),
                               key=lambda p: (p.vector, p.label))),
        pruned=tuple(sorted(pruned_points,
                            key=lambda p: (p.vector, p.label))),
        generations=generations,
        space_size=size,
        violations=violations,
    )


def explore(spec: Union[DseSpec, str, Path],
            **overrides: Any) -> DseOutcome:
    """Load (if needed), search, verify; the Python entry point.

    Keyword overrides are :class:`OptimizerOptions` fields and win over
    the spec file's ``optimizer`` object (``None`` values are ignored,
    so CLI plumbing can pass absent flags straight through).  Raises
    ``RuntimeError`` if the independent verifier rejects the front —
    a front that fails its own audit must never look like success.
    """
    if not isinstance(spec, DseSpec):
        spec = load_dse(spec)
    options = OptimizerOptions.from_mapping(spec.optimizer, **overrides)
    outcome = optimize(spec, options)
    if outcome.violations:
        raise RuntimeError(
            "dse: front failed independent verification:\n  "
            + "\n  ".join(outcome.violations))
    return outcome


__all__ = [
    "DseOutcome",
    "EvaluatedPoint",
    "OptimizerOptions",
    "explore",
    "optimize",
]
