"""Parallel design-space sweep engine with on-disk result caching.

The platform earns its keep by sweeping large design spaces — the
platform-instance comparisons of Figs. 3-5 and the LMI knob studies of
Fig. 6 each simulate many configurations that are completely independent
of one another.  This module is the execution layer those loops route
through:

:class:`Run`
    The one place a configuration becomes a live platform: elaborate in
    the constructor, ``advance(until_ps)`` as often as the caller likes
    (checkpoint takers and the service's preemptible units pause between
    calls), ``finish()`` for the :class:`CachedRun`.  The sweep workers,
    the CLI, the experiment helpers, the check harnesses,
    :mod:`repro.snapshot` and :mod:`repro.service` all drive this object
    and nothing else calls ``build_platform``
    (``tests/test_run_seam.py`` pins that).

:func:`sweep`
    Fan a list of :class:`~repro.platforms.config.PlatformConfig` objects
    out across worker processes and aggregate the
    :class:`~repro.platforms.result.RunResult` s deterministically (results
    come back in input order regardless of completion order).  Workers
    receive configurations serialised through the existing
    ``config_to_dict``/``config_from_dict`` round trip, run with an
    optional per-job wall-clock timeout, are retried once if a worker
    process crashes, and the whole engine degrades gracefully to
    in-process execution when multiprocessing is unavailable.

:class:`SweepCache`
    Completed points are cached on disk keyed by a canonical-JSON SHA-256
    of the configuration plus ``max_ps`` (see :func:`config_key`), so
    repeated sweeps and re-runs of ``repro run all`` skip
    already-simulated configurations.  Because every simulation is
    deterministic, a cache hit is bit-identical to a fresh run.

:func:`load_sweep` / :func:`load_target`
    Parse a ``repro sweep`` specification file — a base platform document
    plus explicit ``points`` and/or a cartesian ``grid`` of dotted-path
    overrides — into labelled configurations.  ``load_target`` also takes
    a plain platform file (the sweep of its one point): what ``repro
    check <file>`` runs.  :func:`is_sweep_document` is the one place that
    tells the two kinds apart (``repro submit`` asks it too).

Determinism and observability guarantees:

* every configuration runs on a fresh :class:`~repro.core.kernel.Simulator`
  with seeds taken from the config, so per-config ``(events, sim_time_ps)``
  are bit-identical whether the point ran serially, in a pool, or came
  from the cache (``tests/test_sweep.py`` pins this);
* while an ambient observability capture (:func:`repro.obs.capture`) is
  active the engine forces serial in-process execution and bypasses cache
  hits — span recorders only see simulators built in this process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .core import kernel as _kernel
from .platforms.config import PlatformConfig
from .platforms.loader import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    read_document,
)
from .platforms.reference import RunIncomplete, build_platform
from .platforms.result import RunResult

#: Default wall-clock guard for platform runs (simulated picoseconds).
DEFAULT_MAX_PS = 20_000_000_000_000

#: Bumped whenever the cache entry schema (or simulation semantics that
#: invalidate old entries) change; part of every cache key.
#: 2: RunResult grew energy fields (energy_pj, energy_total_pj) and the
#: configuration document grew the ``energy`` coefficient block.
CACHE_SCHEMA = 2


class SweepError(RuntimeError):
    """A sweep could not complete (crash loop, job timeout, bound overrun)."""


# ----------------------------------------------------------------------
# cache keys and result serialisation
# ----------------------------------------------------------------------
def config_key(config: PlatformConfig, max_ps: int = DEFAULT_MAX_PS) -> str:
    """Canonical-JSON SHA-256 of a configuration plus its run bound.

    The key is stable across processes and sessions: the config document
    is serialised with sorted keys and no whitespace, and the package
    version plus :data:`CACHE_SCHEMA` are mixed in so entries from an
    incompatible simulator vintage never match.
    """
    from . import __version__

    payload = {
        "schema": CACHE_SCHEMA,
        "version": __version__,
        "max_ps": int(max_ps),
        "config": config_to_dict(config),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(RunResult))


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Serialise a :class:`RunResult` to a JSON-compatible dict."""
    return dataclasses.asdict(result)


def result_from_dict(document: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult`; raises ``ConfigError`` on drift."""
    try:
        return RunResult(**{name: document[name] for name in _RESULT_FIELDS})
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed cached result: {exc}") from exc


@dataclass
class CachedRun:
    """One finished run: what the cache persists and every layer returns."""

    result: RunResult
    events: int
    sim_time_ps: int

    def to_document(self) -> Dict[str, Any]:
        """The finished-run document (cache entries, pool and service
        executors all carry exactly this)."""
        return {"result": result_to_dict(self.result),
                "events": self.events, "sim_time_ps": self.sim_time_ps}

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "CachedRun":
        """Inverse of :meth:`to_document`; extra keys are ignored."""
        return cls(result=result_from_dict(document["result"]),
                   events=int(document["events"]),
                   sim_time_ps=int(document["sim_time_ps"]))


@dataclass
class SweepOutcome:
    """One sweep point: the result plus execution provenance."""

    config: PlatformConfig
    key: str
    result: RunResult
    events: int
    sim_time_ps: int
    cached: bool


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_SWEEP_CACHE``, ``$XDG_CACHE_HOME/repro/sweeps``
    or ``~/.cache/repro/sweeps``.

    On CI runners (``$CI`` set) and on hosts without a resolvable home
    directory the default drops to a per-boot temp directory instead, so
    sweeps stay hermetic and never fail over an unwritable ``$HOME``.
    """
    override = os.environ.get("REPRO_SWEEP_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro" / "sweeps"
    if os.environ.get("CI"):
        return Path(tempfile.gettempdir()) / "repro-sweeps"
    try:
        home = Path.home()
    except (KeyError, RuntimeError):
        return Path(tempfile.gettempdir()) / "repro-sweeps"
    return home / ".cache" / "repro" / "sweeps"


def publish_atomically(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` so that no reader ever sees a torn file.

    The temp file is unique per *writer*, not per target: two processes
    publishing the same content-addressed file would otherwise interleave
    writes into one shared ``<name>.tmp`` (a torn entry) or rename it away
    from under each other (a spurious failure).  ``mkstemp`` in the target
    directory keeps ``os.replace`` atomic and last-writer-wins.  Raises
    ``OSError``; the temp file never outlives a failure.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f"{path.name[:16]}-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class SweepCache:
    """Disk cache of sweep results, one JSON file per config key.

    Reads treat any unreadable or malformed entry as a miss and writes
    are atomic (temp file + rename), so a cache shared between parallel
    invocations can never serve a torn entry.  All I/O errors degrade to
    cache-off behaviour rather than failing the sweep.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root: Optional[Path] = Path(root) if root is not None else None

    @property
    def root(self) -> Path:
        """The cache directory, resolved lazily: constructing a cache must
        never fail (or create anything) on hosts without a usable $HOME —
        only actual cache traffic touches the filesystem."""
        if self._root is None:
            self._root = default_cache_dir()
        return self._root

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[CachedRun]:
        try:
            document = json.loads(self.path_for(key).read_text())
            if not isinstance(document, dict) \
                    or document.get("schema") != CACHE_SCHEMA:
                return None
            return CachedRun.from_document(document)
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def put(self, key: str, run: CachedRun) -> None:
        document = {"schema": CACHE_SCHEMA, "key": key, **run.to_document()}
        try:
            publish_atomically(self.path_for(key),
                               json.dumps(document, sort_keys=True))
        except OSError:
            pass  # an unwritable cache must never fail the sweep

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def default_jobs() -> int:
    """Worker count when none is given: ``$REPRO_JOBS`` or 1 (serial)."""
    raw = os.environ.get("REPRO_JOBS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def capture_active() -> bool:
    """Is an ambient observability capture installed in this process?"""
    return bool(_kernel._new_sim_hooks)


class Run:
    """One configuration elaborated on one simulator.

    The constructor is the only place a :class:`PlatformConfig` becomes a
    live platform; after it the caller may :meth:`advance` any number of
    times (to capture state or yield a worker in between) and then
    :meth:`finish`.  Pausing changes nothing: a run advanced in slices
    is bit-identical to an uninterrupted one (``tests/test_kernel.py``).
    ``sim`` is for callers whose simulator must exist before elaboration
    (a trace hook, an attached :class:`~repro.obs.Capture`).
    """

    def __init__(self, config: PlatformConfig,
                 max_ps: Optional[int] = DEFAULT_MAX_PS,
                 sim: Optional[_kernel.Simulator] = None) -> None:
        self.config = config
        self.max_ps = max_ps
        self.sim = _kernel.Simulator() if sim is None else sim
        self.platform = build_platform(self.sim, config)
        self.platform.prepare()

    def advance(self, until_ps: int) -> bool:
        """Simulate to ``until_ps`` (never past ``max_ps``).

        True while the run can still be paused here — traffic in flight
        and the bound not reached; False means only :meth:`finish` is
        left to call.
        """
        bound = self.max_ps
        if bound is not None:
            until_ps = min(until_ps, bound)
        self.sim.run(until=until_ps)
        return self.platform._finish_ps is None and (
            bound is None or self.sim.now < bound)

    def finish(self) -> CachedRun:
        """Run to completion; raises if the bound is hit first."""
        result = self.platform.run(max_ps=self.max_ps)
        return CachedRun(result=result, events=self.sim.processed_events,
                         sim_time_ps=self.sim.now)


def _finish(config: PlatformConfig,
            max_ps: int) -> Union[CachedRun, RunIncomplete]:
    """One point's finished run — or its bound overrun as a value, so
    that :func:`sweep` can publish the other points before it raises."""
    try:
        return Run(config, max_ps).finish()
    except RunIncomplete as exc:
        return exc


def _worker(payload: Tuple[Dict[str, Any], int]
            ) -> Union[Dict[str, Any], RunIncomplete]:
    """Process-pool entry point: config document in, result document out."""
    document, max_ps = payload
    run = _finish(config_from_dict(document), max_ps)
    return run.to_document() if isinstance(run, CachedRun) else run


def _make_executor(jobs: int):
    """A process pool, or ``None`` when multiprocessing is unavailable."""
    try:
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(max_workers=jobs)
    except (ImportError, NotImplementedError, OSError, ValueError):
        return None


def _stop_workers(executor) -> None:
    """Kill a pool's worker processes: ``shutdown`` cancels queued jobs but
    lets a running one finish, so a job past its timeout would keep its
    worker (and the interpreter's exit) waiting.  ``concurrent.futures``
    has no public call for this before Python 3.14."""
    processes = list(executor._processes.values())
    for process in processes:
        process.kill()
    for process in processes:
        process.join()


def _pool_map(fn: Callable[[Any], Any], payloads: Sequence[Any], jobs: int,
              timeout_s: Optional[float], retries: int = 1) -> Optional[List]:
    """Ordered process-pool map with per-job timeout and crash retry.

    Returns ``None`` when no pool could be created at all (the caller
    falls back to a serial map).  A job whose worker process dies is
    resubmitted to a fresh pool up to ``retries`` times; a job that
    exceeds ``timeout_s`` aborts the sweep with :class:`SweepError`, once
    the pool's workers are stopped.
    """
    import concurrent.futures as cf
    from concurrent.futures.process import BrokenProcessPool

    results: List[Any] = [None] * len(payloads)
    pending: List[Tuple[int, Any]] = list(enumerate(payloads))
    attempt = 0
    while pending:
        executor = _make_executor(min(jobs, len(pending)))
        if executor is None:
            if attempt == 0:
                return None
            raise SweepError("process pool unavailable while retrying "
                             "crashed sweep workers")
        crashed: List[Tuple[int, Any]] = []
        try:
            submitted = [(index, payload, executor.submit(fn, payload))
                         for index, payload in pending]
            for index, payload, future in submitted:
                try:
                    results[index] = future.result(timeout=timeout_s)
                except cf.TimeoutError:
                    _stop_workers(executor)
                    raise SweepError(
                        f"sweep job {index} exceeded the {timeout_s}s "
                        f"wall-clock timeout") from None
                except BrokenProcessPool:
                    crashed.append((index, payload))
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        if crashed and attempt >= retries:
            raise SweepError(
                f"{len(crashed)} sweep worker(s) crashed "
                f"{attempt + 1} time(s); giving up")
        pending = crashed
        attempt += 1
    return results


def _resolve_cache(cache) -> Optional[SweepCache]:
    """Normalise the ``cache`` argument of :func:`sweep`."""
    if cache is False:
        return None
    if cache is None or cache is True:
        return SweepCache()
    if isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


def sweep(configs: Iterable[PlatformConfig],
          max_ps: int = DEFAULT_MAX_PS,
          jobs: Optional[int] = None,
          cache: Union[SweepCache, str, Path, bool, None] = None,
          timeout_s: Optional[float] = None,
          retries: int = 1) -> List[SweepOutcome]:
    """Run every configuration, in parallel where possible, with caching.

    ``jobs=None`` reads ``$REPRO_JOBS`` (default 1 = serial in-process).
    ``cache=None`` uses the default on-disk cache; pass ``False`` to
    disable caching or a :class:`SweepCache`/path to redirect it.
    Outcomes are returned in input order; duplicate configurations are
    simulated once and shared.  A point that overruns ``max_ps`` raises
    :class:`SweepError` — after every point that did finish is stored.
    """
    configs = list(configs)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    store = _resolve_cache(cache)
    # Span recorders attach only to simulators built in this process, and
    # a cache hit would skip simulation entirely — under a capture the
    # sweep runs serially and re-simulates every point.
    capturing = capture_active()

    keys = [config_key(config, max_ps) for config in configs]
    outcomes: List[Optional[SweepOutcome]] = [None] * len(configs)
    first_index: Dict[str, int] = {}
    duplicates: List[Tuple[int, int]] = []
    misses: List[int] = []
    for index, key in enumerate(keys):
        if key in first_index:
            duplicates.append((index, first_index[key]))
            continue
        first_index[key] = index
        if store is not None and not capturing:
            hit = store.get(key)
            if hit is not None:
                outcomes[index] = SweepOutcome(
                    config=configs[index], key=key, result=hit.result,
                    events=hit.events, sim_time_ps=hit.sim_time_ps,
                    cached=True)
                continue
        misses.append(index)

    if misses:
        runs: Optional[Iterable[Any]] = None
        if jobs > 1 and len(misses) > 1 and not capturing:
            payloads = [(config_to_dict(configs[index]), int(max_ps))
                        for index in misses]
            runs = _pool_map(_worker, payloads, jobs, timeout_s, retries)
        if runs is None:  # serial: each point is stored as it finishes
            runs = (_finish(configs[index], max_ps) for index in misses)
        overruns = []
        for index, run in zip(misses, runs):
            if isinstance(run, dict):
                run = CachedRun.from_document(run)
            elif isinstance(run, RunIncomplete):
                overruns.append((index, run))
                continue
            if store is not None:
                store.put(keys[index], run)
            outcomes[index] = SweepOutcome(
                config=configs[index], key=keys[index], result=run.result,
                events=run.events, sim_time_ps=run.sim_time_ps, cached=False)
        if overruns:
            index, overrun = overruns[0]
            raise SweepError(f"sweep point {index}: {overrun}") from overrun

    for index, source in duplicates:
        original = outcomes[source]
        outcomes[index] = SweepOutcome(
            config=configs[index], key=keys[index],
            result=dataclasses.replace(original.result),
            events=original.events, sim_time_ps=original.sim_time_ps,
            cached=True)
    return outcomes  # type: ignore[return-value]


# ----------------------------------------------------------------------
# sweep specification files (the `repro sweep` subcommand)
# ----------------------------------------------------------------------
_SPEC_KEYS = frozenset({"base", "points", "grid", "jobs", "max_us"})


@dataclass
class SweepSpec:
    """A parsed sweep file: labelled configurations plus run options."""

    labels: List[str]
    configs: List[PlatformConfig]
    jobs: Optional[int]
    max_ps: int


def deep_merge(base: Dict[str, Any],
               override: Dict[str, Any]) -> Dict[str, Any]:
    """Recursively merge ``override`` into a copy of ``base``.

    Shared by sweep ``points`` expansion and the DSE search-space
    translator (:mod:`repro.dse.space`), so both layers override platform
    documents with identical semantics.
    """
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def set_dotted(document: Dict[str, Any], dotted: str, value: Any) -> None:
    """Set a dotted-path key (``"memory.wait_states"``) in ``document``."""
    parts = dotted.split(".")
    node = document
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            child = {}
            node[part] = child
        node = child
    node[parts[-1]] = value


def parse_sweep(document: Dict[str, Any]) -> SweepSpec:
    """Expand a sweep document into labelled platform configurations.

    Schema::

        {
          "jobs": 4,                    # optional worker count
          "max_us": 20000.0,            # optional per-run bound
          "base": { ...platform document... },
          "points": [{"label": "a", ...overrides...}, ...],
          "grid": {"traffic_scale": [0.5, 1.0],
                   "memory.wait_states": [1, 4]}
        }

    ``points`` are deep-merged over ``base``; the cartesian product of
    ``grid`` (dotted paths into the document) is then applied to every
    point.  With neither, the sweep is the single ``base`` platform.
    """
    unknown = set(document) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"sweep: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(_SPEC_KEYS)}")
    base = document.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("sweep.base: must be a platform object")
    points = document.get("points", [{}])
    if not isinstance(points, list) or not points:
        raise ConfigError("sweep.points: must be a non-empty list")
    grid = document.get("grid", {})
    if not isinstance(grid, dict) or not all(
            isinstance(values, list) and values for values in grid.values()):
        raise ConfigError("sweep.grid: must map dotted paths to non-empty "
                          "value lists")

    labels: List[str] = []
    configs: List[PlatformConfig] = []
    axes = list(grid.items())
    for number, point in enumerate(points):
        if not isinstance(point, dict):
            raise ConfigError(f"sweep.points[{number}]: must be an object")
        point = dict(point)
        point_label = str(point.pop("label", f"point{number}"))
        merged = deep_merge(base, point)
        for combo in itertools.product(*(values for _, values in axes)):
            expanded = json.loads(json.dumps(merged))  # deep copy
            tags = []
            for (path, _values), value in zip(axes, combo):
                set_dotted(expanded, path, value)
                tags.append(f"{path}={value}")
            label = ",".join([point_label] + tags) if tags else point_label
            try:
                configs.append(config_from_dict(expanded))
            except ValueError as exc:
                raise ConfigError(f"sweep point {label!r}: {exc}") from exc
            labels.append(label)

    jobs = document.get("jobs")
    if jobs is not None and (not isinstance(jobs, int)
                             or isinstance(jobs, bool) or jobs < 1):
        raise ConfigError("sweep.jobs: must be a positive integer")
    return SweepSpec(labels=labels, configs=configs, jobs=jobs,
                     max_ps=bound_ps(document, "sweep"))


def bound_ps(document: Dict[str, Any], where: str) -> int:
    """A specification document's optional ``max_us`` run bound, in ps."""
    return us_to_ps(document.get("max_us", DEFAULT_MAX_PS / 1_000_000),
                    f"{where}.max_us")


def us_to_ps(value: Any, where: str) -> int:
    """A positive microsecond count from a specification document, in ps.

    A JSON boolean is not a number here, and neither is NaN, an infinity
    or a value whose picosecond count overflows a float.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not value > 0:
        raise ConfigError(f"{where}: must be a positive number")
    try:
        return int(value * 1_000_000)
    except OverflowError:
        raise ConfigError(f"{where}: must be a finite number") from None


def is_sweep_document(document: Dict[str, Any]) -> bool:
    """Is this specification a sweep (else: one platform document)?"""
    return any(key in document for key in ("points", "grid", "base"))


def parse_target(document: Dict[str, Any], max_ps: int) -> SweepSpec:
    """A run target — sweep or platform document — as a :class:`SweepSpec`.

    A platform document is the sweep of its one point, labelled
    ``config.label()`` and bounded by ``max_ps``; a sweep keeps its own
    ``max_us``.
    """
    if is_sweep_document(document):
        return parse_sweep(document)
    config = config_from_dict(document)
    return SweepSpec(labels=[config.label()], configs=[config], jobs=None,
                     max_ps=max_ps)


def load_sweep(path: Union[str, Path]) -> SweepSpec:
    """Read and expand a sweep specification file."""
    return parse_sweep(read_document(path, "sweep"))


def load_target(path: Union[str, Path], max_ps: int) -> SweepSpec:
    """Read a platform-or-sweep file (``repro check``'s file targets)."""
    return parse_target(read_document(path, "target"), max_ps)
