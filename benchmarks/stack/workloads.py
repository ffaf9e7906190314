"""The four workloads of the stack benchmark.

Each workload is a *round* of fixed, identical work that the driver
repeats; a round is made of *units*, the thing a user waits for (one
platform run, one cold+warm sweep pair, one service job).  Workloads
call the program through public functions only and leave every program
default alone except what the workload names, so a later change to a
default (say, thread fleet to process fleet) is measured.

A workload never checks its own answers while it is being timed: it
hands back every delivered result with the key of its reference, and
the driver compares them through ``result_to_dict`` once the clock has
stopped.
"""

from __future__ import annotations

import http.client
import multiprocessing
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.lt_accuracy import EXACT_FIELDS, LtRun
from repro.core import Simulator
from repro.platforms import (
    build_platform,
    fig3_instances,
    fig5_instances,
    instance,
    onchip_memory,
    quick_config,
)
from repro.platforms.loader import config_from_dict, config_to_dict
from repro.service import BackgroundService, ServiceClient
from repro.snapshot import resume_checkpoint, take_checkpoint
from repro.sweep import (
    CachedRun,
    SweepCache,
    config_key,
    result_to_dict,
    sweep,
)

import spans

now = time.perf_counter


@dataclass
class Unit:
    """One thing a client waited for."""

    kind: str
    seconds: float
    #: ``(reference key, result)`` for every result the unit delivered;
    #: a result is a ``RunResult`` or an already-serialised dict.
    delivered: List[Tuple[str, Any]] = field(default_factory=list)
    #: Kernel events the program executed for this unit (0 for a hit).
    events: int = 0
    #: Set when the unit raised, returned a typed error, timed out or
    #: broke a clause of the workload; it then counts as failed.
    error: Optional[str] = None


@dataclass
class Round:
    wall: float
    units: List[Unit]
    #: Per-round counts a workload wants reported (hits, misses, ...).
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Traced:
    """What a workload may read when it reports its per-layer metrics."""

    #: Median calibrated milliseconds of the spans with this name.
    cal_ms: Callable[[str], float]
    #: Median calibrated milliseconds of the traced rounds' units of one
    #: kind.
    unit_p50: Callable[[str], float]
    #: Median of each ``Round.counts`` entry over the traced rounds.
    counts: Dict[str, float]
    #: Median calibrated seconds of a traced round.
    round_s: float


@dataclass
class Reference:
    """Direct in-process ``build_platform(...).run()`` of one config."""

    result: Dict[str, Any]
    events: int
    sim_time_ps: int
    seconds: float


def direct_run(config, recorder=None, unit: str = ""):
    """``Simulator()`` + ``build_platform`` + ``run``: the baseline every
    other path (pooled, cached, served, resumed) must reproduce."""
    if recorder is None:
        sim = Simulator()
        return sim, build_platform(sim, config).run()
    with recorder.span("platforms.build", unit=unit):
        sim = Simulator()
        platform = build_platform(sim, config)
    with recorder.span("platforms.run", unit=unit):
        return sim, platform.run()


def make_reference(config) -> Reference:
    start = now()
    sim, result = direct_run(config)
    seconds = now() - start
    return Reference(result_to_dict(result), sim.processed_events, sim.now,
                     seconds)


class Workload:
    """Base: set-up products, the round, scoring and trace probes."""

    name = ""
    why = ""
    #: Profile per-thread CPU time instead of wall time (threads that
    #: mostly block would otherwise bill their waiting to the stdlib).
    profile_cpu_time = False
    #: Below this the run's outputs count as wrong.
    min_accuracy_pct = 100.0

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        self.tmp = tmp
        self.references: Dict[str, Reference] = {}
        self.configs: Dict[str, Any] = {}
        self._serial = 0

    # -- set-up ---------------------------------------------------------
    def set_up(self) -> None:
        """Make the inputs from the seed and their reference results."""
        self.configs = self.make_configs()
        self.references = {key: make_reference(config)
                           for key, config in self.reference_configs().items()}

    def make_configs(self) -> Dict[str, Any]:
        raise NotImplementedError

    def reference_configs(self) -> Dict[str, Any]:
        return self.configs

    # -- the round ------------------------------------------------------
    def run_round(self, recorder, profiled: bool = False,
                  inject: Optional[Dict[int, str]] = None) -> Round:
        """One round.  ``profiled`` asks for a variant whose simulations
        all run in this process; ``inject`` maps unit index to a fault
        (``"raise"`` / ``"corrupt"``) for the self-test."""
        raise NotImplementedError

    # -- scoring --------------------------------------------------------
    def score(self, reference: Reference, result: Dict[str, Any]) -> float:
        """Accuracy of one delivered result in [0, 1]."""
        return 1.0 if result == reference.result else 0.0

    def clause_broken(self, reference: Reference,
                      result: Dict[str, Any]) -> Optional[str]:
        """The universal clause: transactions and bytes are exact."""
        for name in EXACT_FIELDS:
            if result.get(name) != reference.result[name]:
                return (f"{name}: {result.get(name)!r} != "
                        f"{reference.result[name]!r}")
        return None

    # -- traced run -----------------------------------------------------
    def probes(self, recorder) -> None:
        """Direct calls, under spans, into the layers this workload
        leans on but never calls itself."""
        for key, config in self.configs.items():
            with recorder.span("platforms.config_roundtrip", unit=key):
                config_from_dict(config_to_dict(config))

    def layer_metrics(self, traced: "Traced") -> Dict[str, float]:
        """Per-layer metrics only this workload can report."""
        return {}

    def shuffled(self, items: List[Any]) -> List[Any]:
        """``items`` in the order ``--seed`` puts them in.  The corpus of
        configurations is the same at every seed, so per-transaction
        counts are too; the seed decides which unit meets which
        configuration and in what order."""
        items = list(items)
        random.Random(self.seed).shuffle(items)
        return items

    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        return self.tmp / f"{label}-{self._serial}"


def _fault(inject: Optional[Dict[int, str]], index: int, kind: str) -> bool:
    return bool(inject) and inject.get(index) == kind


def _corrupted(result: Any) -> Dict[str, Any]:
    document = dict(result if isinstance(result, dict)
                    else result_to_dict(result))
    document["execution_time_ps"] += 1
    return document


# ----------------------------------------------------------------------
# platform_ca / platform_lt
# ----------------------------------------------------------------------
class PlatformCa(Workload):
    name = "platform_ca"
    why = ("six cycle-accurate platform runs in-process, no cache: model "
           "code does all the work, sweep/service/snapshot none")
    resolution = "ca"
    traffic_scale = 0.2

    def make_configs(self) -> Dict[str, Any]:
        fig3 = fig3_instances(self.traffic_scale)
        fig5 = fig5_instances(self.traffic_scale)
        base = {
            # on-chip memory: both hand-written fabrics and bridges
            "full_stbus": fig3["full_stbus"],
            "full_ahb": fig3["full_ahb"],
            "distributed_axi": fig3["distributed_axi"],
            # LMI controller + SDRAM
            "lmi_distributed_stbus": fig5["distributed_stbus"],
            "lmi_collapsed_axi": fig5["collapsed_axi"],
            # the spec-driven GenericFabric engine
            "generic_tilelink": instance(
                "tilelink", "distributed", onchip_memory(1),
                traffic_scale=self.traffic_scale),
        }
        # One fixed traffic seed per unit (with a shared one the six
        # platforms draw the same transaction mix); --seed orders them.
        corpus = {key: config.scaled(seed=index + 1,
                                     resolution=self.resolution)
                  for index, (key, config) in enumerate(base.items())}
        return {key: corpus[key] for key in self.shuffled(sorted(corpus))}

    def run_round(self, recorder, profiled=False, inject=None) -> Round:
        units: List[Unit] = []
        begin = now()
        for index, (key, config) in enumerate(self.configs.items()):
            start = now()
            try:
                with recorder.span("unit", unit=key):
                    if _fault(inject, index, "raise"):
                        raise RuntimeError("injected fault")
                    sim, result = direct_run(config, recorder
                                             if recorder.enabled else None,
                                             key)
                seconds = now() - start
                if _fault(inject, index, "corrupt"):
                    result = _corrupted(result)
                units.append(Unit(key, seconds, [(key, result)],
                                  sim.processed_events))
            except Exception as exc:  # a failed unit is a counted outcome
                units.append(Unit(key, now() - start,
                                  error=f"{type(exc).__name__}: {exc}"))
        return Round(now() - begin, units)


class PlatformLt(PlatformCa):
    name = "platform_lt"
    why = ("the same six platforms loosely timed: inline dispatch and "
           "analytic fast-forward instead of per-cycle arbitration; the "
           "accuracy column beside platform_ca's speed column")
    resolution = "lt"
    min_accuracy_pct = 99.0

    def reference_configs(self) -> Dict[str, Any]:
        # The reference of a loosely-timed run is the cycle-accurate one.
        return {key: config.scaled(resolution="ca")
                for key, config in self.configs.items()}

    def score(self, reference: Reference, result: Dict[str, Any]) -> float:
        exact = reference.result["execution_time_ps"]
        return 1.0 - abs(result["execution_time_ps"] - exact) / exact

    def probes(self, recorder) -> None:
        super().probes(recorder)
        self._comparisons = []
        for key, config in self.configs.items():
            with recorder.span("check.lt_run", unit=key):
                self._comparisons.append(LtRun(config, max_ps=None))

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        pairs = self._comparisons
        return {
            "check.lt_exec_err_pct_max": 100.0 * max(
                pair.execution_time_drift for pair in pairs),
            "check.lt_latency_err_pct_max": 100.0 * max(
                pair.mean_latency_drift for pair in pairs),
            "check.lt_event_ratio": (sum(pair.ca_events for pair in pairs)
                                     / sum(pair.lt_events for pair in pairs)),
        }


# ----------------------------------------------------------------------
# sweep_fanout
# ----------------------------------------------------------------------
def _quick(seed: int):
    return quick_config(traffic_scale=0.03, seed=seed)


class SweepFanout(Workload):
    name = "sweep_fanout"
    why = ("cold then warm sweep() of 8 small points on 2 workers against "
           "a fresh cache: pool start-up, pickling and cache put/get are "
           "about half the time, model code the other half")
    #: Pairs per round.  Few, so that a run repeats each one often
    #: enough to find its floor on a box where both cores are rarely
    #: undisturbed at once.
    pairs = 3
    points = 8
    jobs = 2

    def make_configs(self) -> Dict[str, Any]:
        keys = [f"p{pair}.{point}" for pair in range(self.pairs)
                for point in range(self.points)]
        corpus = self.shuffled([_quick(index + 1)
                                for index in range(len(keys))])
        return dict(zip(keys, corpus))

    def _pair(self, pair: int) -> Tuple[List[str], List[Any]]:
        keys = [f"p{pair}.{point}" for point in range(self.points)]
        return keys, [self.configs[key] for key in keys]

    def run_round(self, recorder, profiled=False, inject=None) -> Round:
        # In the profiled round the simulations must run in the profiled
        # process, so it sweeps serially.
        jobs = 1 if profiled else self.jobs
        units: List[Unit] = []
        dirs: List[Path] = []
        hits = misses = 0
        begin = now()
        for pair in range(self.pairs):
            keys, configs = self._pair(pair)
            store = SweepCache(self.fresh_dir("cache"))
            dirs.append(store.root)
            start = now()
            try:
                with recorder.span("unit", unit=f"pair{pair}"):
                    if _fault(inject, pair, "raise"):
                        raise RuntimeError("injected fault")
                    with recorder.span("sweep.cold_call"):
                        cold = sweep(configs, jobs=jobs, cache=store)
                    with recorder.span("sweep.warm_call"):
                        warm = sweep(configs, jobs=jobs, cache=store)
                seconds = now() - start
            except Exception as exc:
                units.append(Unit("pair", now() - start,
                                  error=f"{type(exc).__name__}: {exc}"))
                continue
            outcomes = cold + warm
            hits += sum(1 for outcome in outcomes if outcome.cached)
            misses += sum(1 for outcome in outcomes if not outcome.cached)
            delivered = [(key, outcome.result)
                         for key, outcome in zip(keys + keys, outcomes)]
            if _fault(inject, pair, "corrupt"):
                delivered[0] = (keys[0], _corrupted(delivered[0][1]))
            unit = Unit("pair", seconds, delivered,
                        sum(o.events for o in outcomes if not o.cached))
            if any(o.cached for o in cold) or not all(o.cached for o in warm):
                unit.error = (
                    f"expected {self.points} misses then {self.points} "
                    f"hits, got {sum(o.cached for o in cold)} cold hits "
                    f"and {sum(o.cached for o in warm)} warm hits")
            units.append(unit)
        wall = now() - begin
        # sweep() shuts its pool down without waiting; let the workers
        # finish exiting off the clock so they do not run into the
        # calibration loops that follow the round.
        while multiprocessing.active_children():
            time.sleep(0.001)
        for path in dirs:
            shutil.rmtree(path, ignore_errors=True)
        return Round(wall, units, {"sweep.hits": hits,
                                   "sweep.misses": misses})

    def probes(self, recorder) -> None:
        super().probes(recorder)
        keys, configs = self._pair(0)
        store = SweepCache(self.fresh_dir("probe-cache"))
        for key, config in zip(keys, configs):
            with recorder.span("sweep.config_key", unit=key):
                digest = config_key(config)
            reference = self.references[key]
            sim, result = direct_run(config, recorder, key)
            run = CachedRun(result, sim.processed_events, sim.now)
            with recorder.span("sweep.cache_get_miss", unit=key):
                store.get(digest)
            with recorder.span("sweep.cache_put", unit=key):
                store.put(digest, run)
            with recorder.span("sweep.cache_get_hit", unit=key):
                hit = store.get(digest)
            if hit is None or result_to_dict(hit.result) != reference.result:
                raise RuntimeError(f"probe: cache round trip of {key} "
                                   f"does not match its reference")
        for _ in range(3):
            with recorder.span("sweep.serial_equiv"):
                sweep(configs, jobs=1, cache=False)
        shutil.rmtree(store.root, ignore_errors=True)
        self._dse_share = self._dse_self_share()

    def _dse_self_share(self) -> float:
        """Share of one seeded ``explore()``'s self time spent in
        ``repro.dse`` itself; the rest is ``sweep()`` and model code,
        which the four workloads already cover."""
        # Imported here: no other run should pay for loading repro.dse.
        from repro.dse import explore

        profile = spans.PackageProfile()
        with profile:
            explore(spans.REPO / "examples" / "configs" / "dse_crossbar.json",
                    cache=False, jobs=1, seed=self.seed)
        return spans.shares(profile.attribute())["dse"]

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        metrics = {f"sweep.{name}_cal_ms": traced.cal_ms(f"sweep.{name}")
                   for name in ("config_key", "cache_put", "cache_get_hit",
                                "cache_get_miss", "cold_call", "warm_call",
                                "serial_equiv")}
        cold = metrics["sweep.cold_call_cal_ms"]
        serial = metrics["sweep.serial_equiv_cal_ms"]
        metrics["sweep.pool_overhead_cal_ms"] = cold - serial / self.jobs
        metrics["sweep.fanout_efficiency"] = serial / (self.jobs * cold)
        metrics["sweep.hits"] = traced.counts["sweep.hits"]
        metrics["sweep.misses"] = traced.counts["sweep.misses"]
        metrics["dse.self_share"] = self._dse_share
        return metrics


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------
class ServiceMixed(Workload):
    name = "service_mixed"
    why = ("15 jobs (27 results, 15 from the store) from one closed-loop "
           "client over HTTP to a fresh 2-worker service: the service "
           "path and the scheduler are in every job, the cache in most")
    fleet = 2
    profile_cpu_time = True
    documents = 11
    tenant = "bench"
    #: Forced preemption instant of the preemptible job; a quick platform
    #: at this scale runs for about 1.17 simulated µs.
    checkpoint_at_us = 0.5
    timeout_s = 60.0

    def make_configs(self) -> Dict[str, Any]:
        corpus = self.shuffled([_quick(index + 1)
                                for index in range(self.documents)])
        configs = {f"doc{index}": config
                   for index, config in enumerate(corpus)}
        configs["preempt"] = _quick(self.documents + 1)
        return configs

    def set_up(self) -> None:
        super().set_up()
        self._documents = {key: config_to_dict(config)
                           for key, config in self.configs.items()}
        self._jobs = self._plan()

    def _plan(self) -> List[Tuple[str, List[str], Dict[str, Any]]]:
        """The round's jobs in submission order: ``(kind, reference keys,
        submission document)``.  Eight documents are submitted one by
        one; from the fourth on, each is followed by a 3-point sweep job
        over the three documents before it, served from the store; then
        a sweep job over three documents nobody has seen, which
        simulates on both workers at once; plus one preemptible job.
        15 jobs, 27 results, 15 of them from the store, and the median
        *job* is a miss.  That is on purpose: a job served from the
        store is 2-4 ms of socket and thread hand-offs, whose cost on a
        shared VM moves by a fifth with the host's idle state and which
        no CPU calibration follows."""
        def sweep_job(keys):
            return ("sweep", keys, {
                "tenant": self.tenant,
                "sweep": {"points": [dict(self._documents[key], label=key)
                                     for key in keys]}})

        keys = [f"doc{index}" for index in range(self.documents)]
        singles, unseen = keys[:-3], keys[-3:]
        jobs = []
        for index, key in enumerate(singles):
            jobs.append(("config", [key], {"tenant": self.tenant,
                                           "config": self._documents[key]}))
            if index >= 3:
                jobs.append(sweep_job(singles[index - 3:index]))
            if index == 3:
                jobs.append(("preempt", ["preempt"], {
                    "tenant": self.tenant,
                    "config": self._documents["preempt"],
                    "checkpoint_at_us": self.checkpoint_at_us}))
        jobs.append(sweep_job(unseen))
        return jobs

    def _job(self, client: ServiceClient, index: int, job, recorder,
             inject) -> tuple:
        """Submit one job and wait for its result: ``(unit, job id,
        result rows)``."""
        kind, keys, document = job
        start = now()
        job_id = None
        try:
            with recorder.span("unit", unit=f"job{index}", kind=kind):
                if _fault(inject, index, "raise"):
                    raise RuntimeError("injected fault")
                with recorder.span("service.submit"):
                    job_id = client.submit(document)["id"]
                with recorder.span("service.result"):
                    view = client.result(job_id, wait=True,
                                         timeout=self.timeout_s)
            seconds = now() - start
        except (OSError, RuntimeError, http.client.HTTPException) as exc:
            return (Unit(kind, now() - start,
                         error=f"{type(exc).__name__}: {exc}"), job_id, [])
        rows = view["results"]
        unit = Unit(kind, seconds)
        if view["state"] != "done" or len(rows) != len(keys):
            unit.error = (f"job {job_id} ended {view['state']}: "
                          f"{view.get('error')}")
        else:
            unit.delivered = [(key, row["result"])
                              for key, row in zip(keys, rows)]
            if _fault(inject, index, "corrupt"):
                unit.delivered[0] = (
                    keys[0], _corrupted(unit.delivered[0][1]))
            unit.kind = self._classify(kind, rows)
        return unit, job_id, rows

    @staticmethod
    def _classify(kind: str, rows) -> str:
        if kind == "preempt":
            return "preempt"
        served = {row["cached"] for row in rows}
        if None in served:
            return "miss"
        return "inflight" if "inflight" in served else "hit"

    def run_round(self, recorder, profiled=False, inject=None) -> Round:
        # A fresh service and store per round: the service keeps every
        # job it has seen and scans them on each dispatch, so a service
        # that lived for the whole run would make round 60 twice as slow
        # as round 1 and the result a function of the round count.
        store = self.fresh_dir("store")
        service = BackgroundService(fleet=self.fleet, cache=str(store)).start()
        try:
            client = ServiceClient(port=service.port,
                                   timeout=self.timeout_s)
            begin = now()
            out = [self._job(client, index, job, recorder, inject)
                   for index, job in enumerate(self._jobs)]
            wall = now() - begin
            counts = self._epilogue(client, out)
        finally:
            service.stop()
            shutil.rmtree(store, ignore_errors=True)
        return Round(wall, [item[0] for item in out], counts)

    def _epilogue(self, client: ServiceClient, out) -> Dict[str, float]:
        """Off the clock: read the events the service executed from its
        own log (results carry none) and count how units were served."""
        rows_total = store_hits = inflight = preemptions = errors = 0
        simulated = 0
        for unit, job_id, rows in out:
            if unit.error is not None:
                errors += 1
                continue
            rows_total += len(rows)
            simulated += sum(1 for row in rows if row["cached"] is None)
            store_hits += sum(1 for row in rows if row["cached"] == "cache")
            inflight += sum(1 for row in rows if row["cached"] == "inflight")
            preemptions += sum(row["preemptions"] for row in rows)
            if any(row["cached"] is None for row in rows):
                unit.events = sum(
                    event["events"] for event in client.events(job_id)
                    if event["event"] == "unit_done"
                    and event["cached"] is None)
        rows_total = rows_total or 1
        return {"service.store_hit_ratio": store_hits / rows_total,
                "service.inflight_ratio": inflight / rows_total,
                "service.preemptions": preemptions,
                "service.errors": errors,
                "service.simulated": simulated}

    def probes(self, recorder) -> None:
        super().probes(recorder)
        at_ps = int(self.checkpoint_at_us * 1_000_000)
        for key, config in self.configs.items():
            direct_run(config, recorder, key)
        key = "preempt"
        with recorder.span("snapshot.take", unit=key):
            taken = take_checkpoint(self.configs[key], at_ps=at_ps)
        with recorder.span("snapshot.resume", unit=key):
            resumed = resume_checkpoint(taken.checkpoint)
        for result in (taken.result, resumed.result):
            if result_to_dict(result) != self.references[key].result:
                raise RuntimeError(f"probe: checkpointed run of {key} "
                                   f"does not match its reference")

    def layer_metrics(self, traced: Traced) -> Dict[str, float]:
        metrics = {
            "service.submit_cal_ms": traced.cal_ms("service.submit"),
            "snapshot.take_cal_ms": traced.cal_ms("snapshot.take"),
            "snapshot.resume_cal_ms": traced.cal_ms("snapshot.resume")}
        for kind in ("hit", "miss", "preempt"):
            metrics[f"service.job_cal_ms_{kind}_p50"] = traced.unit_p50(kind)
        direct_ms = (traced.cal_ms("platforms.build")
                     + traced.cal_ms("platforms.run"))
        metrics["service.overhead_cal_ms"] = (
            metrics["service.job_cal_ms_miss_p50"] - direct_ms)
        metrics["service.fleet_utilisation"] = (
            traced.counts["service.simulated"] * direct_ms / 1e3
            / (self.fleet * traced.round_s))
        for key in ("store_hit_ratio", "inflight_ratio", "preemptions",
                    "errors"):
            metrics[f"service.{key}"] = traced.counts[f"service.{key}"]
        return metrics


WORKLOADS = {cls.name: cls for cls in (PlatformCa, PlatformLt, SweepFanout,
                                       ServiceMixed)}
