"""Worker-fleet scheduler: sharding, dedupe, preemption, migration.

The scheduler turns queued :class:`~repro.service.jobqueue.Unit` s into
finished results using three layers the repo already trusts:

* **execution** is one body, :func:`_execute`, driving one
  :class:`repro.sweep.Run` per unit.  It is submitted to the fleet's
  thread executor, or — for plain units under ``use_processes=True`` —
  unchanged to a :mod:`concurrent.futures` process pool, which is
  replaced when a worker process dies (the unit is retried once);
* **dedupe** uses the :class:`~repro.sweep.SweepCache` as a *shared
  store*: a unit whose SHA-256 config key is already on disk is served
  without simulating (``cached="cache"``), and identical units in
  flight at the same moment coalesce onto one execution
  (``cached="inflight"``) — both safe because every simulation is
  deterministic and cache writes are atomic per writer;
* **preemption** uses :mod:`repro.snapshot`: the body advances its run
  to each instant in ``pauses`` (slice boundaries for a preemptible
  unit, the one forced ``checkpoint_at_us`` instant otherwise); at a
  pause with the worker draining it captures a checkpoint and the unit
  is requeued; whichever worker picks it up resumes through
  :func:`repro.snapshot.resume_checkpoint`, which re-verifies the whole
  state tree bit for bit before continuing — so a migrated run is
  bit-identical to its straight-through counterpart by construction.

Scheduling order is deterministic: the dispatch loop always takes the
lowest ``(lane rank, job seq, unit index)`` unit and assigns workers in
name order, preferring a *different* worker than the one a preempted
unit left (migration).  All state mutation happens on the event-loop
thread; only the simulation bodies run on executors.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.kernel import Simulator
from ..platforms.loader import config_from_dict, config_to_dict
from ..snapshot import Checkpoint, checkpoint_here, resume_checkpoint
from ..sweep import CachedRun, Run, SweepCache, _make_executor, result_to_dict
from .jobqueue import JobQueue, Unit
from .protocol import UnknownWorker

#: Default preemption granularity: a draining worker gives up its unit
#: at the next multiple of this simulated interval.
DEFAULT_SLICE_PS = 1_000_000  # 1 simulated microsecond


class Worker:
    """One fleet member.  States: idle -> busy -> idle, or -> drained."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.state = "idle"
        self.unit: Optional[Unit] = None
        #: Checked by the sliced execution body between slices.
        self.drain_flag = threading.Event()
        self.completed = 0
        self.preempted = 0

    def view(self) -> Dict[str, Any]:
        return {"name": self.name, "state": self.state,
                "unit": None if self.unit is None
                else {"job": self.unit.job.id, "index": self.unit.index},
                "completed": self.completed, "preempted": self.preempted}


# ----------------------------------------------------------------------
# the execution body (runs on either executor, never touches queue state)
# ----------------------------------------------------------------------
def _execute(document: Dict[str, Any], max_ps: int,
             checkpoint_doc: Optional[Dict[str, Any]], trace: bool,
             pauses: Iterable[int],
             drain: Optional[threading.Event]) -> Dict[str, Any]:
    """Run one unit: from scratch, or from ``checkpoint_doc`` if given.

    A fresh run stops at each instant in ``pauses`` it can still be
    paused at and — when ``drain`` is set, or unconditionally with no
    drain flag (the forced ``checkpoint_at_ps`` instant) — gives the unit
    up as ``{"kind": "preempted", "checkpoint": ..., "at_ps": ...}``.
    Otherwise, and always for a resume, returns ``{"kind": "done", ...}``
    around the finished-run document.  ``resume_checkpoint`` verifies
    every component against the stored state tree before continuing, so
    the continuation is bit-identical to an uninterrupted run
    (``docs/SERVICE.md``).
    """
    if checkpoint_doc is not None:
        outcome = resume_checkpoint(Checkpoint.from_document(checkpoint_doc))
        done = CachedRun(outcome.result, outcome.final_events,
                         outcome.final_time_ps)
        return {"kind": "done", "resumed": True, **done.to_document()}
    sim = Simulator()
    cap = None
    if trace:
        from ..obs import Capture

        # Attached directly (not ambiently): only *this* simulator is
        # recorded, so concurrent units never leak into the trace.
        cap = Capture()
        cap.attach(sim)
    run = Run(config_from_dict(document), max_ps, sim=sim)
    for at_ps in pauses:
        if not run.advance(at_ps):
            break  # finished (or out of bound) first: fall through
        if drain is None or drain.is_set():
            return {"kind": "preempted", "at_ps": sim.now,
                    "checkpoint": checkpoint_here(run).to_document()}
    out: Dict[str, Any] = {"kind": "done", **run.finish().to_document()}
    if cap is not None:
        out["trace"] = cap.to_trace_json()
    return out


class Scheduler:
    """Owns the fleet, the dispatch loop, and the shared result store."""

    def __init__(self, queue: JobQueue,
                 fleet: int = 2,
                 cache: Optional[SweepCache] = None,
                 slice_ps: int = DEFAULT_SLICE_PS,
                 use_processes: bool = False) -> None:
        self.queue = queue
        self.cache = cache
        self.slice_ps = int(slice_ps)
        self.use_processes = use_processes
        self.workers: List[Worker] = [Worker(f"worker-{n}")
                                      for n in range(max(1, int(fleet)))]
        self._threads: Optional[ThreadPoolExecutor] = None
        self._processes = None
        self._inflight: Dict[
            str, "asyncio.Future[Tuple[CachedRun, bool]]"] = {}
        self._dispatch_task: Optional["asyncio.Task[None]"] = None
        self._unit_tasks: "set[asyncio.Task[None]]" = set()
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stopping = False
        self._threads = ThreadPoolExecutor(
            max_workers=len(self.workers),
            thread_name_prefix="repro-service")
        if self.use_processes:
            # The sweep engine's own pool factory: returns None when
            # multiprocessing is unavailable, in which case units simply
            # stay on the thread executor.
            self._processes = _make_executor(len(self.workers))
        self._dispatch_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop())

    async def stop(self) -> None:
        self._stopping = True
        self.queue.notify()
        if self._dispatch_task is not None:
            self._dispatch_task.cancel()
            try:
                await self._dispatch_task
            except asyncio.CancelledError:
                pass
            self._dispatch_task = None
        for task in list(self._unit_tasks):
            task.cancel()
        if self._unit_tasks:
            await asyncio.gather(*self._unit_tasks, return_exceptions=True)
        if self._threads is not None:
            self._threads.shutdown(wait=False)
            self._threads = None
        if self._processes is not None:
            self._processes.shutdown(wait=False)
            self._processes = None

    # ------------------------------------------------------------------
    # worker fleet control
    # ------------------------------------------------------------------
    def worker(self, name: str) -> Worker:
        for worker in self.workers:
            if worker.name == name:
                return worker
        raise UnknownWorker(name)

    def drain(self, name: str) -> Worker:
        """Stop a worker accepting units; preempt its current one.

        An idle worker drains immediately.  A busy worker's preemptible
        unit is checkpointed at the next slice boundary and requeued for
        another worker (migration); a non-preemptible unit runs to
        completion first.  Either way the worker takes no further units
        until :meth:`undrain`.
        """
        worker = self.worker(name)
        if worker.state == "idle":
            worker.state = "drained"
        elif worker.state == "busy":
            worker.state = "draining"
            worker.drain_flag.set()
        return worker

    def undrain(self, name: str) -> Worker:
        worker = self.worker(name)
        worker.drain_flag.clear()
        if worker.state in ("drained", "draining"):
            worker.state = "idle" if worker.unit is None else "busy"
        self.queue.notify()
        return worker

    def _idle_workers(self) -> List[Worker]:
        return [worker for worker in self.workers if worker.state == "idle"]

    def _pick_worker(self, unit: Unit) -> Optional[Worker]:
        """Deterministic worker choice: name order, but prefer migrating
        a preempted unit away from the worker that dropped it."""
        idle = self._idle_workers()
        if not idle:
            return None
        if unit.last_worker is not None and len(idle) > 1:
            moved = [worker for worker in idle
                     if worker.name != unit.last_worker]
            if moved:
                return moved[0]
        return idle[0]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatchable(self) -> bool:
        return bool(self.queue.pending_units() and self._idle_workers())

    async def _dispatch_loop(self) -> None:
        while not self._stopping:
            dispatched = self._dispatch_once()
            if not dispatched:
                await self.queue.wait(
                    lambda: self._stopping or self._dispatchable(),
                    timeout=0.5)

    def _dispatch_once(self) -> bool:
        """Serve cache/in-flight hits and assign one unit; True if any."""
        unit = self.queue.take_next()
        if unit is None:
            return False
        try:
            return self._dispatch(unit)
        except Exception as exc:
            # A raising store costs this unit, never the dispatch loop.
            self._fail_unit(unit, f"{type(exc).__name__}: {exc}")
            return True

    def _dispatch(self, unit: Unit) -> bool:
        queue = self.queue
        job = unit.job
        # Shared-store dedupe first: both paths retire the unit without
        # occupying a worker.  Trace units must actually simulate here
        # (a hit carries no spans), a resume must continue from its
        # checkpoint, and a forced-checkpoint job exists to exercise the
        # preemption path — all three skip dedupe.
        dedupe_ok = (not job.trace_requested and unit.checkpoint is None
                     and job.checkpoint_at_ps is None)
        if dedupe_ok and self.cache is not None:
            hit = self.cache.get(unit.key)
            if hit is not None:
                unit.state = "running"
                queue.record_event(job, "unit_started", unit=unit.index,
                                   label=unit.label, worker=None)
                self._finish_unit(unit, hit, cached="cache")
                return True
        if dedupe_ok and unit.key in self._inflight:
            unit.state = "running"
            queue.record_event(job, "unit_started", unit=unit.index,
                               label=unit.label, worker=None)
            queue.record_event(job, "unit_coalesced", unit=unit.index,
                               key=unit.key[:16])
            task = asyncio.get_running_loop().create_task(
                self._follow_inflight(unit, self._inflight[unit.key]))
            self._unit_tasks.add(task)
            task.add_done_callback(self._unit_tasks.discard)
            return True
        worker = self._pick_worker(unit)
        if worker is None:
            return False
        worker.state = "busy"
        worker.unit = unit
        unit.worker = worker.name
        unit.state = "running"
        queue.record_event(job, "unit_resumed" if unit.checkpoint is not None
                           else "unit_started", unit=unit.index,
                           label=unit.label, worker=worker.name)
        queue.finish_unit_bookkeeping(job)
        if dedupe_ok:
            self._inflight[unit.key] = \
                asyncio.get_running_loop().create_future()
        task = asyncio.get_running_loop().create_task(
            self._run_unit(worker, unit))
        self._unit_tasks.add(task)
        task.add_done_callback(self._unit_tasks.discard)
        return True

    # ------------------------------------------------------------------
    # unit execution
    # ------------------------------------------------------------------
    async def _run_unit(self, worker: Worker, unit: Unit) -> None:
        job = unit.job
        checkpoint_doc, unit.checkpoint = unit.checkpoint, None
        # A resumed unit runs through; a forced instant replaces slicing.
        pauses: Iterable[int] = ()
        drain = None
        if checkpoint_doc is None and job.preemptible:
            if job.checkpoint_at_ps is not None:
                pauses = (job.checkpoint_at_ps,)
            elif self.slice_ps > 0:
                pauses = range(self.slice_ps, unit.max_ps, self.slice_ps)
                drain = worker.drain_flag
        # Only plain units go to the process pool: a drain flag must be
        # shared memory, and a trace or a checkpoint is a large document.
        executor = self._threads
        if self._processes is not None and not job.trace_requested \
                and not job.preemptible:
            executor = self._processes
        loop = asyncio.get_running_loop()
        payload = (config_to_dict(unit.config), unit.max_ps, checkpoint_doc,
                   job.trace_requested, pauses, drain)
        try:
            try:
                out = await loop.run_in_executor(executor, _execute, *payload)
            except BrokenProcessPool:
                # The sweep engine's crash policy: a dead pool worker costs
                # this unit one retry on a fresh pool, not every later unit.
                out = await loop.run_in_executor(
                    self._replace_pool(executor), _execute, *payload)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # simulation / snapshot failures
            self._fail_unit(unit, f"{type(exc).__name__}: {exc}")
            self._release_worker(worker)
            return

        if out["kind"] == "preempted":
            worker.preempted += 1
            self.queue.record_event(job, "unit_preempted", unit=unit.index,
                                    worker=worker.name,
                                    at_ps=out["at_ps"])
            self.queue.requeue(unit, out["checkpoint"])
            self._release_worker(worker)
            self.queue.notify()
            return

        self._finish_unit(unit, CachedRun.from_document(out), cached=None,
                          trace=out.get("trace"),
                          resumed=bool(out.get("resumed")))
        worker.completed += 1
        self._release_worker(worker)

    def _replace_pool(self, broken):
        """The executor that takes over from the ``broken`` process pool.

        Units that hit the same crash share one replacement: only the
        first finds ``broken`` still installed.  When no new pool can be
        made, plain units run on the thread executor from then on.
        """
        if self._processes is broken:
            broken.shutdown(wait=False)
            self._processes = _make_executor(len(self.workers))
        return self._processes or self._threads

    async def _follow_inflight(
            self, unit: Unit,
            future: "asyncio.Future[Tuple[CachedRun, bool]]") -> None:
        try:
            run, resumed = await asyncio.shield(future)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_unit(unit, f"{type(exc).__name__}: {exc}")
            return
        self._finish_unit(unit, run, cached="inflight", resumed=resumed,
                          publish=False)

    def _finish_unit(self, unit: Unit, run: CachedRun,
                     cached: Optional[str], trace: Optional[Dict] = None,
                     resumed: bool = False, publish: bool = True) -> None:
        job = unit.job
        unit.result = result_to_dict(run.result)
        unit.events = run.events
        unit.sim_time_ps = run.sim_time_ps
        unit.trace = trace
        unit.cached = cached
        unit.state = "done"
        unit.worker = None
        if publish:
            if cached is None and self.cache is not None:
                self.cache.put(unit.key, run)
            future = self._inflight.pop(unit.key, None)
            if future is not None and not future.done():
                future.set_result((run, resumed))
        self.queue.record_event(
            job, "unit_done", unit=unit.index, label=unit.label,
            cached=cached, resumed=resumed,
            events=unit.events, sim_time_ps=unit.sim_time_ps)
        self.queue.finish_unit_bookkeeping(job)

    def _fail_unit(self, unit: Unit, message: str) -> None:
        unit.state = "failed"
        unit.error = message
        unit.worker = None
        future = self._inflight.pop(unit.key, None)
        if future is not None and not future.done():
            future.set_exception(RuntimeError(message))
            future.exception()  # retrieved: followers are optional
        self.queue.record_event(unit.job, "unit_failed", unit=unit.index,
                                label=unit.label, error=message)
        self.queue.finish_unit_bookkeeping(unit.job)

    def _release_worker(self, worker: Worker) -> None:
        worker.unit = None
        if worker.state in ("draining", "drained"):
            worker.state = "drained"
        else:
            worker.state = "idle"
        self.queue.notify()

    def views(self) -> List[Dict[str, Any]]:
        return [worker.view() for worker in self.workers]
