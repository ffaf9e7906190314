"""Scheduler tests: deterministic dispatch, dedupe layers, preemption
and migration — driven directly on an event loop (docs/SERVICE.md)."""

import asyncio
import os
import signal
from concurrent.futures import Executor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.platforms.loader import config_to_dict
from repro.platforms.variants import quick_config
from repro.service import JobQueue, Scheduler, parse_submission
from repro.sweep import Run, SweepCache, result_to_dict

CONFIG = config_to_dict(quick_config(traffic_scale=0.05))
MAX_PS = 10_000_000


def run_jobs(documents, fleet=2, cache=None, slice_ps=500_000,
             prepare=None, timeout=120.0, use_processes=False,
             started=None):
    """Submit every document up front, run the scheduler to completion.

    Submitting before the dispatch loop starts makes the dispatch order a
    pure function of the queue contents — no wall-clock races.
    ``prepare`` sees the scheduler before ``start()``, ``started`` right
    after it (executors exist, nothing dispatched yet).
    """
    queue = JobQueue()
    scheduler = Scheduler(queue, fleet=fleet, cache=cache,
                          slice_ps=slice_ps, use_processes=use_processes)
    jobs = [queue.submit(parse_submission(document))
            for document in documents]
    if prepare is not None:
        prepare(scheduler)

    async def scenario():
        await scheduler.start()
        if started is not None:
            started(scheduler)
        try:
            done = await queue.wait(
                lambda: all(job.state in ("done", "failed")
                            for job in jobs),
                timeout=timeout)
            assert done, [job.view() for job in jobs]
        finally:
            await scheduler.stop()

    asyncio.run(scenario())
    return queue, scheduler, jobs


def started_order(jobs):
    """(job id, unit) pairs in the order workers picked them up."""
    events = sorted((event for job in jobs for event in job.events
                     if event["event"] == "unit_started"
                     and event.get("worker") is not None),
                    key=lambda event: event["seq"])
    return [(event["job"], event["unit"]) for event in events]


def doc(tenant="alice", seed=None, **overrides):
    config = dict(CONFIG)
    if seed is not None:  # distinct configs defeat the dedupe layers
        config["seed"] = seed
    base = {"tenant": tenant, "config": config, "max_us": MAX_PS / 1e6}
    base.update(overrides)
    return base


class TestDeterministicDispatch:
    def test_priority_lanes_drain_in_rank_order_on_saturated_pool(self):
        """One worker, three lanes submitted worst-first: execution order
        must be interactive, normal, batch regardless of arrival."""
        documents = [
            doc(tenant="c", priority="batch", seed=3),
            doc(tenant="a", priority="normal", seed=2),
            doc(tenant="b", priority="interactive", seed=1),
        ]
        _queue, _scheduler, jobs = run_jobs(documents, fleet=1)
        assert started_order(jobs) == [
            (jobs[2].id, 0), (jobs[1].id, 0), (jobs[0].id, 0)]

    def test_same_lane_fifo_within_saturated_pool(self):
        documents = [doc(tenant=f"t{n}", seed=n + 1) for n in range(3)]
        _queue, _scheduler, jobs = run_jobs(documents, fleet=1)
        assert started_order(jobs) == [(job.id, 0) for job in jobs]


class TestDedupe:
    def test_identical_inflight_units_coalesce(self):
        """Two identical submissions racing on a 2-worker fleet: exactly
        one simulates, the other follows its in-flight future."""
        _q, _s, jobs = run_jobs([doc(tenant="a"), doc(tenant="b")])
        sources = sorted(job.units[0].cached or "run" for job in jobs)
        assert sources == ["inflight", "run"]
        first, second = (job.units[0].result for job in jobs)
        assert first == second

    def test_cache_hit_retires_unit_without_a_worker(self, tmp_path):
        cache = SweepCache(tmp_path / "store")
        _q, _s, warm = run_jobs([doc()], cache=cache)
        assert warm[0].units[0].cached is None  # cold: simulated

        _q, _s, hits = run_jobs([doc()], cache=cache)
        unit = hits[0].units[0]
        assert unit.cached == "cache"
        assert unit.worker is None
        assert unit.result == warm[0].units[0].result

    def test_forced_checkpoint_bypasses_cache(self, tmp_path):
        """A checkpoint_at_us job exists to exercise preemption, so a
        cache hit must not short-circuit it."""
        cache = SweepCache(tmp_path / "store")
        run_jobs([doc()], cache=cache)  # populate the store
        _q, _s, jobs = run_jobs([doc(checkpoint_at_us=1.0)], cache=cache)
        unit = jobs[0].units[0]
        assert unit.cached is None
        assert unit.preemptions == 1

    def test_trace_jobs_bypass_cache(self, tmp_path):
        cache = SweepCache(tmp_path / "store")
        run_jobs([doc()], cache=cache)
        _q, _s, jobs = run_jobs([doc(trace=True)], cache=cache)
        unit = jobs[0].units[0]
        assert unit.cached is None
        assert unit.trace is not None
        assert len(unit.trace["traceEvents"]) > 0


class TestPreemption:
    def test_forced_checkpoint_resumes_bit_identical(self):
        """Preempt at an exact simulated instant, migrate to the other
        worker, resume — the result must equal an uninterrupted run."""
        _q, scheduler, jobs = run_jobs(
            [doc(checkpoint_at_us=1.0)], fleet=2)
        unit = jobs[0].units[0]
        assert unit.preemptions == 1
        events = {event["event"]: event for event in jobs[0].events}
        assert events["unit_preempted"]["at_ps"] == 1_000_000
        # Migration: resumed on a different worker than it started on.
        assert events["unit_resumed"]["worker"] \
            != events["unit_started"]["worker"]
        straight = Run(quick_config(traffic_scale=0.05), MAX_PS).finish()
        assert unit.result == result_to_dict(straight.result)
        assert unit.events == straight.events
        assert unit.sim_time_ps == straight.sim_time_ps

    def test_drain_flag_preempts_at_slice_boundary(self):
        """A pre-set drain flag (deterministic stand-in for a drain
        request) checkpoints the unit at the first slice boundary."""
        def pre_drain(scheduler):
            scheduler.workers[0].drain_flag.set()

        _q, scheduler, jobs = run_jobs(
            [doc(preemptible=True)], fleet=1, slice_ps=500_000,
            prepare=pre_drain)
        unit = jobs[0].units[0]
        assert unit.preemptions == 1
        preempted = [event for event in jobs[0].events
                     if event["event"] == "unit_preempted"]
        assert preempted[0]["at_ps"] == 500_000
        straight = Run(quick_config(traffic_scale=0.05), MAX_PS).finish()
        assert unit.result == result_to_dict(straight.result)

    def test_non_preemptible_units_ignore_the_drain_flag(self):
        def pre_drain(scheduler):
            scheduler.workers[0].drain_flag.set()

        _q, _s, jobs = run_jobs([doc()], fleet=1, prepare=pre_drain)
        unit = jobs[0].units[0]
        assert unit.preemptions == 0
        assert unit.state == "done"


class TestProcessOffload:
    def test_plain_units_run_in_the_pool_the_rest_stay_on_threads(self):
        """``use_processes=True``: the same ``_execute`` goes to both
        executors.  Plain units cross the process boundary and come back
        bit-identical to a direct run; a forced-checkpoint unit and a
        trace unit in the same batch stay on threads and still
        preempt/resume/trace."""
        from repro.service import scheduler as scheduler_module

        submitted = {"_processes": [], "_threads": []}

        def spy(scheduler):
            if scheduler._processes is None:
                pytest.skip("no process pool on this host")
            for name, calls in submitted.items():
                executor = getattr(scheduler, name)

                def submit(fn, *args, _real=executor.submit, _calls=calls):
                    _calls.append((fn, args))
                    return _real(fn, *args)
                executor.submit = submit

        # Plain units first: both pool workers fork before any fleet
        # thread exists.
        documents = [doc(seed=1), doc(seed=2), doc(seed=3),
                     doc(seed=4, checkpoint_at_us=1.0),
                     doc(seed=5, trace=True)]
        _q, _s, jobs = run_jobs(documents, fleet=2, use_processes=True,
                                started=spy)
        assert [job.state for job in jobs] == ["done"] * 5
        units = [job.units[0] for job in jobs]

        assert {fn for calls in submitted.values() for fn, _ in calls} \
            == {scheduler_module._execute}
        assert [args[0]["seed"] for _, args in submitted["_processes"]] \
            == [1, 2, 3]
        # Threads: the forced unit twice (fresh, then resumed) + the trace.
        assert sorted(args[0]["seed"] for _, args in submitted["_threads"]) \
            == [4, 4, 5]

        for unit in units:
            straight = Run(unit.config, MAX_PS).finish()
            assert unit.result == result_to_dict(straight.result)
            assert unit.events == straight.events
            assert unit.sim_time_ps == straight.sim_time_ps
        assert [unit.preemptions for unit in units] == [0, 0, 0, 1, 0]
        events = {event["event"]: event for event in jobs[3].events}
        assert events["unit_preempted"]["at_ps"] == 1_000_000
        assert events["unit_done"]["resumed"] is True
        assert len(units[4].trace["traceEvents"]) > 0
        assert all(unit.trace is None for unit in units[:4])

    def test_a_killed_pool_worker_costs_one_retry_not_the_fleet(
            self, monkeypatch):
        """SIGKILL the pool's only worker before dispatch: both plain
        units hit the dead pool, share one replacement and come back
        bit-identical to a direct run."""
        from repro.service import scheduler as scheduler_module

        real_make_executor = scheduler_module._make_executor
        pools = []

        def counting_make_executor(jobs):
            pools.append(real_make_executor(jobs))
            return pools[-1]

        def kill_the_pool(scheduler):
            pool = scheduler._processes
            if pool is None:
                pytest.skip("no process pool on this host")
            os.kill(pool.submit(os.getpid).result(timeout=60), signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                pool.submit(int).result(timeout=60)

        monkeypatch.setattr(scheduler_module, "_make_executor",
                            counting_make_executor)
        _q, _s, jobs = run_jobs([doc(seed=1), doc(seed=2)], fleet=1,
                                use_processes=True, started=kill_the_pool)
        assert [job.state for job in jobs] == ["done", "done"]
        assert len(pools) == 2  # the first pool and one replacement
        for job in jobs:
            unit = job.units[0]
            straight = Run(unit.config, MAX_PS).finish()
            assert unit.result == result_to_dict(straight.result)
            assert unit.events == straight.events
            assert unit.sim_time_ps == straight.sim_time_ps

    def test_an_always_broken_pool_fails_one_unit_and_the_fleet_serves_on(
            self, monkeypatch):
        """Every pool is broken: the plain unit is retried once, then
        fails alone; the trace unit behind it runs on threads."""
        from repro.service import scheduler as scheduler_module

        submits = []

        class BrokenPool(Executor):
            def submit(self, fn, *args, **kwargs):
                submits.append(fn)
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(scheduler_module, "_make_executor",
                            lambda jobs: BrokenPool())
        _q, _s, jobs = run_jobs([doc(seed=1), doc(seed=2, trace=True)],
                                fleet=1, use_processes=True)
        plain, traced = (job.units[0] for job in jobs)
        assert plain.state == "failed"
        assert plain.error.startswith("BrokenProcessPool: ")
        assert [event["event"] for event in jobs[0].events].count(
            "unit_failed") == 1
        assert len(submits) == 2  # the first attempt and one retry
        assert traced.state == "done"
        assert len(traced.trace["traceEvents"]) > 0


class TestFailures:
    def test_execution_failure_fails_the_job_not_the_service(
            self, monkeypatch):
        from repro.service import scheduler as scheduler_module

        def boom(*_args):
            raise RuntimeError("exploded")

        monkeypatch.setattr(scheduler_module, "_execute", boom)
        _q, _s, jobs = run_jobs([doc()])
        unit = jobs[0].units[0]
        assert unit.state == "failed"
        assert "exploded" in unit.error
        assert jobs[0].state == "failed"
        assert "exploded" in jobs[0].error

    def test_checkpoint_instant_past_completion_falls_through(self):
        """A forced instant the run never reaches must not wedge the
        unit: the execution body falls through to normal completion."""
        _q, _s, jobs = run_jobs([doc(checkpoint_at_us=9_999.0)])
        unit = jobs[0].units[0]
        assert unit.state == "done"
        assert unit.preemptions == 0


class TestStoreFaults:
    def test_store_faults_cost_one_unit_never_the_dispatch_loop(
            self, tmp_path, caplog):
        class FaultyStore(SweepCache):
            """The first lookup raises; every later one finds ``[]``."""

            def get(self, key):
                if not self.root.exists():  # the first lookup
                    self.root.mkdir()
                    raise LookupError("store exploded")
                self.path_for(key).write_text("[]")
                return super().get(key)

        _q, _s, jobs = run_jobs(
            [doc(seed=1), doc(seed=2, max_us=0.2), doc(seed=3)],
            cache=FaultyStore(tmp_path / "store"), timeout=20.0)
        assert [job.state for job in jobs] == ["failed", "failed", "done"]
        assert "LookupError: store exploded" in jobs[0].error
        assert "did not finish" in jobs[1].error
        assert "never retrieved" not in caplog.text  # jobs[1]'s future
        assert jobs[2].units[0].cached is None  # simulated over the entry
