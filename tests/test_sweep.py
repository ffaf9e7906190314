"""Tests for the parallel sweep engine (``repro.sweep``).

Covers cache keying, disk-cache hit/miss behaviour, duplicate dedup, the
serial/pooled determinism guarantee, worker-crash retry, per-job timeouts,
graceful degradation without multiprocessing, the observability-capture
interaction and sweep-spec parsing.
"""

import json
import multiprocessing
import os
import time

import pytest

import repro.sweep as sweep_mod
from repro.platforms import RunIncomplete, quick_config
from repro.platforms.loader import ConfigError, config_from_dict
from repro.sweep import (
    CACHE_SCHEMA,
    SweepCache,
    SweepError,
    _pool_map,
    Run,
    config_key,
    default_jobs,
    load_sweep,
    load_target,
    parse_sweep,
    result_from_dict,
    result_to_dict,
    sweep,
)

QUICK_MAX_PS = 10**13


# Worker functions must be module-level so they pickle across the pool.
def _crash_always(_value):
    os._exit(3)


def _crash_once(sentinel_path):
    if not os.path.exists(sentinel_path):
        with open(sentinel_path, "w") as handle:
            handle.write("crashed")
        os._exit(3)
    return "recovered"


def _race_put(barrier, root, key, fill, size, rounds):
    """Hammer one cache key from a subprocess with a large, internally
    consistent entry (uniform label fill, events == sim_time_ps ==
    ord(fill)); any interleaving of two writers breaks the invariants.
    The two writers use different entry sizes: a shared temp path lets
    the shorter document land over the longer one and leave a stale tail
    behind the closing brace."""
    from repro.platforms import RunResult
    from repro.sweep import CachedRun

    run = CachedRun(
        result=RunResult(label=fill * size, execution_time_ps=1,
                         transactions=1, bytes_transferred=1),
        events=ord(fill), sim_time_ps=ord(fill))
    cache = SweepCache(root)
    barrier.wait(timeout=30)  # maximise overlap between the writers
    for _ in range(rounds):
        cache.put(key, run)


def _sleep_job(seconds):
    import time

    time.sleep(seconds)
    return "done"


@pytest.fixture(scope="module")
def quick_run():
    """One simulated quick-config point, shared across this module."""
    config = quick_config(traffic_scale=0.05)
    return config, Run(config, QUICK_MAX_PS).finish()


class TestConfigKey:
    def test_stable_across_equal_configs(self):
        a = config_key(quick_config(traffic_scale=0.1), QUICK_MAX_PS)
        b = config_key(quick_config(traffic_scale=0.1), QUICK_MAX_PS)
        assert a == b
        assert len(a) == 64
        int(a, 16)  # hex digest

    def test_differs_by_config(self):
        a = config_key(quick_config(traffic_scale=0.1), QUICK_MAX_PS)
        b = config_key(quick_config(traffic_scale=0.2), QUICK_MAX_PS)
        assert a != b

    def test_differs_by_max_ps(self):
        config = quick_config(traffic_scale=0.1)
        assert config_key(config, 10**12) != config_key(config, 10**13)


class TestResultSerialisation:
    def test_round_trip(self, quick_run):
        _config, run = quick_run
        rebuilt = result_from_dict(result_to_dict(run.result))
        assert rebuilt == run.result

    def test_missing_field_is_config_error(self):
        with pytest.raises(ConfigError, match="malformed cached result"):
            result_from_dict({"label": "x"})


class TestSweepCache:
    def test_miss_on_empty(self, tmp_path):
        assert SweepCache(tmp_path / "cache").get("0" * 64) is None

    def test_put_get_round_trip(self, tmp_path, quick_run):
        config, run = quick_run
        cache = SweepCache(tmp_path / "cache")
        key = config_key(config, QUICK_MAX_PS)
        cache.put(key, run)
        hit = cache.get(key)
        assert hit is not None
        assert hit.result == run.result
        assert (hit.events, hit.sim_time_ps) == (run.events, run.sim_time_ps)

    def test_corrupt_entry_is_a_miss(self, tmp_path, quick_run):
        config, run = quick_run
        cache = SweepCache(tmp_path / "cache")
        key = config_key(config, QUICK_MAX_PS)
        cache.put(key, run)
        cache.path_for(key).write_text("{torn write")
        assert cache.get(key) is None

    def test_wrong_schema_is_a_miss(self, tmp_path, quick_run):
        config, run = quick_run
        cache = SweepCache(tmp_path / "cache")
        key = config_key(config, QUICK_MAX_PS)
        cache.put(key, run)
        document = json.loads(cache.path_for(key).read_text())
        document["schema"] = CACHE_SCHEMA + 1
        cache.path_for(key).write_text(json.dumps(document))
        assert cache.get(key) is None

    def test_concurrent_writers_never_publish_a_torn_entry(self, tmp_path):
        """Regression: two processes simulating the same uncached config
        used to share one deterministic "<key>.tmp" path, so interleaved
        writes could rename a torn entry into place.  With per-writer
        temp files, a reader polling *during* the race can only ever see
        an absent entry or one writer's intact document — never a torn
        one."""
        import multiprocessing

        context = multiprocessing.get_context()
        root = tmp_path / "cache"
        key = "c" * 64
        valid = {"a" * 100_000, "b" * 400_000}
        barrier = context.Barrier(3)  # two writers + this reader
        writers = [
            context.Process(target=_race_put,
                            args=(barrier, str(root), key, fill, size, 150))
            for fill, size in (("a", 100_000), ("b", 400_000))
        ]
        for writer in writers:
            writer.start()

        cache = SweepCache(root)
        path = cache.path_for(key)
        barrier.wait(timeout=30)
        torn = []
        observed = 0
        while any(writer.is_alive() for writer in writers):
            try:
                raw = path.read_text()
            except OSError:
                continue  # not published yet (or mid-replace): fine
            observed += 1
            try:
                document = json.loads(raw)
                label = document["result"]["label"]
                consistent = (label in valid and document["events"]
                              == document["sim_time_ps"] == ord(label[0]))
            except (ValueError, KeyError):
                consistent = False
            if not consistent and len(torn) < 3:
                torn.append(raw[:80])
        for writer in writers:
            writer.join(timeout=120)
        assert all(writer.exitcode == 0 for writer in writers)
        assert observed > 0  # the reader really raced the writers
        assert torn == []

        hit = cache.get(key)  # final entry parses and round-trips
        assert hit is not None
        # No abandoned temp files once every writer has finished.
        assert list(root.glob("*.tmp")) == []

    def test_len_and_clear(self, tmp_path, quick_run):
        _config, run = quick_run
        cache = SweepCache(tmp_path / "cache")
        cache.put("a" * 64, run)
        cache.put("b" * 64, run)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestSweepEngine:
    def test_cold_then_warm(self, tmp_path):
        configs = [quick_config(traffic_scale=0.05),
                   quick_config(traffic_scale=0.07)]
        cache = SweepCache(tmp_path / "cache")
        cold = sweep(configs, max_ps=QUICK_MAX_PS, jobs=1, cache=cache)
        assert [outcome.cached for outcome in cold] == [False, False]
        warm = sweep(configs, max_ps=QUICK_MAX_PS, jobs=1, cache=cache)
        assert [outcome.cached for outcome in warm] == [True, True]
        for before, after in zip(cold, warm):
            assert after.result == before.result
            assert (after.events, after.sim_time_ps) == \
                (before.events, before.sim_time_ps)

    def test_non_object_entries_are_misses_and_resimulated(self, tmp_path):
        """Valid JSON that is not an object is a miss like a torn write."""
        configs = [quick_config(traffic_scale=scale)
                   for scale in (0.05, 0.06, 0.07, 0.08)]
        cache = SweepCache(tmp_path / "cache")
        clean = sweep(configs, max_ps=QUICK_MAX_PS, jobs=1, cache=cache)
        for outcome, entry in zip(clean, ["[]", "null", "3", '"x"']):
            cache.path_for(outcome.key).write_text(entry)
            assert cache.get(outcome.key) is None
        again = sweep(configs, max_ps=QUICK_MAX_PS, jobs=1, cache=cache)
        assert [outcome.cached for outcome in again] == [False] * 4
        assert [outcome.result for outcome in again] \
            == [outcome.result for outcome in clean]
        assert all(cache.get(outcome.key) is not None for outcome in again)

    def test_duplicate_configs_simulated_once(self, tmp_path):
        config = quick_config(traffic_scale=0.05)
        outcomes = sweep([config, config], max_ps=QUICK_MAX_PS, jobs=1,
                         cache=SweepCache(tmp_path / "cache"))
        assert outcomes[0].cached is False
        assert outcomes[1].cached is True
        assert outcomes[1].result == outcomes[0].result
        assert outcomes[1].key == outcomes[0].key

    def test_cache_disabled_always_simulates(self, tmp_path):
        config = quick_config(traffic_scale=0.05)
        first = sweep([config], max_ps=QUICK_MAX_PS, jobs=1, cache=False)
        second = sweep([config], max_ps=QUICK_MAX_PS, jobs=1, cache=False)
        assert first[0].cached is False
        assert second[0].cached is False
        assert second[0].result == first[0].result

    def test_degrades_to_serial_without_multiprocessing(self, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_make_executor", lambda jobs: None)
        configs = [quick_config(traffic_scale=0.05),
                   quick_config(traffic_scale=0.07)]
        outcomes = sweep(configs, max_ps=QUICK_MAX_PS, jobs=4, cache=False)
        assert len(outcomes) == 2
        assert all(outcome.result.transactions > 0 for outcome in outcomes)

    @pytest.mark.bench_smoke
    def test_two_job_sweep_matches_serial_bit_for_bit(self):
        configs = [quick_config(traffic_scale=0.05 + 0.03 * i)
                   for i in range(3)]
        serial = sweep(configs, max_ps=QUICK_MAX_PS, jobs=1, cache=False)
        pooled = sweep(configs, max_ps=QUICK_MAX_PS, jobs=2, cache=False)
        for expected, actual in zip(serial, pooled):
            assert (actual.events, actual.sim_time_ps) == \
                (expected.events, expected.sim_time_ps)
            assert actual.result == expected.result

    def test_mixed_hits_and_misses_aggregate_in_input_order_under_jobs(
            self, tmp_path):
        """Regression: a jobs>1 sweep over a *partially* warm cache (some
        points hit, some simulate in the pool) must aggregate exactly
        like a cold serial sweep — byte-identical results, input order.
        Plain jobs=2 sweeps were covered; the hit/miss interleaving was
        not."""
        configs = [quick_config(traffic_scale=0.05 + 0.02 * i)
                   for i in range(4)]
        cache = SweepCache(tmp_path / "cache")
        # Warm only the odd points, so hits and misses interleave.
        sweep([configs[1], configs[3]], max_ps=QUICK_MAX_PS, jobs=1,
              cache=cache)
        mixed = sweep(configs, max_ps=QUICK_MAX_PS, jobs=2, cache=cache)
        assert [outcome.cached for outcome in mixed] == \
            [False, True, False, True]
        cold = sweep(configs, max_ps=QUICK_MAX_PS, jobs=1, cache=False)
        assert [json.dumps(result_to_dict(m.result), sort_keys=True)
                for m in mixed] == \
            [json.dumps(result_to_dict(c.result), sort_keys=True)
             for c in cold]
        assert [(m.key, m.events, m.sim_time_ps) for m in mixed] == \
            [(c.key, c.events, c.sim_time_ps) for c in cold]


class TestBoundOverrun:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overrun_raises_after_the_finished_points_are_stored(
            self, tmp_path, jobs):
        """One over-tight point costs the sweep that point, not the ones
        that did finish — on the serial and on the pooled path."""
        scales = [0.02, 1.0, 0.03, 0.04]  # the second needs 43 us, not 3
        cache = SweepCache(tmp_path / "cache")

        def run():
            return sweep([quick_config(traffic_scale=scale)
                          for scale in scales],
                         max_ps=3_000_000, jobs=jobs, cache=cache)

        with pytest.raises(SweepError, match="sweep point 1: stbus/"
                           ".* did not finish within 3000000 ps") as failure:
            run()
        overrun = failure.value.__cause__
        assert isinstance(overrun, RunIncomplete)
        # The stall report crosses the pool with the exception.
        assert overrun.diagnosis.startswith("stall diagnosis of 'platform'")
        assert len(cache) == 3
        scales[1] = 0.05  # a point that fits: the other three are hits
        assert [outcome.cached for outcome in run()] \
            == [True, False, True, True]


class TestPoolResilience:
    def test_crashed_worker_is_retried(self, tmp_path):
        sentinel = tmp_path / "crashed_once"
        assert _pool_map(_crash_once, [str(sentinel)], jobs=2,
                         timeout_s=60) == ["recovered"]
        assert sentinel.exists()

    def test_crash_loop_raises_sweep_error(self):
        with pytest.raises(SweepError, match="crashed"):
            _pool_map(_crash_always, ["x"], jobs=2, timeout_s=60)

    def test_job_timeout_raises_sweep_error(self):
        with pytest.raises(SweepError, match="timeout"):
            _pool_map(_sleep_job, [30.0], jobs=2, timeout_s=0.2)
        # The timed-out job's worker is stopped, not left running.
        deadline = time.monotonic() + 3
        while multiprocessing.active_children() and \
                time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


class TestSerialTimeout:
    def test_serial_point_past_its_timeout_raises_sweep_error(self):
        started = time.monotonic()
        with pytest.raises(SweepError, match="timeout"):
            sweep([quick_config(traffic_scale=0.2)], jobs=1, cache=False,
                  timeout_s=0.001)
        assert time.monotonic() - started < 5

    def test_sliced_overrun_raises_after_the_finished_points_are_stored(
            self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        configs = [quick_config(traffic_scale=scale)
                   for scale in (0.02, 1.0, 0.03)]
        with pytest.raises(SweepError, match="sweep point 1: stbus/"
                           ".* did not finish within 3000000 ps") as failure:
            sweep(configs, max_ps=3_000_000, jobs=1, cache=cache,
                  timeout_s=600)
        assert isinstance(failure.value.__cause__, RunIncomplete)
        assert len(cache) == 2

    def test_sliced_serial_run_is_bit_identical(self):
        config = quick_config(traffic_scale=0.1)
        straight, = sweep([config], jobs=1, cache=False)
        sliced, = sweep([config], jobs=1, cache=False, timeout_s=600)
        assert (sliced.result, sliced.events, sliced.sim_time_ps) \
            == (straight.result, straight.events, straight.sim_time_ps)


class TestCaptureInteraction:
    def test_capture_bypasses_cache_and_observes(self, tmp_path):
        from repro.obs import capture

        config = quick_config(traffic_scale=0.05)
        cache = SweepCache(tmp_path / "cache")
        sweep([config], max_ps=QUICK_MAX_PS, jobs=1, cache=cache)
        # Warm cache — but under a capture the point must re-simulate
        # in-process so spans attach to a real simulator.
        with capture() as cap:
            outcomes = sweep([config], max_ps=QUICK_MAX_PS, jobs=2,
                             cache=cache)
        assert outcomes[0].cached is False
        assert len(cap.recorders) == 1
        assert cap.completed()


class TestDefaultJobs:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert default_jobs() == 6

    def test_garbage_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() == 1


BASE_DOC = {
    "protocol": "stbus",
    "topology": "collapsed",
    "traffic_scale": 0.1,
    "cpu": {"enabled": False},
}


class TestSweepSpec:
    def test_single_base_point(self):
        spec = parse_sweep({"base": dict(BASE_DOC)})
        assert spec.labels == ["point0"]
        assert len(spec.configs) == 1
        assert spec.configs[0].protocol == "stbus"
        assert spec.jobs is None

    def test_points_deep_merge_over_base(self):
        spec = parse_sweep({
            "base": dict(BASE_DOC),
            "points": [{"label": "fast", "traffic_scale": 0.2},
                       {"memory": {"wait_states": 7}}],
        })
        assert spec.labels == ["fast", "point1"]
        assert spec.configs[0].traffic_scale == 0.2
        assert spec.configs[1].memory.wait_states == 7
        # the merge keeps untouched base fields
        assert all(c.topology == "collapsed" for c in spec.configs)

    def test_grid_cartesian_product(self):
        spec = parse_sweep({
            "base": dict(BASE_DOC),
            "grid": {"protocol": ["stbus", "ahb"],
                     "memory.wait_states": [1, 4]},
        })
        assert len(spec.configs) == 4
        assert spec.labels[0] == "point0,protocol=stbus,memory.wait_states=1"
        combos = {(c.protocol, c.memory.wait_states) for c in spec.configs}
        assert combos == {("stbus", 1), ("stbus", 4),
                          ("ahb", 1), ("ahb", 4)}

    def test_jobs_and_max_us(self):
        spec = parse_sweep({"base": dict(BASE_DOC), "jobs": 3,
                            "max_us": 50.0})
        assert spec.jobs == 3
        assert spec.max_ps == 50_000_000

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_sweep({"base": dict(BASE_DOC), "warp": 9})

    def test_bad_points_rejected(self):
        with pytest.raises(ConfigError, match="points"):
            parse_sweep({"base": dict(BASE_DOC), "points": []})
        with pytest.raises(ConfigError, match="points"):
            parse_sweep({"base": dict(BASE_DOC), "points": ["x"]})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_sweep({"base": dict(BASE_DOC),
                         "grid": {"traffic_scale": []}})

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigError, match="jobs"):
            parse_sweep({"base": dict(BASE_DOC), "jobs": 0})

    def test_bad_max_us_rejected(self):
        with pytest.raises(ConfigError, match="max_us"):
            parse_sweep({"base": dict(BASE_DOC), "max_us": -1})

    def test_boolean_jobs_rejected(self):
        """JSON ``true`` is not a worker count (``bool`` subclasses ``int``)."""
        with pytest.raises(ConfigError, match="sweep.jobs"):
            parse_sweep({"base": dict(BASE_DOC), "jobs": True})

    def test_boolean_max_us_rejected(self):
        """JSON ``true`` is not a 1 us bound."""
        with pytest.raises(ConfigError, match="sweep.max_us"):
            parse_sweep({"base": dict(BASE_DOC), "max_us": True})

    def test_invalid_point_names_the_label(self):
        with pytest.raises(ConfigError, match="point0"):
            parse_sweep({"base": dict(BASE_DOC),
                         "grid": {"protocol": ["pci"]}})


class TestDefaultCacheDir:
    """Resolution order and hermetic fallbacks of the cache location."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for name in ("REPRO_SWEEP_CACHE", "XDG_CACHE_HOME", "CI"):
            monkeypatch.delenv(name, raising=False)

    def test_explicit_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "mine"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setenv("CI", "1")
        assert sweep_mod.default_cache_dir() == tmp_path / "mine"

    def test_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert sweep_mod.default_cache_dir() == \
            tmp_path / "xdg" / "repro" / "sweeps"

    def test_ci_runners_get_a_temp_dir(self, monkeypatch):
        import tempfile

        monkeypatch.setenv("CI", "true")
        expected = sweep_mod.Path(tempfile.gettempdir()) / "repro-sweeps"
        assert sweep_mod.default_cache_dir() == expected

    def test_unresolvable_home_falls_back_to_temp(self, monkeypatch):
        import pathlib
        import tempfile

        def _no_home():
            raise RuntimeError("no usable home directory")

        monkeypatch.setattr(pathlib.Path, "home", staticmethod(_no_home))
        expected = sweep_mod.Path(tempfile.gettempdir()) / "repro-sweeps"
        assert sweep_mod.default_cache_dir() == expected

    def test_home_is_the_interactive_default(self, monkeypatch, tmp_path):
        import pathlib

        monkeypatch.setattr(pathlib.Path, "home",
                            staticmethod(lambda: tmp_path / "home"))
        assert sweep_mod.default_cache_dir() == \
            tmp_path / "home" / ".cache" / "repro" / "sweeps"


class TestLazyCacheRoot:
    def test_construction_never_touches_the_filesystem(self, monkeypatch):
        """SweepCache() must not resolve (or create) anything until used."""

        def _boom():
            raise AssertionError("resolved the cache dir at construction")

        monkeypatch.setattr(sweep_mod, "default_cache_dir", _boom)
        cache = SweepCache()  # must not raise
        with pytest.raises(AssertionError):
            cache.root  # first real use resolves — and here, detonates

    def test_explicit_root_bypasses_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setattr(sweep_mod, "default_cache_dir",
                            lambda: (_ for _ in ()).throw(RuntimeError()))
        cache = SweepCache(tmp_path / "cache")
        assert cache.root == tmp_path / "cache"

    def test_put_degrades_when_root_is_uncreatable(self, tmp_path, quick_run):
        config, run = quick_run
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should go")
        cache = SweepCache(blocker / "cache")  # mkdir will fail
        key = config_key(config, QUICK_MAX_PS)
        cache.put(key, run)  # must not raise
        assert cache.get(key) is None


class TestLoadSweep:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nosuch"):
            load_sweep(tmp_path / "nosuch.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_sweep(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        with pytest.raises(ConfigError, match="top level"):
            load_sweep(path)

    def test_round_trips_a_written_spec(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "base": dict(BASE_DOC),
            "grid": {"memory.wait_states": [1, 4]},
        }))
        spec = load_sweep(path)
        assert len(spec.configs) == 2


class TestLoadTarget:
    def test_platform_file_is_the_sweep_of_its_one_point(self, tmp_path):
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(BASE_DOC))
        spec = load_target(path, QUICK_MAX_PS)
        config = config_from_dict(BASE_DOC)
        assert spec.configs == [config]
        assert spec.labels == [config.label()]
        assert (spec.jobs, spec.max_ps) == (None, QUICK_MAX_PS)

    def test_sweep_file_keeps_its_own_bound(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "max_us": 5.0, "base": dict(BASE_DOC),
            "grid": {"memory.wait_states": [1, 4]}}))
        spec = load_target(path, QUICK_MAX_PS)
        assert spec.labels == load_sweep(path).labels
        assert len(spec.configs) == 2
        assert spec.max_ps == 5_000_000

    def test_base_alone_makes_a_sweep(self, tmp_path):
        path = tmp_path / "base_only.json"
        path.write_text(json.dumps({"base": dict(BASE_DOC)}))
        assert load_target(path, QUICK_MAX_PS).labels == ["point0"]

    def test_unreadable_and_malformed_files_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="nosuch"):
            load_target(tmp_path / "nosuch.json", QUICK_MAX_PS)
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"base": dict(BASE_DOC), "pionts": []}))
        with pytest.raises(ConfigError, match="unknown keys"):
            load_target(path, QUICK_MAX_PS)
