"""Dual-resolution (CA vs LT) mode tests.

The loosely-timed mode's promises are written down twice: prose and
bounds in ``docs/FAST_SIM.md``, numbers in ``repro.check.lt_accuracy``.
These tests exercise the promises end to end: kernel primitives
(inline-succeed trampoline, immediate process spawn), configuration
plumbing (``resolution`` field, loader round-trip, ``--mode`` CLI flag),
the accuracy contract on the reference platform and randomized
configurations, and the differential harness's bit-identity *within* LT.
"""

import dataclasses
import itertools
import json

import pytest

from repro.check import CheckedRun, LtRun, random_config
from repro.check.lt_accuracy import (
    EXECUTION_TIME_DRIFT,
    LATENCY_DRIFT,
    MIN_CORPUS_EVENT_RATIO,
    MIN_EVENT_SPEEDUP,
    UTILIZATION_ABS_DRIFT,
    universal_failures,
    within_bounds,
)
from repro.cli import main
from repro.core import Simulator
from repro.core.clock import SignalStall, StallTick
from repro.core.events import (
    PRIORITY_NORMAL,
    _PENDING,
    Event,
    EventError,
    Process,
    completed_event,
)
from repro.core.fifo import Fifo
from repro.core.sync import WorkSignal
from repro.memory import LmiConfig
from repro.platforms import (
    build_platform,
    fig5_instances,
    instance,
    onchip_memory,
    quick_config,
)
from repro.platforms.loader import config_from_dict, load_config, save_config

QUICK_MAX_PS = 10**13


def _run_quick(resolution):
    sim = Simulator()
    platform = build_platform(sim, quick_config(resolution=resolution))
    result = platform.run(max_ps=QUICK_MAX_PS)
    return sim, result


# ---------------------------------------------------------------------------
# Kernel primitives
# ---------------------------------------------------------------------------

class TestKernelPrimitives:
    def test_resolution_constructor_and_default(self):
        assert Simulator().resolution == "ca"
        assert not Simulator().lt_enabled
        sim = Simulator(resolution="lt")
        assert sim.resolution == "lt"
        assert sim.lt_enabled

    def test_unknown_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            Simulator(resolution="fast")
        with pytest.raises(ValueError, match="resolution"):
            Simulator().set_resolution("loose")

    def test_set_resolution_requires_pristine_simulator(self):
        sim = Simulator()
        sim.set_resolution("lt")  # pristine: fine
        assert sim.lt_enabled
        def body():
            yield sim2.timeout(1)

        sim2 = Simulator()
        sim2.process(body())
        with pytest.raises(RuntimeError, match="pristine"):
            sim2.set_resolution("lt")
        # A no-op switch is always allowed.
        sim2.set_resolution("ca")

    def test_succeed_inline_runs_callbacks_synchronously(self):
        sim = Simulator(resolution="lt")
        seen = []
        event = Event(sim, name="probe")
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed_inline(42)
        assert seen == [42]
        assert event.triggered and event.ok and event.value == 42
        # Nothing was scheduled: the heap is empty, no events processed.
        assert sim.peek() is None
        assert sim.processed_events == 0

    def test_succeed_inline_rejects_double_trigger(self):
        sim = Simulator(resolution="lt")
        event = Event(sim, name="once")
        event.succeed_inline()
        with pytest.raises(RuntimeError):
            event.succeed_inline()

    def test_inline_trampoline_is_iterative_not_recursive(self):
        # A long chain of events, each triggering the next from inside the
        # previous one's callback, must not hit the recursion limit.
        sim = Simulator(resolution="lt")
        depth = 5000
        events = [Event(sim, name=f"chain{i}") for i in range(depth)]
        fired = []

        def chain(i):
            def fire(_):
                fired.append(i)
                if i + 1 < depth:
                    events[i + 1].succeed_inline()
            return fire

        for i, event in enumerate(events):
            event.callbacks.append(chain(i))
        events[0].succeed_inline()
        assert fired == list(range(depth))

    def test_uncontended_puts_in_a_row_do_not_recurse(self):
        # Every put into a FIFO with room completes on the spot in LT, so
        # the producer yields thousands of already-completed events in a
        # row: continued in a loop, not one _resume frame per event.
        sim = Simulator(resolution="lt")
        fifo = Fifo(sim, 10_000, name="deep")

        def producer():
            for i in range(3000):
                yield fifo.put(i)

        proc = sim.process(producer())
        sim.run()
        assert proc.ok and len(fifo) == 3000
        assert sim.processed_events == 1  # the producer's init, nothing else

    def test_completed_events_in_a_row_do_not_recurse(self):
        sim = Simulator(resolution="lt")
        seen = []

        def body():
            for i in range(5000):
                seen.append((yield completed_event(sim, value=i)))

        sim.process(body())
        sim.run()
        assert seen == list(range(5000))

    def test_resume_loop_equals_the_recursion_it_replaced(self, monkeypatch):
        # Two processes ping-ponging through FIFOs and work signals — runs
        # of completed puts/gets, inline wake-ups, real waits, a failure
        # thrown in — log the same side effects, in the same order, at the
        # same times, whether Process._resume continues a completed event
        # by looping or (the implementation it replaced) by calling itself.
        def resume_by_recursion(self, trigger):
            if self._value is not _PENDING:
                return
            self._target = None
            try:
                if trigger._ok:
                    event = self._send(trigger._value)
                else:
                    event = self._throw(trigger._value)
            except StopIteration as stop:
                self.succeed_inline(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001
                self._ok = False
                self._value = exc
                self.sim._enqueue(self, 0, PRIORITY_NORMAL)
                if not self.callbacks:
                    raise
                return
            if not isinstance(event, Event):
                raise EventError(f"yielded non-event {event!r}")
            self._target = event
            if event.callbacks is None:
                self._resume_cb(event)
            else:
                event.callbacks.append(self._resume_cb)

        def scenario():
            sim = Simulator(resolution="lt")
            clk = sim.clock(period_ps=1_000)
            ping, pong = Fifo(sim, 4, name="ping"), Fifo(sim, 2, name="pong")
            work, credit = WorkSignal(sim, "work"), WorkSignal(sim, "credit")
            log = []

            def mark(*what):
                log.append((sim.now, sim.processed_events) + what)

            def left():
                for round_no in range(6):
                    for i in range(3):          # completed puts in a row
                        yield ping.put((round_no, i))
                        mark("left put", round_no, i)
                    work.notify()
                    mark("left notified")
                    yield credit.wait()         # a real wait
                    while len(pong):            # completed gets in a row
                        mark("left got", (yield pong.get()))
                    if round_no % 2:
                        yield clk.edge()
                failed = Event(sim, name="boom")
                failed.fail(RuntimeError("boom"))
                try:
                    yield failed
                except RuntimeError as exc:
                    mark("left caught", str(exc))
                return "left done"

            def right():
                while True:
                    yield work.wait()           # missed notifies included
                    mark("right woke")
                    while len(ping):
                        item = yield ping.get()
                        yield pong.put(item)    # blocks when pong is full
                        mark("right moved", item)
                        if len(pong) == pong.capacity:
                            credit.notify()
                    credit.notify()
                    yield completed_event(sim)
                    yield clk.edges(2)

            procs = [sim.process(left(), name="left"),
                     sim.process(right(), name="right")]
            sim.run(until=100_000)
            return log, sim.now, sim.processed_events, procs[0].value

        looped = scenario()
        monkeypatch.setattr(Process, "_resume", resume_by_recursion)
        recursed = scenario()
        assert looped == recursed
        assert looped[3] == "left done"
        assert looped[0][-1][2:] == ("left caught", "boom")
        assert sum(entry[2] == "right moved" for entry in looped[0]) == 15

    def test_completed_event_is_pre_triggered(self):
        sim = Simulator(resolution="lt")
        event = completed_event(sim, value="ok")
        assert event.triggered and event.value == "ok"

    def test_immediate_process_spawn_runs_before_heap(self):
        sim = Simulator(resolution="lt")
        order = []

        def child():
            order.append("child")
            return
            yield

        def parent():
            sim.process(child(), name="child", immediate=True)
            order.append("parent-after-spawn")
            return
            yield

        # The parent itself is an elaboration-time spawn: heap-initialised.
        sim.process(parent(), name="parent")
        sim.run()
        assert order == ["child", "parent-after-spawn"]

    def test_immediate_spawn_is_ca_noop(self):
        # In CA mode the flag is ignored: init stays a heap event.
        sim = Simulator()
        ran = []

        def child():
            ran.append(True)
            return
            yield

        sim.process(child(), immediate=True)
        assert not ran  # not before run()
        sim.run()
        assert ran == [True]


# ---------------------------------------------------------------------------
# Configuration plumbing
# ---------------------------------------------------------------------------

class TestConfigPlumbing:
    def test_config_resolution_validated(self):
        with pytest.raises(ValueError, match="resolution"):
            quick_config(resolution="warp")

    def test_platform_applies_config_resolution(self):
        sim = Simulator()
        build_platform(sim, quick_config(resolution="lt"))
        assert sim.lt_enabled
        sim = Simulator()
        build_platform(sim, quick_config())
        assert not sim.lt_enabled

    def test_loader_roundtrip_preserves_resolution(self, tmp_path):
        config = quick_config(resolution="lt")
        path = tmp_path / "lt.json"
        save_config(config, path)
        assert load_config(path).resolution == "lt"
        assert config_from_dict({"resolution": "lt"}).resolution == "lt"

    def test_scaled_override(self):
        config = quick_config()
        assert config.resolution == "ca"
        assert config.scaled(resolution="lt").resolution == "lt"


# ---------------------------------------------------------------------------
# The accuracy contract (docs/FAST_SIM.md)
# ---------------------------------------------------------------------------

class TestAccuracyContract:
    def test_quick_platform_within_bounds_with_speedup(self):
        comparison = LtRun(quick_config(), max_ps=QUICK_MAX_PS,
                           min_event_ratio=MIN_EVENT_SPEEDUP)
        assert comparison.ok, comparison.describe()
        assert comparison.event_ratio >= MIN_EVENT_SPEEDUP
        assert comparison.lt_fastforwards > 0

    def test_exact_fields_and_drift_props(self):
        comparison = LtRun(quick_config(), max_ps=QUICK_MAX_PS)
        assert comparison.lt.transactions == comparison.ca.transactions
        assert (comparison.lt.bytes_transferred
                == comparison.ca.bytes_transferred)
        assert comparison.execution_time_drift <= EXECUTION_TIME_DRIFT
        assert comparison.mean_latency_drift <= LATENCY_DRIFT
        assert comparison.p95_latency_drift <= LATENCY_DRIFT
        assert comparison.utilization_drift <= UTILIZATION_ABS_DRIFT

    def test_within_bounds_flags_violations(self):
        comparison = LtRun(quick_config(), max_ps=QUICK_MAX_PS)
        # An impossible speedup floor must produce a failure message.
        failures = within_bounds(comparison, min_event_ratio=10**6)
        assert any("event ratio" in failure for failure in failures)

    def test_ca_runs_have_no_fastforwards(self):
        sim, _ = _run_quick("ca")
        assert sim.lt_fastforwards == 0

    def test_lt_processes_fewer_events(self):
        ca_sim, _ = _run_quick("ca")
        lt_sim, _ = _run_quick("lt")
        assert lt_sim.processed_events * 5 <= ca_sim.processed_events

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_randomized_configs_universal_clauses(self, seed):
        # Arbitrary configurations get the universal clauses (exact work,
        # never more events); the numeric drift bounds are published for —
        # and gated over — the golden corpus (docs/FAST_SIM.md).
        comparison = LtRun(random_config(seed))
        assert not universal_failures(comparison), comparison.describe()

    def test_hypothesis_randomized_configs(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=15, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=10**6))
        def check(seed):
            comparison = LtRun(random_config(seed))
            assert not universal_failures(comparison), comparison.describe()

        check()

    @pytest.mark.parametrize("entry", [
        "quick_two_phase", "fig3_full_stbus", "fig3_full_ahb",
        "fig5_collapsed_axi", "quick_crossbar"])
    def test_golden_corpus_entries_within_bounds(self, entry):
        # One representative corpus entry per fabric inline in tier-1; the
        # full corpus sweep is benchmarks/lt_gate.py's job in the CI
        # smoke tier.
        from repro.snapshot.golden import golden_configs

        config, max_ps = golden_configs()[entry]
        comparison = LtRun(config, max_ps=max_ps,
                           min_event_ratio=MIN_CORPUS_EVENT_RATIO)
        assert comparison.ok, comparison.describe()

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_checked_run_is_bit_identical_within_lt(self, seed):
        # The fast-vs-traced kernel identity holds inside LT mode too:
        # inline events bypass both loop bodies symmetrically.
        config = random_config(seed).scaled(resolution="lt")
        outcome = CheckedRun(config)
        assert outcome.ok, outcome.format()


# ---------------------------------------------------------------------------
# LT separates candidates along the paper's axes (docs/FAST_SIM.md)
# ---------------------------------------------------------------------------

PROTOCOL_SWAP = ("stbus", "ahb", "axi", "wishbone", "apb")
LMI_SETTINGS = [(1, 1), (1, 8), (8, 1), (8, 8)]


def _protocol_swap(protocol):
    return dataclasses.replace(fig5_instances(0.3)["collapsed_axi"],
                               protocol=protocol)


def _lmi_setting(lookahead_depth, input_fifo_depth):
    lmi = LmiConfig(lookahead_depth=lookahead_depth,
                    input_fifo_depth=input_fifo_depth)
    return fig5_instances(0.3, lmi)["collapsed_stbus"]


def _execution_ps(comparisons, resolution):
    return [getattr(c, resolution).execution_time_ps for c in comparisons]


class TestLtRanksLikeCa:
    """The one approximate mode must tell apart the candidates the paper
    compares: swapping the fabric protocol or the LMI settings moves the
    CA execution time, and LT has to follow it within the corpus bounds
    and keep the CA ordering."""

    @pytest.mark.parametrize("protocol", PROTOCOL_SWAP)
    def test_protocol_swap_within_bounds(self, protocol):
        comparison = LtRun(_protocol_swap(protocol))
        assert comparison.ok, comparison.describe()

    @pytest.mark.parametrize("lookahead_depth, input_fifo_depth",
                             LMI_SETTINGS)
    def test_lmi_setting_within_bounds(self, lookahead_depth,
                                       input_fifo_depth):
        comparison = LtRun(_lmi_setting(lookahead_depth, input_fifo_depth))
        assert comparison.ok, comparison.describe()

    def test_protocol_swap_keeps_ca_ordering(self):
        comparisons = [LtRun(_protocol_swap(p)) for p in PROTOCOL_SWAP]
        ca = _execution_ps(comparisons, "ca")
        lt = _execution_ps(comparisons, "lt")
        # The protocols really differ, so the ordering is informative.
        assert len(set(ca)) == len(PROTOCOL_SWAP)
        assert (sorted(PROTOCOL_SWAP, key=dict(zip(PROTOCOL_SWAP, ca)).get)
                == sorted(PROTOCOL_SWAP, key=dict(zip(PROTOCOL_SWAP, lt)).get))

    def test_lmi_settings_keep_ca_ordering(self):
        comparisons = [LtRun(_lmi_setting(*s)) for s in LMI_SETTINGS]
        ca = _execution_ps(comparisons, "ca")
        lt = _execution_ps(comparisons, "lt")
        assert len(set(ca)) > 1
        for i, j in itertools.combinations(range(len(LMI_SETTINGS)), 2):
            assert (ca[i] > ca[j]) == (lt[i] > lt[j]), (LMI_SETTINGS[i],
                                                        LMI_SETTINGS[j])
            assert (ca[i] == ca[j]) == (lt[i] == lt[j]), (LMI_SETTINGS[i],
                                                          LMI_SETTINGS[j])


# ---------------------------------------------------------------------------
# Stalls schedule nothing (docs/FAST_SIM.md, "Stalls")
# ---------------------------------------------------------------------------

def _stall_site_configs():
    from repro.snapshot.golden import golden_configs

    corpus = golden_configs()
    return {
        "ahb": corpus["fig3_full_ahb"][0],
        "axi": corpus["fig5_collapsed_axi"][0],
        "crossbar": corpus["quick_crossbar"][0],
        "generic": instance("tilelink", "distributed", onchip_memory(1),
                            traffic_scale=0.2),
    }


class TestStallsScheduleNothing:
    @pytest.mark.parametrize("fabric", ["ahb", "axi", "crossbar", "generic"])
    def test_blocked_channels_tick_in_ca_and_sleep_in_lt(self, fabric,
                                                         monkeypatch):
        config = _stall_site_configs()[fabric]
        stalls = []     # (cycles stalled) per finished LT stall wait
        fire = SignalStall._fire

        def recording_fire(stall, edge):
            clock = stall.clock
            stalls.append((clock.sim.now - stall.since) // clock.period_ps)
            fire(stall, edge)

        monkeypatch.setattr(SignalStall, "_fire", recording_fire)

        def run(resolution):
            """Clock-edge events of a stall wait: per ``EdgeStall`` tick
            (its queued ``StallTick``), and per ``SignalStall``
            realignment (the edge it hung a callback on)."""
            ticks, realigns = 0, {}

            def hook(_when, event):
                nonlocal ticks
                if isinstance(event, StallTick):
                    assert event.name == event.stall.clock.name + ".edge"
                    ticks += 1
                for callback in event.callbacks or ():
                    owner = getattr(callback, "__self__", None)
                    if isinstance(owner, SignalStall):
                        assert event.name == owner.clock.name + ".edge"
                        realigns[owner] = realigns.get(owner, 0) + 1

            sim = Simulator(trace=hook)
            build_platform(sim, config.scaled(resolution=resolution)).run()
            return ticks, realigns

        ca_ticks, ca_realigns = run("ca")
        assert ca_ticks > 1000 and not ca_realigns and not stalls
        lt_ticks, lt_realigns = run("lt")
        # Loosely timed, the same backpressure costs no per-cycle event:
        # a stall is at most the one edge it realigns on, however long.
        assert lt_ticks == 0
        assert set(lt_realigns.values()) <= {1}
        assert len(lt_realigns) <= len(stalls)
        assert sum(stalls) > 2 * len(stalls)
        # ...and it is the same backpressure: as many stalled cycles.
        assert abs(sum(stalls) - ca_ticks) < 0.1 * ca_ticks

    def test_hypothesis_new_stall_sites_universal_clauses(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        # AHB wait states, AXI AR/AW backpressure and the crossbar's
        # request engines only learnt to sleep through a stall in LT
        # late; give exactly those the universal clauses at random seeds.
        fabrics = st.sampled_from([
            {"protocol": "ahb"}, {"protocol": "axi"},
            {"protocol": "stbus", "central_crossbar": True}])

        @settings(max_examples=24, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=10**6),
               fabric=fabrics)
        def check(seed, fabric):
            comparison = LtRun(random_config(seed).scaled(**fabric))
            assert not universal_failures(comparison), comparison.describe()

        check()


# ---------------------------------------------------------------------------
# One request body: every fabric accepts inline (docs/FAST_SIM.md)
# ---------------------------------------------------------------------------

class TestInlineAcceptOnEveryFabric:
    #: LT kernel events of the same runs before AXI and the crossbar rode
    #: the shared request body (their accept was always a queued put).
    @pytest.mark.parametrize("fabric, events_before", [
        ({"protocol": "axi"}, 3209),
        ({"protocol": "stbus", "central_crossbar": True}, 2661)])
    def test_axi_and_crossbar_accept_inline(self, fabric, events_before,
                                            monkeypatch):
        from repro.core.fifo import Fifo

        config = quick_config(resolution="lt", **fabric)
        inline = set()
        try_put = Fifo.try_put

        def recording_try_put(fifo, item):
            stored = try_put(fifo, item)
            if stored:
                inline.add(fifo)
            return stored

        monkeypatch.setattr(Fifo, "try_put", recording_try_put)
        sim = Simulator()
        platform = build_platform(sim, config)
        result = platform.run()
        monkeypatch.undo()
        # (The queued put survives only as the fallback for a FIFO that
        # is actually full at hand-over.)
        assert {t.request_fifo for t in platform.fabrics["central"].targets} <= inline
        assert sim.processed_events <= events_before
        assert (result.transactions, result.bytes_transferred) == (126, 6336)
        outcome = CheckedRun(config)
        assert outcome.ok, outcome.format()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestCli:
    def _write_config(self, tmp_path, **overrides):
        document = {
            "protocol": "stbus",
            "topology": "collapsed",
            "traffic_scale": 0.1,
            "cpu": {"enabled": False},
        }
        document.update(overrides)
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(document))
        return path

    def test_platform_mode_flag(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert main(["platform", str(path), "--mode", "lt"]) == 0
        out = capsys.readouterr().out
        assert "resolution:      lt" in out

    def test_platform_mode_defaults_to_config(self, tmp_path, capsys):
        path = self._write_config(tmp_path, resolution="lt")
        assert main(["platform", str(path)]) == 0
        assert "resolution:      lt" in capsys.readouterr().out

    def test_platform_mode_flag_matches_ca_counters(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        assert main(["platform", str(path)]) == 0
        ca_out = capsys.readouterr().out
        assert main(["platform", str(path), "--mode", "lt"]) == 0
        lt_out = capsys.readouterr().out

        def field(output, key):
            for line in output.splitlines():
                if line.startswith(key):
                    return line.split()[-1]
            raise AssertionError(f"{key} not in output")

        assert field(ca_out, "transactions") == field(lt_out, "transactions")
        assert field(ca_out, "bytes") == field(lt_out, "bytes")
