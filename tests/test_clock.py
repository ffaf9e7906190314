"""Unit tests for clock domains."""

import pytest

from repro.core import Simulator, Timeout
from repro.core.clock import EdgeStall, SignalStall
from repro.core.events import PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_URGENT
from repro.core.sync import WorkSignal



def next_edge_time(clk, time_ps):
    """Absolute time of the next strictly-future rising edge of ``clk``."""
    if time_ps < clk.phase_ps:
        return clk.phase_ps
    return time_ps + clk.period_ps - (time_ps - clk.phase_ps) % clk.period_ps

class TestConstruction:
    def test_freq_to_period(self, sim):
        clk = sim.clock(freq_mhz=200)
        assert clk.period_ps == 5_000

    def test_period_direct(self, sim):
        clk = sim.clock(period_ps=4_000)
        assert clk.freq_mhz == 250.0

    def test_exactly_one_spec_required(self, sim):
        with pytest.raises(ValueError):
            sim.clock()
        with pytest.raises(ValueError):
            sim.clock(freq_mhz=100, period_ps=10_000)

    def test_bad_values_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.clock(period_ps=0)
        with pytest.raises(ValueError):
            sim.clock(period_ps=100, phase_ps=-1)


class TestEdges:
    def test_edge_is_strictly_future(self, sim):
        clk = sim.clock(period_ps=1_000)
        log = []

        def body():
            for _ in range(3):
                yield clk.edge()
                log.append(sim.now)

        sim.process(body())
        sim.run()
        assert log == [1_000, 2_000, 3_000]

    def test_edge_from_mid_cycle(self, sim):
        clk = sim.clock(period_ps=1_000)
        log = []

        def body():
            yield sim.timeout(1_500)
            yield clk.edge()
            log.append(sim.now)

        sim.process(body())
        sim.run()
        assert log == [2_000]

    def test_edges_n(self, sim):
        clk = sim.clock(period_ps=1_000)
        log = []

        def body():
            yield clk.edges(5)
            log.append(sim.now)

        sim.process(body())
        sim.run()
        assert log == [5_000]

    def test_edges_fire_where_next_edge_time_says(self):
        # edges() computes the next strictly-future edge inline; this is
        # the definition it must agree with.
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=200, derandomize=True, deadline=None)
        @given(period=st.integers(1, 5_000), phase=st.integers(0, 12_000),
               start=st.integers(0, 20_000), n=st.integers(1, 9))
        def check(period, phase, start, n):
            sim = Simulator()
            clk = sim.clock(period_ps=period, phase_ps=phase)
            fired = []

            def body():
                if start:  # before the first edge, on an edge, between two
                    yield sim.timeout(start)
                expected = next_edge_time(clk, sim.now) + (n - 1) * period
                yield clk.edges(n)
                fired.append((sim.now, expected))

            sim.process(body())
            sim.run()
            (now, expected), = fired
            assert now == expected and clk.at_edge()

        check()

    def test_edges_requires_positive(self, sim):
        clk = sim.clock(period_ps=1_000)
        with pytest.raises(ValueError):
            clk.edges(0)

    def test_phase_offset(self, sim):
        clk = sim.clock(period_ps=1_000, phase_ps=300)
        log = []

        def body():
            yield clk.edge()
            log.append(sim.now)
            yield clk.edge()
            log.append(sim.now)

        sim.process(body())
        sim.run()
        assert log == [300, 1_300]

    def test_an_edge_event_can_be_held_across_later_waits(self, sim):
        clk = sim.clock(period_ps=1_000)
        seen = {}

        def body():
            held = clk.edge()
            yield held
            yield clk.edge()
            later = clk.edge()
            seen.update(held=held, later=later, processed=held.processed)

        sim.process(body())
        sim.run()
        assert seen["later"] is not seen["held"]
        assert seen["processed"]

    def test_a_held_edge_yielded_again_resumes_at_once(self, sim):
        clk = sim.clock(period_ps=1_000)
        log = []

        def body():
            held = clk.edge()
            yield held
            yield clk.edges(2)
            log.append(sim.now)
            yield held
            log.append(sim.now)
            yield clk.edge()
            log.append(sim.now)

        sim.process(body())
        sim.run()
        assert log == [3_000, 3_000, 4_000]

    def test_an_edges_event_can_be_held_across_later_waits(self, sim):
        clk = sim.clock(period_ps=1_000, phase_ps=200)
        seen = {}

        def body():
            held = clk.edges(2)
            yield held
            yield clk.edges(3)
            later = clk.edges(2)
            seen.update(held=held, later=later, processed=held.processed,
                        delay=held.delay)

        sim.process(body())
        sim.run()
        assert seen["later"] is not seen["held"]
        assert seen["processed"] and seen["delay"] == 1_200
        assert seen["later"].delay == 2_000


class TestConversions:
    def test_cycle_index(self, sim):
        # Rising edges at or before t (the edge at t=0 counts) step up
        # exactly where at_edge() says.
        clk = sim.clock(period_ps=1_000)

        def cycle_index(t):
            return (t - clk.phase_ps) // clk.period_ps + 1

        assert [cycle_index(t) for t in (0, 999, 1_000)] == [1, 1, 2]
        assert [t for t in range(1, 3_001)
                if cycle_index(t) != cycle_index(t - 1)] \
            == [t for t in range(1, 3_001) if clk.at_edge(t)]

    def test_at_edge(self, sim):
        clk = sim.clock(period_ps=1_000, phase_ps=500)
        assert not clk.at_edge(0)
        assert clk.at_edge(500)
        assert clk.at_edge(1_500)
        assert not clk.at_edge(1_000)

    def test_to_ps_and_back(self, sim):
        clk = sim.clock(period_ps=6_024)  # 166 MHz
        assert clk.to_ps(11) == 66_264
        assert clk.to_cycles(66_264) == pytest.approx(11.0)


class TestMultiClock:
    def test_domains_stay_aligned(self, sim):
        """400/250/200 MHz clocks share edges at their period LCM."""
        fast = sim.clock(freq_mhz=400)   # 2500 ps
        mid = sim.clock(freq_mhz=250)    # 4000 ps
        slow = sim.clock(freq_mhz=200)   # 5000 ps
        lcm = 20_000  # ps
        for clk in (fast, mid, slow):
            assert lcm % clk.period_ps == 0
            assert clk.at_edge(lcm)

    def test_independent_processes_per_domain(self, sim):
        a = sim.clock(period_ps=2_000)
        b = sim.clock(period_ps=3_000)
        log = []

        def ticker(clk, name, n):
            for _ in range(n):
                yield clk.edge()
                log.append((sim.now, name))

        sim.process(ticker(a, "a", 3))
        sim.process(ticker(b, "b", 2))
        sim.run()
        # At t=6000 both fire; "b" scheduled its edge earlier (at t=3000)
        # so deterministic FIFO ordering puts it first.
        assert log == [(2_000, "a"), (3_000, "b"), (4_000, "a"),
                       (6_000, "b"), (6_000, "a")]


# ----------------------------------------------------------------------
# Clock.edge_until — equivalence with the literal per-edge poll
# ----------------------------------------------------------------------
STALL_PERIOD = 1_000
STALL_HORIZON = 30 * STALL_PERIOD
RUN_MODES = ("fast", "traced", "sliced")


def _literal_edge_until(clk, signal):
    """What ``clk.edge_until(signal)`` is defined to be."""
    seen = signal.generation
    yield clk.edge()
    while signal.generation == seen:
        yield clk.edge()


def _run_stall_schedule(use_wait, mode, changes, rounds, gap_ps):
    """One waiter stalling ``rounds`` times on a signal while ``changes``
    move it; returns everything an observer could tell the variants by.

    Each change is ``(cycle, offset_ps, priority, how, bump)``: it lands
    ``offset_ps`` after bus edge ``cycle`` (0 = exactly on it), from an
    event queued at t=0 (``early``: lower sequence than the poll's edge),
    from one queued at that very instant (``late``: higher sequence), or
    ``cycle`` edges into a second clock domain (``other``).
    """
    trace = []
    sim = Simulator(trace=None if mode == "fast" else
                    (lambda when, event: trace.append((when, event.name))))
    clk = sim.clock(period_ps=STALL_PERIOD, name="bus")
    other = sim.clock(period_ps=700, phase_ps=300, name="other")
    signal = WorkSignal(sim, name="sig")
    log = []

    def mark(who):
        log.append((who, sim.now, sim.processed_events))

    def waiter():
        for index in range(rounds):
            if use_wait:
                yield clk.edge_until(signal)
            else:
                yield from _literal_edge_until(clk, signal)
            mark(f"resume{index}")
            yield sim.timeout(gap_ps)  # a transfer: leaves the edge grid

    def bystander(who):
        # Shares every bus edge with the waiter, one queued before it and
        # one after: a re-arm that took a different place in the queue
        # would swap their order in the log.
        while True:
            yield clk.edge()
            mark(who)

    def changer(index, bump):
        def apply(_event):
            mark(f"change{index}")
            if bump == "notify":
                signal.notify()
            else:
                signal.generation += 1
        return apply

    def from_other_domain(edges, apply):
        yield other.edges(edges)
        apply(None)

    sim.process(bystander("before"), name="before")
    sim.process(waiter(), name="waiter")
    sim.process(bystander("after"), name="after")
    for index, (cycle, offset, priority, how, bump) in enumerate(changes):
        apply = changer(index, bump)
        delay = cycle * STALL_PERIOD + offset
        if how == "early":
            Timeout(sim, delay, priority=priority).add_callback(apply)
        elif how == "late":
            Timeout(sim, delay).add_callback(
                lambda _e, apply=apply, priority=priority:
                Timeout(sim, 0, priority=priority).add_callback(apply))
        else:
            sim.process(from_other_domain(cycle, apply), name=f"other{index}")

    if mode == "sliced":
        # Bounded runs that stop off the bus grid, as Run.advance slices.
        while sim.peek() is not None and sim.peek() <= STALL_HORIZON:
            sim.run(until=min(sim.now + 700, STALL_HORIZON))
    else:
        sim.run(until=STALL_HORIZON)
    return {"log": log, "trace": trace, "events": sim.processed_events}


class TestEdgeUntil:
    def test_wakes_on_first_edge_after_a_change(self, sim):
        clk = sim.clock(period_ps=1_000)
        signal = WorkSignal(sim)
        woke = []

        def body():
            yield clk.edge_until(signal)
            woke.append(sim.now)

        sim.process(body())
        sim.timeout(3_400).add_callback(lambda _e: signal.notify())
        sim.run(until=10_000)
        assert woke == [4_000]

    def test_change_before_the_wait_does_not_count(self, sim):
        clk = sim.clock(period_ps=1_000)
        signal = WorkSignal(sim)
        signal.generation += 1
        woke = []

        def body():
            yield clk.edge_until(signal)
            woke.append(sim.now)

        sim.process(body())
        sim.run(until=5_000)
        assert woke == []

    def test_schedules_one_named_edge_event_per_stalled_cycle(self):
        names = []
        sim = Simulator(trace=lambda _when, event: names.append(event.name))
        clk = sim.clock(period_ps=1_000, name="bus")
        signal = WorkSignal(sim)

        def body():
            yield clk.edge_until(signal)

        sim.process(body(), name="p")
        sim.timeout(4_500).add_callback(lambda _e: signal.notify())
        sim.run()
        # init, five polled edges (t=1000..5000), the timeout, the work
        # event the notify scheduled and the process's completion —
        # nothing for the stall itself, which is never queued.
        assert names.count("bus.edge") == 5
        assert "bus.stall" not in names
        assert sim.processed_events == 9

    def test_keeps_only_its_tick_queued(self, sim):
        clk = sim.clock(period_ps=1_000)
        signal = WorkSignal(sim)

        def body():
            yield clk.edge_until(signal)

        proc = sim.process(body())
        sim.run(until=50_500)
        stall = proc._target
        assert isinstance(stall, EdgeStall) and stall.since == 0
        # Fifty re-queues of one tick: its tick is all it keeps queued.
        assert [event.stall for *_, event in sim._queue] == [stall]

    def test_rearms_its_one_tick(self):
        # The kernel re-queues the wait's own tick: every polled edge is
        # the same object, whatever else runs between the edges.
        trace = []
        sim = Simulator(trace=lambda when, event: trace.append((when, event)))
        clk = sim.clock(period_ps=1_000, name="bus")
        signal = WorkSignal(sim)
        woke = []

        def body():
            yield clk.edge_until(signal)
            woke.append(sim.now)

        def between_edges():
            yield sim.timeout(500)
            while True:
                yield sim.timeout(1_000)

        sim.process(body(), name="p")
        sim.process(between_edges(), name="q")
        sim.timeout(8_200).add_callback(lambda _e: signal.notify())
        sim.run(until=12_000)
        edges = [event for _when, event in trace if event.name == "bus.edge"]
        assert woke == [9_000]
        # Nine edges, one tick object.
        assert len(edges) == 9 and len({id(event) for event in edges}) == 1

    def test_conditions_over_edges_during_a_stall(self, sim):
        clk = sim.clock(period_ps=1_000, name="a")
        other = sim.clock(period_ps=1_500, name="b")
        signal = WorkSignal(sim)
        seen = {}

        def staller():
            yield clk.edge_until(signal)

        def joiner():
            yield sim.timeout(2_200)
            edge_a, edge_b = clk.edge(), other.edge()
            value = yield sim.all_of([edge_a, edge_b])
            seen["value"] = value
            seen["edges"] = (edge_a, edge_b)
            yield clk.edges(3)  # more re-arms after the condition fired

        sim.process(staller())
        sim.process(joiner())
        sim.run(until=10_000)
        edge_a, edge_b = seen["edges"]
        assert seen["value"] == {edge_a: None, edge_b: None}
        assert edge_a.processed and edge_b.processed

    def test_usable_as_a_condition_child(self, sim):
        clk = sim.clock(period_ps=1_000)
        signal = WorkSignal(sim)
        out = []

        def body():
            stall = clk.edge_until(signal)
            limit = sim.timeout(1_500)
            done = yield sim.all_of([stall, limit])
            out.append((sim.now, stall in done, limit in done))

        sim.process(body())
        sim.timeout(1_200).add_callback(lambda _e: signal.notify())
        sim.run(until=4_000)
        assert out == [(2_000, True, True)]

    def test_equivalent_to_the_literal_loop(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        change = st.tuples(
            st.integers(1, 24),
            st.sampled_from([0, 0, 0, 1, 250, 999]),
            st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL,
                             PRIORITY_LOW]),
            st.sampled_from(["early", "late", "other"]),
            st.sampled_from(["notify", "touch"]))

        @settings(max_examples=60, derandomize=True, deadline=None)
        @given(changes=st.lists(change, max_size=8),
               rounds=st.integers(1, 4),
               gap_ps=st.sampled_from([0, 1, 300, 1_000, 1_700]))
        def check(changes, rounds, gap_ps):
            outcomes = {}
            for mode in RUN_MODES:
                waited = _run_stall_schedule(True, mode, changes, rounds,
                                             gap_ps)
                polled = _run_stall_schedule(False, mode, changes, rounds,
                                             gap_ps)
                assert waited == polled, mode
                outcomes[mode] = waited
            assert len({o["events"] for o in outcomes.values()}) == 1
            assert outcomes["traced"]["trace"] == outcomes["sliced"]["trace"]
            # (time, who) order is the kernel's, whichever loop ran it.
            orders = {mode: [(who, when) for who, when, _ in o["log"]]
                      for mode, o in outcomes.items()}
            assert all(order == orders["fast"] for order in orders.values())

        check()


class TestEdgeAfter:
    """``Clock.edge_after``: the loosely-timed stall wait."""

    @staticmethod
    def _literal(clk, signal, same_edge):
        yield signal.wait()
        if not (same_edge and clk.at_edge()):
            yield clk.edge()

    @staticmethod
    def _run(wait, notify_at, same_edge, notify_first=False):
        """Wake instant and ``bus.edge`` events of one consumer that goes
        to wait at t=2000 while the signal fires at ``notify_at``."""
        names = []
        sim = Simulator(trace=lambda _when, event: names.append(event.name),
                        resolution="lt")
        clk = sim.clock(period_ps=1_000, name="bus")
        signal = WorkSignal(sim)
        woke = []
        if notify_first:
            signal.notify()  # nobody waits yet: a missed notify

        def body():
            yield clk.edges(2)
            yield wait(clk, signal, same_edge)
            woke.append(sim.now)

        sim.process(body(), name="p")
        for when in notify_at:
            sim.timeout(when).add_callback(lambda _e: signal.notify())
        sim.run()
        return woke, names.count("bus.edge")

    @staticmethod
    def _wait(clk, signal, same_edge):
        return clk.edge_after(signal, same_edge=same_edge)

    @pytest.mark.parametrize("same_edge", [True, False])
    @pytest.mark.parametrize("notify_first", [False, True])
    @pytest.mark.parametrize("notify_at", [
        (3_400,),           # between edges
        (4_000,),           # exactly on an edge
        (2_000,),           # on the edge the wait starts on
        (3_400, 3_400),     # two notifies, one instant
        (3_400, 3_600),     # a second notify while realigning
    ])
    def test_equivalent_to_the_literal_two_step_wait(self, notify_at,
                                                     notify_first, same_edge):
        def literal(clk, signal, rule):
            # A sub-process stands in for the two yields the fabrics used.
            return clk.sim.process(self._literal(clk, signal, rule),
                                   immediate=True)

        assert self._run(self._wait, notify_at, same_edge, notify_first) \
            == self._run(literal, notify_at, same_edge, notify_first)

    def test_same_edge_rule(self):
        # (wake instant, edge events incl. the one that leads to t=2000)
        assert self._run(self._wait, (4_000,), True) == ([4_000], 1)
        assert self._run(self._wait, (4_000,), False) == ([5_000], 2)
        for rule in (True, False):
            assert self._run(self._wait, (3_400,), rule) == ([4_000], 2)
            # A missed notify is consumed by the wait itself.
            assert self._run(self._wait, (), rule, notify_first=True) \
                == ([2_000] if rule else [3_000], 1 if rule else 2)

    def test_schedules_nothing_while_the_signal_is_quiet(self):
        sim = Simulator(resolution="lt")
        clk = sim.clock(period_ps=1_000, name="bus")
        signal = WorkSignal(sim, name="work")

        def body():
            yield clk.edge_after(signal)

        proc = sim.process(body(), name="p")
        sim.timeout(500_300).add_callback(lambda _e: signal.notify())
        sim.run(until=400_000)
        stall = proc._target
        assert isinstance(stall, SignalStall)
        assert stall.since == 0 and stall.signal is signal
        # The process's init event and nothing else, 400 cycles in.
        assert sim.processed_events == 1 and len(sim._queue) == 1
        sim.run()
        # Plus the notifying timeout and the one realignment edge.
        assert sim.now == 501_000 and sim.processed_events == 3
        assert not proc.is_alive
