"""The LT schedule primitive and the response-run claim it allows.

``Fifo.put_schedule`` stores a producer's items at instants fixed in
advance (the LMI streams each read group out of its output FIFO at
device-window instants fixed once the SDRAM access is issued), on one
timer at a time.  ``Fabric._claim_schedule`` lets a response run
take a picked packet's still-scheduled beats and cross them in one step
that ends where beat-by-beat streaming would.  Each is checked here
against the beat-by-beat behaviour it replaces; that no platform result
moves is pinned by ``tests/test_lt_pin.py``.
"""

import pytest

from repro.core import Component, Fifo, Simulator
from repro.core.debug import diagnose
from repro.interconnect import AddressRange, Fabric, ResponseBeat
from repro.memory import LmiConfig, LmiController
from repro.platforms import fig5_instances
from repro.snapshot import resume_checkpoint, take_checkpoint
from repro.sweep import Run

from .helpers import MEM_SPAN, make_node, read


def _packet(txn):
    return [ResponseBeat(txn, index=index, is_last=index == txn.beats - 1)
            for index in range(txn.beats)]


# ----------------------------------------------------------------------
# put_schedule against a ``timeout; put`` loop
# ----------------------------------------------------------------------
def _by_item(sim, fifo, items, instants):
    stores = []
    for item, instant in zip(items, instants):
        if instant > sim.now:
            yield sim.timeout(instant - sim.now)
        yield fifo.put(item)
        stores.append(sim.now)
    return stores


def _by_schedule(sim, fifo, items, instants):
    release = fifo.put_schedule(items, instants)
    if release is not None:
        yield release
    return list(fifo.store_instants)


def _fifo_run(feed, instants, depth, take):
    """An LT FIFO that ``feed`` fills with one item per instant from t=20
    while a consumer drains ``take`` items every 10 ps: the ``(time,
    store/take, level)`` trace, the store instants, the producer's
    release and the events processed; and the FIFO's ``released_ps``."""
    sim = Simulator(resolution="lt")
    fifo = Fifo(sim, depth, name="f")
    trace = []
    fifo.store_listeners.append(
        lambda: trace.append((sim.now, "store", fifo.level)))
    fifo.take_listeners.append(
        lambda: trace.append((sim.now, "take", fifo.level)))
    done = []

    def producer():
        yield sim.timeout(20)
        stores = yield from feed(sim, fifo, list(range(len(instants))),
                                 instants)
        done.append((stores, sim.now))

    def consumer():
        while True:
            yield sim.timeout(10)
            for _ in range(take):
                fifo.try_get()

    sim.process(producer())
    sim.process(consumer())
    sim.run(until=1_000)
    (stores, release), = done
    return (trace, stores, release, sim.processed_events), fifo.released_ps


class TestPutSchedule:
    CASES = {
        # 12 items every 3 ps into 4 slots drained one per 10 ps: the
        # producer blocks, and items are stored later than scheduled.
        "blocking": ([23 + 3 * n for n in range(12)], 4, 1),
        # Instants before the start (t=20), two at once, then spaced out.
        "past": ([0, 5, 10, 20, 20, 40, 55, 90], 4, 2),
        "sparse": ([25 + 17 * n for n in range(8)], 4, 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_a_timeout_and_put_per_item(self, case):
        instants, depth, take = self.CASES[case]
        scheduled, released_ps = _fifo_run(_by_schedule, instants, depth,
                                           take)
        assert scheduled == _fifo_run(_by_item, instants, depth, take)[0]
        _trace, stores, release, _events = scheduled
        # Unlike a put per item, the schedule records its release.
        assert release == released_ps == stores[-1]
        assert all(store >= max(instant, 20)
                   for store, instant in zip(stores, instants))
        if case == "blocking":
            assert any(store > instant
                       for store, instant in zip(stores, instants))

    def test_that_is_due_stores_everything_and_returns_none(self):
        sim = Simulator(resolution="lt")
        fifo = Fifo(sim, 4)
        assert fifo.put_schedule([1, 2, 3], [0, 0, 0]) is None
        assert fifo.snapshot() == (1, 2, 3)
        assert fifo.store_instants == [0, 0, 0]

    def test_is_loosely_timed_only(self):
        with pytest.raises(RuntimeError, match="loosely timed"):
            Fifo(Simulator(), 4).put_schedule([1], [0])

    def test_one_schedule_at_a_time(self):
        sim = Simulator(resolution="lt")
        fifo = Fifo(sim, 4)
        fifo.put_schedule([1, 2], [0, 10])
        with pytest.raises(RuntimeError, match="already pending"):
            fifo.put_schedule([3], [20])


# ----------------------------------------------------------------------
# the claim: where the run ends
# ----------------------------------------------------------------------
def _claimable(protocol="stbus", beats=4, beat_bytes=4, depth=8,
               initiators=1, max_outstanding=1):
    """An LT fabric with one bare target port and one open read on it."""
    sim = Simulator(resolution="lt")
    fabric = make_node(sim, protocol)
    port = fabric.add_target("t0", AddressRange(0, MEM_SPAN),
                             response_depth=depth)
    for index in range(initiators):
        fabric.connect_initiator(f"ip{index}", max_outstanding=max_outstanding)
    txn = read(0, beats=beats, beat_bytes=beat_bytes).bind(sim)
    port.open_responses += 1
    return sim, fabric, port, txn


def _cycles(fabric, txn):
    """Bus cycles one data beat of ``txn`` takes on ``fabric``'s response
    path (AHB has no handshake overhead)."""
    overhead = fabric.spec.resp_overhead_cycles if hasattr(fabric, "spec") \
        else 0
    return -(-txn.beat_bytes // fabric.data_width_bytes) + overhead


def _streamed_end(instants, period, cycles):
    """Beat-by-beat streaming of beats stored at ``instants`` by a
    same-edge channel that is idle at the first: when the head's crossing
    ends, and when the last beat's does."""
    first = instants[0] - instants[0] % period + cycles * period
    end = first
    for ready in instants[1:]:
        wake = ready if ready % period == 0 else \
            ready + period - ready % period
        end = max(end, wake) + cycles * period
    return first, end


def _stream(protocol, instants, beat_bytes):
    """Schedule one packet at ``instants`` and let the fabric deliver it:
    the transaction, the producer's release instant, the store record and
    the events processed."""
    sim, fabric, port, txn = _claimable(protocol, beats=len(instants),
                                        beat_bytes=beat_bytes)
    fifo = port.response_fifo
    released = []

    def producer():
        release = fifo.put_schedule(_packet(txn), instants)
        if release is not None:
            yield release
        released.append(sim.now)

    sim.process(producer())
    sim.run(until=10**9)
    return fabric, txn, released, fifo.store_instants, sim.processed_events


class TestRunEnd:
    CASES = {
        # A device slower than the channel, ready on and off bus edges
        # (200 MHz: 5 000 ps edges).
        "slow_device": ([1_000, 7_500, 15_000, 21_000, 30_000], 4),
        # A device faster than a two-cycle channel: back to back.
        "fast_device": ([1_000, 2_000, 3_000, 4_000], 8),
    }

    @staticmethod
    def _differential(monkeypatch, protocol, instants, beat_bytes):
        """The claimed run, checked against beat-by-beat streaming (the
        claim patched away): same instants, fewer events."""
        fabric, txn, released, stores, events = _stream(protocol, instants,
                                                         beat_bytes)
        with monkeypatch.context() as patch:
            patch.setattr(Fabric, "_claim_schedule", lambda *args: None)
            _fabric, streamed, *rest = _stream(protocol, instants, beat_bytes)
        assert (txn.t_first_data, txn.t_done) == \
            (streamed.t_first_data, streamed.t_done)
        # The claimed beats were never stored, yet the record and the
        # producer's release are the ones streaming gives.
        assert [released, stores] == rest[:2]
        assert events < rest[2]
        return fabric, txn, released, stores

    # STBus and TileLink interleave responses: one target port is what
    # lets them start a packet on its first beat.
    @pytest.mark.parametrize("protocol", ["stbus", "tilelink"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ends_where_streaming_would(self, monkeypatch, protocol, case):
        instants, beat_bytes = self.CASES[case]
        fabric, txn, released, stores = self._differential(
            monkeypatch, protocol, instants, beat_bytes)
        first, end = _streamed_end(instants, fabric.clock.period_ps,
                                   _cycles(fabric, txn))
        assert (txn.t_first_data, txn.t_done) == (first, end)
        assert released == [instants[-1]] and stores == instants

    @pytest.mark.parametrize("protocol", ["avalon", "wishbone"])
    def test_claims_the_tail_of_a_packet_atomic_packet(self, monkeypatch,
                                                       protocol):
        # A packet-atomic channel starts a packet once the FIFO is full;
        # twelve beats into eight slots, from a device slower than the
        # channel, leave a tail to claim.
        self._differential(monkeypatch, protocol,
                           [1_000 + 11_000 * n for n in range(12)], 4)


# ----------------------------------------------------------------------
# the claim: when it is allowed
# ----------------------------------------------------------------------
class TestClaim:
    """A packet scheduled at t=0: its head is stored, the rest pending."""

    @staticmethod
    def _offer(fabric, port, txn, packets=None):
        fifo = port.response_fifo
        beats = [beat for packet in (packets or [txn])
                 for beat in _packet(packet)]
        fifo.put_schedule(beats, [100 * n for n in range(len(beats))])
        return fabric._take_run(port, fifo._items[0], _cycles(fabric, txn))

    @pytest.mark.parametrize("protocol", ["stbus", "avalon"])
    def test_takes_the_scheduled_rest_of_the_packet(self, protocol):
        _sim, fabric, port, txn = _claimable(protocol)
        run = self._offer(fabric, port, txn)
        assert [beat.index for beat in run] == [0, 1, 2, 3]
        fifo = port.response_fifo
        assert not fifo._items and not fifo._scheduled
        assert fifo.store_instants == [0, 100, 200, 300]
        # Stored on an edge, the head crosses from t=0; the rest is ready
        # before it has, so the beats cross back to back.
        cycles = _cycles(fabric, txn)
        assert run.first_ps == cycles * fabric.clock.period_ps
        assert run.edges == 4 * cycles

    @staticmethod
    def _refused(fabric, port, run, scheduled):
        fifo = port.response_fifo
        return (run is None and len(fifo._items) == 1
                and len(fifo._scheduled) == scheduled)

    @pytest.mark.parametrize("protocol", ["stbus", "avalon"])
    def test_refused_for_a_beat_sink(self, protocol):
        _sim, fabric, port, txn = _claimable(protocol)
        txn.meta["beat_sink"] = lambda beat: None
        assert self._refused(fabric, port, self._offer(fabric, port, txn), 3)

    @pytest.mark.parametrize("protocol", ["stbus", "avalon"])
    def test_refused_for_a_second_open_response_transaction(self, protocol):
        _sim, fabric, port, txn = _claimable(protocol)
        port.open_responses += 1  # e.g. a read the target has queued
        assert self._refused(fabric, port, self._offer(fabric, port, txn), 3)

    @pytest.mark.parametrize("protocol", ["stbus", "avalon"])
    def test_refused_for_a_schedule_holding_another_packet(self, protocol):
        _sim, fabric, port, txn = _claimable(protocol)
        other = read(64, beats=2)
        run = self._offer(fabric, port, txn, packets=[txn, other])
        assert self._refused(fabric, port, run, 5)

    @pytest.mark.parametrize("protocol", ["stbus", "avalon"])
    def test_refused_for_a_packet_larger_than_the_fifo(self, protocol):
        _sim, fabric, port, txn = _claimable(protocol, beats=6, depth=4)
        assert self._refused(fabric, port, self._offer(fabric, port, txn), 5)

    @pytest.mark.parametrize("initiators, max_outstanding", [(2, 1), (1, 2)])
    def test_refused_while_a_request_could_arrive(self, initiators,
                                                  max_outstanding):
        _sim, fabric, port, txn = _claimable(
            "avalon", initiators=initiators, max_outstanding=max_outstanding)
        assert self._refused(fabric, port, self._offer(fabric, port, txn), 3)

    @pytest.mark.parametrize("protocol", ["axi", "ahb"])
    def test_never_made_by_a_body_that_crosses_no_claims(self, protocol):
        _sim, fabric, port, txn = _claimable(protocol)
        assert self._refused(fabric, port, self._offer(fabric, port, txn), 3)


# ----------------------------------------------------------------------
# an LMI behind the node
# ----------------------------------------------------------------------
def _lmi_reads(initiators, max_outstanding):
    """Two 4-beat reads through a 4-deep LMI output FIFO, issued as soon
    as the initiator ports' credits allow: every transaction's
    timestamps, the LMI read latencies, the end of the run and the
    fast-forwards taken."""
    sim = Simulator(resolution="lt")
    node = make_node(sim, "stbus", freq_mhz=166, width=8)
    lmi = LmiController.attach(
        sim, node, "lmi", 0, 1 << 26, sim.clock(freq_mhz=166, name="lmi_clk"),
        config=LmiConfig(output_fifo_depth=4))
    ports = [node.connect_initiator(f"ip{index}",
                                    max_outstanding=max_outstanding)
             for index in range(initiators)]
    txns = [read(64 * n, beats=4, beat_bytes=4) for n in range(2)]

    def issue():
        for n, txn in enumerate(txns):
            yield ports[n % initiators].issue(txn)
        for txn in txns:
            yield txn.ev_done

    sim.process(issue())
    sim.run(until=10**9)
    latency = lmi.read_latency
    return ([(t.t_accepted, t.t_first_data, t.t_done) for t in txns],
            (latency.count, latency.mean), sim.now, sim.lt_fastforwards)


@pytest.mark.parametrize("initiators, max_outstanding", [(1, 2), (2, 1)])
def test_a_read_arriving_mid_run_sees_beat_by_beat_streaming(
        monkeypatch, initiators, max_outstanding):
    """With two credits on the node, the second read reaches the LMI
    while the first one's beats are scheduled, and the LMI could store
    its beats before a claimed run ended; so the rule refuses to claim
    on such a node, and the run is the one beat-by-beat streaming gives
    (the fast-forward count included: nothing was claimed)."""
    claimed = _lmi_reads(initiators, max_outstanding)
    times = claimed[0]
    assert times[1][0] < times[0][2]  # accepted before the first is done
    monkeypatch.setattr(Fabric, "_claim_schedule", lambda *args: None)
    assert _lmi_reads(initiators, max_outstanding) == claimed


def test_a_lone_initiator_with_one_credit_claims(monkeypatch):
    claims = []
    rule = Fabric._claim_schedule

    def spy(*args):
        run = rule(*args)
        claims.append(run)
        return run

    monkeypatch.setattr(Fabric, "_claim_schedule", spy)
    claimed = _lmi_reads(1, 1)
    assert any(run is not None for run in claims)
    monkeypatch.setattr(Fabric, "_claim_schedule", lambda *args: None)
    streamed = _lmi_reads(1, 1)
    assert claimed[:3] == streamed[:3]


# ----------------------------------------------------------------------
# checkpoints and stall reports
# ----------------------------------------------------------------------
def _fig5(name):
    return fig5_instances(0.05)[name].scaled(resolution="lt")


def _first_group(monkeypatch, config):
    """The instants of the first LMI read group of three or more beats
    with a gap after its second beat."""
    groups = []
    schedule = Fifo.put_schedule

    def spy(fifo, items, instants):
        groups.append(list(instants))
        return schedule(fifo, items, instants)

    with monkeypatch.context() as patch:
        patch.setattr(Fifo, "put_schedule", spy)
        Run(config).finish()
    return next(instants for instants in groups
                if len(instants) > 2 and instants[1] < instants[2])


@pytest.mark.parametrize("name, claimed", [("collapsed_axi", True),
                                           ("distributed_stbus", False)])
def test_checkpoint_inside_a_read_group_resumes_bit_identically(
        monkeypatch, name, claimed):
    # collapsed_axi claims every read group at its first beat;
    # distributed_stbus hands the LMI's beats to GenConv beat sinks, so
    # its schedules stay pending.
    at_ps = _first_group(monkeypatch, _fig5(name))[1] + 1
    run = Run(_fig5(name))
    assert run.advance(at_ps)
    fifo = run.platform.lmi.port.response_fifo
    assert fifo._schedule_release is not None
    assert bool(fifo._scheduled) != claimed
    outcome = take_checkpoint(_fig5(name), at_ps=at_ps)
    resumed = resume_checkpoint(outcome.checkpoint)
    assert resumed.ok, "\n".join(resumed.mismatches)
    assert resumed.result == outcome.result
    assert resumed.final_events == outcome.final_events


def _engine_waiting_on_a_schedule(claim):
    sim = Simulator(resolution="lt")
    root = Component(sim, "root")
    root.fifo = Fifo(sim, 4, name="out")

    def engine():
        yield root.fifo.put_schedule(list(range(5)), [0, 100, 200, 300, 400])

    root.process(engine(), name="engine")
    sim.run(until=150)
    if claim:
        root.fifo.claim_scheduled()
    text = diagnose(root)
    line = next(line for line in text.splitlines()
                if "process root.engine" in line)
    return text, line


def test_diagnose_reports_a_pending_schedule_and_its_producer():
    text, line = _engine_waiting_on_a_schedule(claim=False)
    note = "[3 item(s) scheduled, next at t=200 ps]"
    assert f"fifo out: 2/4 {note}" in text
    assert line.endswith(f"(released by the schedule of out {note})")
    assert "no scheduled wake" not in text


def test_diagnose_reports_a_claimed_schedule():
    text, line = _engine_waiting_on_a_schedule(claim=True)
    note = "[claimed by a response run, releases at t=400 ps]"
    assert f"fifo out: 2/4 {note}" in text
    assert line.endswith(f"(released by the schedule of out {note})")
