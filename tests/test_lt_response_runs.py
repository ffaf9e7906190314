"""The exact LT response-run rule (``Fabric._take_run``).

In LT, a response channel takes a picked beat together with more of its
packet in one ``clk.edges(cycles * n)`` step when streaming it beat by
beat could not be told apart.  A store-and-forward producer commits its
whole packet with ``Fifo.put_run``, so a packet queued behind a full
FIFO crosses in at most two steps.  The rule is checked here directly,
on response FIFOs filled by hand, and end to end on the platforms whose
LT event counts it lowers.  That it changes no result is pinned by
``tests/test_lt_pin.py``.
"""

import pytest

from repro.core import Fifo, Simulator
from repro.interconnect import AddressRange, Fabric, ResponseBeat
from repro.platforms import (build_platform, fig3_instances, fig5_instances,
                             instance, onchip_memory)

from .helpers import MEM_SPAN, make_node, read, write


def _fabric(protocol, targets=1, resolution="lt", response_depth=4):
    """An LT fabric with ``targets`` bare target ports (no device)."""
    sim = Simulator(resolution=resolution)
    fabric = make_node(sim, protocol)
    ports = [fabric.add_target(f"t{i}", AddressRange(i * MEM_SPAN, MEM_SPAN),
                               response_depth=response_depth)
             for i in range(targets)]
    return fabric, ports


def _open(port, beats=4, buffered=None):
    """One open read at ``port`` with its first ``buffered`` beats (all by
    default) in the response FIFO; returns the transaction."""
    txn = read(0, beats=beats)
    port.open_responses += 1
    for index in range(beats if buffered is None else buffered):
        assert port.response_fifo.try_put(
            ResponseBeat(txn, index=index, is_last=index == beats - 1))
    return txn


def _take(fabric, port, cycles=1):
    return fabric._take_run(port, port.response_fifo._items[0], cycles)


def _packet(txn):
    return [ResponseBeat(txn, index=index, is_last=index == txn.beats - 1)
            for index in range(txn.beats)]


class TestRunFires:
    @pytest.mark.parametrize("protocol", ["tilelink", "axi", "ahb", "avalon"])
    def test_takes_the_buffered_rest_of_the_packet(self, protocol):
        fabric, (port,) = _fabric(protocol)
        txn = _open(port)
        run = _take(fabric, port)
        assert [beat.index for beat in run] == [0, 1, 2, 3]
        assert all(beat.txn is txn for beat in run)
        assert not port.response_fifo._items

    def test_takes_the_last_beat_held_by_a_blocked_put(self):
        fabric, (port,) = _fabric("tilelink", response_depth=2)
        txn = _open(port, beats=3, buffered=2)
        fifo = port.response_fifo
        put = fifo.put(ResponseBeat(txn, index=2, is_last=True))
        assert fifo._put_waiters
        run = _take(fabric, port)
        assert [beat.index for beat in run] == [0, 1, 2]
        assert put.triggered and not fifo._items

    @pytest.mark.parametrize("protocol", ["avalon", "ahb"])
    def test_a_channel_no_other_packet_can_take_needs_no_single_target(
            self, protocol):
        # Packet-atomic responses (Avalon) and a held layer (AHB).
        fabric, (port, _other) = _fabric(protocol, targets=2)
        _open(port)
        assert len(_take(fabric, port)) == 4


class TestRunNeverFires:
    def test_for_a_genconv_bridge_initiator(self):
        fabric, (port,) = _fabric("tilelink")
        txn = _open(port)
        txn.meta["beat_sink"] = lambda beat: None
        assert _take(fabric, port) is None
        assert len(port.response_fifo._items) == 4

    @pytest.mark.parametrize("protocol", ["tilelink", "axi"])
    def test_on_an_interleaving_fabric_with_two_targets(self, protocol):
        fabric, (port, _other) = _fabric(protocol, targets=2)
        _open(port)
        assert _take(fabric, port) is None

    def test_with_a_second_response_producing_transaction_open(self):
        fabric, (port,) = _fabric("tilelink")
        _open(port)
        port.open_responses += 1  # e.g. a read the target is still serving
        assert _take(fabric, port) is None

    def test_before_the_last_beat_is_available(self):
        fabric, (port,) = _fabric("tilelink")
        _open(port, beats=8, buffered=4)
        assert _take(fabric, port) is None

    @pytest.mark.parametrize("protocol", ["tilelink", "axi", "ahb", "stbus"])
    def test_in_a_cycle_accurate_run(self, protocol):
        fabric, _ports = _fabric(protocol, resolution="ca")
        assert fabric._take_run_hook is None


class TestPutRun:
    @staticmethod
    def _trace(feed, take):
        """``(time, level)`` after every store and take of a 4-deep LT
        FIFO that ``feed`` fills with ten items at t=5 and a consumer
        drains ``take`` items every 10 ps; and the producer's release."""
        sim = Simulator(resolution="lt")
        fifo = Fifo(sim, 4, name="f")
        trace = []
        fifo.store_listeners.append(
            lambda: trace.append((sim.now, "store", fifo.level)))
        fifo.take_listeners.append(
            lambda: trace.append((sim.now, "take", fifo.level)))
        released = []

        def producer():
            yield sim.timeout(5)
            yield from feed(fifo, list(range(10)))
            released.append(sim.now)

        def consumer():
            while True:
                yield sim.timeout(10)
                for _ in range(take):
                    fifo.try_get()

        sim.process(producer())
        sim.process(consumer())
        sim.run(until=200)
        return trace, released, fifo.released_ps

    @staticmethod
    def _by_run(fifo, items):
        blocked = fifo.put_run(items)
        if blocked is not None:
            yield blocked

    @staticmethod
    def _by_beat(fifo, items):
        for item in items:
            yield fifo.put(item)

    @pytest.mark.parametrize("take", [1, 2])
    def test_matches_a_put_per_item(self, take):
        run_trace, run_release, stamp = self._trace(self._by_run, take)
        beat_trace, beat_release, _ = self._trace(self._by_beat, take)
        assert run_trace == beat_trace
        assert run_release == beat_release == [stamp]
        assert stamp > 5  # the producer really blocked

    def test_that_fits_stores_everything_and_returns_none(self):
        sim = Simulator(resolution="lt")
        fifo = Fifo(sim, 4)
        assert fifo.put_run([1, 2, 3]) is None
        assert fifo.snapshot() == (1, 2, 3) and not fifo._put_waiters

    def test_is_loosely_timed_only(self):
        with pytest.raises(RuntimeError, match="loosely timed"):
            Fifo(Simulator(), 4).put_run([1])


class TestBlockedPacket:
    """A 12-beat packet ``put_run`` into a 4-deep FIFO."""

    @staticmethod
    def _blocked(open_responses=1):
        fabric, (port,) = _fabric("tilelink", response_depth=4)
        txn = read(0, beats=12)
        port.open_responses += open_responses
        blocked = port.response_fifo.put_run(_packet(txn))
        return fabric, port, blocked

    def test_crosses_in_two_steps(self):
        fabric, port, blocked = self._blocked()
        fifo = port.response_fifo
        first = _take(fabric, port)
        # Every take admitted one queued beat: full, producer still blocked.
        assert [beat.index for beat in first] == list(range(7))
        assert len(fifo._items) == 4 and len(fifo._put_waiters) == 1
        assert not blocked.triggered
        second = _take(fabric, port)
        assert [beat.index for beat in second] == list(range(7, 12))
        assert blocked.triggered and not fifo._items

    def test_a_second_open_transaction_without_a_bound_stops_after_one(self):
        fabric, port, blocked = self._blocked(open_responses=2)
        assert len(_take(fabric, port)) == 7
        assert _take(fabric, port) is None
        assert not blocked.triggered


class TestTurnaroundBound:
    @pytest.mark.parametrize("slack, taken", [(-1, False), (0, True)])
    def test_proves_a_run_no_longer_than_itself(self, slack, taken):
        fabric, (port,) = _fabric("tilelink")
        _open(port)
        port.open_responses += 1  # a second request already queued
        run_ps = 2 * 4 * fabric.clock.period_ps
        port.response_fifo.turnaround_ps = run_ps + slack
        run = _take(fabric, port, cycles=2)
        assert (run is not None) == taken

    def test_stops_at_the_packet_end(self):
        fabric, (port,) = _fabric("tilelink", response_depth=8)
        txn = _open(port, beats=4)
        port.response_fifo.try_put(ResponseBeat(read(64, beats=1), index=0,
                                                is_last=True))
        port.open_responses += 1
        port.response_fifo.turnaround_ps = 10**9
        run = _take(fabric, port)
        assert [beat.txn for beat in run] == [txn] * 4
        assert len(port.response_fifo._items) == 1


@pytest.mark.parametrize("resolution", ["ca", "lt"])
def test_axi_b_finds_an_ack_during_an_r_run(resolution):
    sim = Simulator(resolution=resolution)
    fabric = make_node(sim, "axi")
    port = fabric.add_target("t0", AddressRange(0, MEM_SPAN),
                             response_depth=16)
    port.response_fifo.turnaround_ps = 10**9
    data = read(0, beats=12).bind(sim)
    ack = write(64, beats=1, posted=False).bind(sim)
    port.open_responses += 2
    for beat in _packet(data) + [ResponseBeat(ack, index=-1, is_last=True)]:
        assert port.response_fifo.try_put(beat)
    sim.run(until=10**6)
    period = fabric.clock.period_ps
    # B delivers the acknowledgement on the first edge, mid-R-run; R
    # streams its twelve beats to the same instants in both modes.
    assert ack.t_done == period
    assert data.t_first_data == period and data.t_done == 12 * period
    assert sim.lt_fastforwards == (11 if resolution == "lt" else 0)


#: The platforms whose LT response path the rule shortens.
PLATFORMS = {
    "collapsed_axi": lambda: fig5_instances(0.05)["collapsed_axi"],
    "full_ahb": lambda: fig3_instances(0.05)["full_ahb"],
    "tilelink": lambda: instance("tilelink", "distributed", onchip_memory(1),
                                 traffic_scale=0.05),
}


def _runs(monkeypatch, config):
    """Run ``config``; the simulator and the runs the exact rule took."""
    taken = []
    rule = Fabric._take_run

    def spy(fabric, target, beat, cycles):
        open_before = target.open_responses
        run = rule(fabric, target, beat, cycles)
        if run is not None:
            taken.append((open_before, run))
        return run

    monkeypatch.setattr(Fabric, "_take_run", spy)
    sim = Simulator()
    build_platform(sim, config).run()
    return sim, taken


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_runs_fire_on_the_compared_platforms(monkeypatch, name):
    sim, taken = _runs(monkeypatch,
                       PLATFORMS[name]().scaled(resolution="lt"))
    assert taken and sim.lt_fastforwards > 0
    assert all("beat_sink" not in run[0].txn.meta for _open, run in taken)


def test_the_turnaround_bound_proves_runs_behind_a_queued_request(
        monkeypatch):
    _sim, taken = _runs(monkeypatch, PLATFORMS["collapsed_axi"]()
                        .scaled(resolution="lt"))
    assert any(open_before > 1 for open_before, _run in taken)


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_cycle_accurate_runs_take_none(monkeypatch, name):
    sim, taken = _runs(monkeypatch, PLATFORMS[name]())
    assert not taken and sim.lt_fastforwards == 0
