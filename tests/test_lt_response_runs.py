"""The exact LT response-run rule (``Fabric._take_run``).

In LT, a response channel takes a picked beat together with the rest of
its packet in one ``clk.edges(cycles * n)`` step when streaming it beat
by beat could not be told apart.  The rule is checked here directly, on
response FIFOs filled by hand, and end to end on the platforms whose LT
event counts it lowers.  That it changes no result is pinned by
``tests/test_lt_pin.py``.
"""

import pytest

from repro.core import Simulator
from repro.interconnect import AddressRange, Fabric, ResponseBeat
from repro.platforms import (build_platform, fig3_instances, fig5_instances,
                             instance, onchip_memory)

from .helpers import MEM_SPAN, make_node, read


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


def _take(fabric, port):
    return fabric._take_run(port, port.response_fifo._items[0])


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

    def spy(fabric, target, beat):
        run = rule(fabric, target, beat)
        if run is not None:
            taken.append(run)
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
    assert all("beat_sink" not in run[0].txn.meta for run in taken)


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_cycle_accurate_runs_take_none(monkeypatch, name):
    sim, taken = _runs(monkeypatch, PLATFORMS[name]())
    assert not taken and sim.lt_fastforwards == 0
