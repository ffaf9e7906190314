"""Machine-independent cost guard for stalled fabric channels.

A channel process that is blocked — on a full target FIFO, on the next
beat of an atomic packet, on AHB slave wait states — must still *schedule*
one clock-edge event per stalled cycle (that is what keeps cycle-accurate
event counts and orderings exact), but it must not be *resumed* on them:
it waits on ``Clock.edge_until`` and is resumed once, when something it
scanned changed.  Nor may a stalled cycle enter any other Python frame:
the kernel ticks the wait's edge event itself.  Each case below holds one
engine's channel stalled for 40 and then for 400 cycles and requires the
same number of generator resumes, and the same number of calls into
``src/repro``, both times, while the event count grows with the stall —
so a refactor cannot quietly bring the per-cycle rescan or a per-cycle
callback back.

Loosely timed, the same channels sleep on the work signal through
``Clock.edge_after`` and schedule nothing while blocked: resumes, calls
*and* processed events are the same at both stall lengths.
"""

import cProfile
import gc
from pathlib import Path

import pytest

import repro
from repro.core import Simulator
from repro.interconnect import AddressRange, ResponseBeat, StbusType
from repro.interconnect.crossbar import StbusCrossbar

from .helpers import make_node, read, write

HOLDS = (40, 400)
SRC = str(Path(repro.__file__).resolve().parent)


def _crossbar(sim):
    clk = sim.clock(freq_mhz=200, name="xbar_clk")
    return StbusCrossbar(sim, "node", clk, data_width_bytes=4)


def _device(sim, port, clk, hold_before=0, pause_after_beats=None,
            pause_cycles=0):
    """A target that can sit on a request, or stop mid-burst, for a set
    number of cycles and otherwise answers at full speed."""
    def body():
        if hold_before:
            yield clk.edges(hold_before)
        while True:
            txn = yield port.get_request()
            if txn.is_read:
                for index in range(txn.beats):
                    if index == pause_after_beats:
                        yield clk.edges(pause_cycles)
                    yield port.response_fifo.put(ResponseBeat(
                        txn, index, index == txn.beats - 1))
            elif txn.meta.get("needs_ack"):
                yield port.response_fifo.put(ResponseBeat(txn, -1, True))
    sim.process(body(), name="device")


def _stalled_run(build, channel, txns, hold, where, resolution="ca"):
    """Resumes of ``channel``, total events and calls + resumes under
    ``src/repro`` for one run whose stall lasts ``hold`` cycles."""
    sim = Simulator(resolution=resolution)
    node = build(sim)
    port = node.add_target("mem", AddressRange(0, 1 << 20),
                           request_depth=1, response_depth=2)
    if where == "request":    # the target accepts nothing for `hold`
        _device(sim, port, node.clock, hold_before=hold)
    elif where == "wait":     # the target sits on each request for `hold`
        _device(sim, port, node.clock, pause_after_beats=0,
                pause_cycles=hold)
    else:                     # the target stops mid-packet for `hold`
        _device(sim, port, node.clock, pause_after_beats=2,
                pause_cycles=hold)
    proc = next(p for p in node.processes if p.name == f"node.{channel}")
    resumes = [0]
    send = proc._send

    def counting_send(value):
        resumes[0] += 1
        return send(value)

    proc._send = counting_send
    initiator = node.connect_initiator("ip0", max_outstanding=len(txns))
    for txn in txns:
        initiator.issue(txn)
    # Collect an earlier run's cyclic garbage now: a generator of its
    # processes finalised inside the profiled run would count as a call.
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    try:
        sim.run(until=(hold + 200) * node.clock.period_ps * len(txns))
    finally:
        profile.disable()
    assert all(txn.t_done is not None for txn in txns)
    calls = sum(entry.callcount for entry in profile.getstats()
                if not isinstance(entry.code, str)
                and entry.code.co_filename.startswith(SRC))
    return resumes[0], sim.processed_events, calls


def _reads():
    return [read(0x0, beats=4), read(0x40, beats=4), read(0x80, beats=4)]


def _writes():
    return [write(0x0, beats=4), write(0x40, beats=4), write(0x80, beats=4)]


CASES = {
    # A depth-1 target that accepts nothing: the second request is
    # backpressured at the head of the request channel.
    "stbus_t2_request": (
        lambda sim: make_node(sim, bus_type=StbusType.T2), "req",
        _reads, "request"),
    "stbus_t3_request": (
        lambda sim: make_node(sim, bus_type=StbusType.T3), "req",
        _reads, "request"),
    "axi_ar": (lambda sim: make_node(sim, "axi"), "ar", _reads, "request"),
    "axi_aw_w": (lambda sim: make_node(sim, "axi"), "aw_w", _writes,
                 "request"),
    "generic_avalon_request": (
        lambda sim: make_node(sim, "avalon"), "req", _reads, "request"),
    "crossbar_request": (_crossbar, "req[mem]", _reads, "request"),
    # AHB holds the layer through the slave's wait states.
    "ahb_wait_states": (lambda sim: make_node(sim, "ahb"), "bus",
                        lambda: [read(0x0, beats=4)], "wait"),
    # Packet-atomic response channels idle while the packet in flight
    # has no beat buffered.
    "stbus_t2_response": (
        lambda sim: make_node(sim, bus_type=StbusType.T2), "resp",
        lambda: [read(0x0, beats=4)], "response"),
    "generic_avalon_response": (
        lambda sim: make_node(sim, "avalon"), "resp",
        lambda: [read(0x0, beats=4)], "response"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stalled_channel_resumes_do_not_grow_with_the_stall(case):
    build, channel, make_txns, where = CASES[case]
    (short_resumes, short_events, short_calls), \
        (long_resumes, long_events, long_calls) = (
            _stalled_run(build, channel, make_txns(), hold, where)
            for hold in HOLDS)
    assert long_resumes == short_resumes
    # ...and no frame at all: the kernel ticks the stalled edges.
    assert long_calls == short_calls
    # The stall is real and still ticks: one edge event per extra cycle.
    assert long_events - short_events >= HOLDS[1] - HOLDS[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_loosely_timed_stall_schedules_nothing(case):
    build, channel, make_txns, where = CASES[case]
    short, long = (
        _stalled_run(build, channel, make_txns(), hold, where, "lt")
        for hold in HOLDS)
    # Neither generator resumes, calls nor kernel events grow with the
    # stall.
    assert long == short
