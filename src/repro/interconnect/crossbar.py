"""STBus crossbar node.

The paper sizes bridges against "an STBus node with 5x3 crossbar topology
at 64 bits": STBus nodes are configurable from shared-bus to full crossbar.
:class:`~repro.interconnect.stbus.StbusNode` models the shared-bus
instance (one request + one response channel); this class models the
crossbar instance — per-target request paths and per-initiator response
lanes, so independent initiator->target flows proceed concurrently.

In the many-to-one, memory-centric scenario a crossbar buys nothing (one
target = one request path); in many-to-many it removes the shared-channel
contention that Section 4.1.1 charges against the shared-bus STBus —
which is exactly why video-processor-class SoCs with many embedded
memories deploy crossbars.
"""

from __future__ import annotations

from typing import Dict

from ..core.sync import Semaphore
from .arbiter import Arbiter, MessageArbiter, RoundRobin
from .base import TargetPort
from .stbus import StbusNode


class StbusCrossbar(StbusNode):
    """Full-crossbar STBus node.

    Serves the same ``stbus_t*`` specs as :class:`StbusNode` (split
    support, posted writes, the packet cell rule) and instantiates the
    channels differently:

    * one request channel per target — initiators contending for
      *different* targets are served in parallel;
    * one response relay per target, serialised per *initiator lane* — two
      targets can stream to two initiators simultaneously, but a single
      initiator still receives one beat per cycle.
    """

    protocol = "stbus-xbar"

    #: Per-target request channels resume on the next strictly-future edge
    #: (mean execution-time drift 0.17 % against 0.74 % with the shared
    #: node's same-edge rule, over 12 seeded ``quick_crossbar`` variants).
    lt_stall_same_edge = False

    def _start_channels(self) -> None:
        self.req_channel = self.channel("request")   # aggregate accounting
        self.resp_channel = self.channel("response")
        self._target_arbiters: Dict[str, Arbiter] = {}
        self._lanes: Dict[str, Semaphore] = {}
        # The default slave: a request channel of its own for the heads
        # no target channel will ever claim (unmapped addresses).
        self.process(self._request_channel(
            self.arbiter, self.req_channel,
            lambda _txn, target: target is None), name="decode_guard")

    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["target_arbiters"] = {
            name: encoder.arbiter(arbiter)
            for name, arbiter in self._target_arbiters.items()}
        state["lanes"] = {name: lane.available
                          for name, lane in self._lanes.items()}
        return state

    # ------------------------------------------------------------------
    def add_target(self, name: str, address_range, request_depth: int = 1,
                   response_depth: int = 2) -> TargetPort:
        port = super().add_target(name, address_range,
                                  request_depth=request_depth,
                                  response_depth=response_depth)
        arbiter: Arbiter = RoundRobin()
        if self._message_arbitration:
            arbiter = MessageArbiter(arbiter)
        self._target_arbiters[name] = arbiter
        self.process(self._request_channel(
            arbiter, self.req_channel,
            lambda _txn, target: target is port), name=f"req[{name}]")
        self.process(self._response_engine(port), name=f"resp[{name}]")
        return port

    def _lane(self, initiator: str) -> Semaphore:
        if initiator not in self._lanes:
            self._lanes[initiator] = Semaphore(self.sim, 1,
                                               name=f"lane.{initiator}")
        return self._lanes[initiator]

    # ------------------------------------------------------------------
    # per-target response relay (serialised per initiator lane)
    # ------------------------------------------------------------------
    def _response_engine(self, port: TargetPort):
        clk = self.clock
        channel = self.resp_channel
        width = self.data_width_bytes
        overhead = self.spec.resp_overhead_cycles
        while True:
            beat = yield port.response_fifo.get()
            lane = self._lane(beat.txn.initiator)
            yield lane.acquire()
            cycles = 1 if beat.index == -1 else (
                -(-beat.txn.beat_bytes // width) + overhead)
            yield clk.edges(cycles)
            channel.busy_ps += cycles * clk.period_ps
            channel.transfers += 1
            self.deliver_beat(beat)
            if beat.is_last:
                port.open_responses -= 1
            lane.release()
