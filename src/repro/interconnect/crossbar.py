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

from typing import Dict, Optional

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from ..core.sync import Semaphore, WorkSignal
from .arbiter import Arbiter, MessageArbiter, MessageLockStall, RoundRobin
from .base import Fabric, TargetPort
from .stbus import StbusNode
from .types import StbusType, Transaction


class StbusCrossbar(StbusNode):
    """Full-crossbar STBus node.

    Inherits the protocol-type feature gates (split support, posted
    writes, response shaping) from :class:`StbusNode` and replaces the two
    shared channel processes with:

    * one request engine per target — initiators contending for *different*
      targets are served in parallel;
    * one response relay per target, serialised per *initiator lane* — two
      targets can stream to two initiators simultaneously, but a single
      initiator still receives one beat per cycle.
    """

    protocol = "stbus-xbar"

    #: Per-target request engines resume on the next strictly-future edge
    #: (mean execution-time drift 0.17 % against 0.74 % with the shared
    #: node's same-edge rule, over 12 seeded ``quick_crossbar`` variants).
    lt_stall_same_edge = False

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 bus_type: StbusType = StbusType.T3,
                 arbiter: Optional[Arbiter] = None,
                 message_arbitration: bool = True,
                 parent: Optional[Component] = None) -> None:
        # Skip StbusNode.__init__ (it spawns the shared-bus processes);
        # initialise the Fabric base directly, then add crossbar state.
        Fabric.__init__(self, sim, name, clock,
                        data_width_bytes=data_width_bytes,
                        arbiter=arbiter, parent=parent)
        self.bus_type = StbusType(bus_type)
        self._message_arbitration = message_arbitration
        self.req_channel = self.channel("request")   # aggregate accounting
        self.resp_channel = self.channel("response")
        self._target_arbiters: Dict[str, Arbiter] = {}
        self._lanes: Dict[str, Semaphore] = {}
        self.lock_breaks = sim.metrics.counter(f"{name}.lock_breaks")
        self.process(self._decode_guard(), name="decode_guard")

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
        self.process(self._request_engine(port, arbiter),
                     name=f"req[{name}]")
        self.process(self._response_engine(port), name=f"resp[{name}]")
        return port

    def _lane(self, initiator: str) -> Semaphore:
        if initiator not in self._lanes:
            self._lanes[initiator] = Semaphore(self.sim, 1,
                                               name=f"lane.{initiator}")
        return self._lanes[initiator]

    def _decode_guard(self):
        """Catch unmapped-address heads no target engine will ever claim."""
        clk = self.clock
        while True:
            handled = False
            for ip in self.initiators:
                if ip.pending.is_empty:
                    continue
                txn = ip.pending.peek()
                if self.try_route(txn.address) is None:
                    self.pop_granted(ip, txn)
                    yield clk.edges(1)
                    self.decode_failed(txn)
                    handled = True
            if not handled:
                yield self._wait_request_work()

    # ------------------------------------------------------------------
    # per-target request engine
    # ------------------------------------------------------------------
    def _candidates_for_target(self, port: TargetPort):
        out = []
        for ip in self.initiators:
            if ip.pending.is_empty:
                continue
            txn = ip.pending.peek()
            if self.try_route(txn.address) is port:
                out.append((ip, txn))
        return out

    def _has_any_for_target(self, port: TargetPort) -> bool:
        return bool(self._candidates_for_target(port))

    def _request_engine(self, port: TargetPort, arbiter: Arbiter):
        clk = self.clock
        stalled = 0
        while True:
            candidates = self._candidates_for_target(port)
            if not candidates or (self.supports_split
                                  and port.request_fifo.is_full):
                if candidates:
                    # Backpressured until a head or a target FIFO changes.
                    yield self._stall(self._request_work)
                else:
                    yield self._wait_request_work()
                continue
            try:
                ip, txn = arbiter.select(candidates)
            except MessageLockStall:
                stalled += 1
                if (stalled >= self.MAX_LOCK_STALL_ROUNDS
                        and isinstance(arbiter, MessageArbiter)):
                    arbiter.break_lock()
                    self.lock_breaks.add()
                yield clk.edge()
                continue
            stalled = 0
            self.pop_granted(ip, txn)
            yield from self._transfer_to(port, txn)

    def _transfer_to(self, port: TargetPort, txn: Transaction):
        clk = self.clock
        cycles = self.request_cycles(txn)
        port.notify_request_state("storing")
        yield clk.edges(cycles)
        self.req_channel.add_busy(clk.to_ps(cycles))
        is_posted = txn.is_write and txn.posted and self.posted_writes
        txn.meta["needs_ack"] = txn.is_write and not is_posted
        yield port.request_fifo.put(txn)
        port.notify_request_state("idle")
        port.accepted.add()
        txn.mark_accepted(self.sim.now)
        if is_posted:
            txn.complete(self.sim.now)
        if not self.supports_split and not txn.ev_done.triggered:
            yield txn.ev_done

    # ------------------------------------------------------------------
    # per-target response relay (serialised per initiator lane)
    # ------------------------------------------------------------------
    def _response_engine(self, port: TargetPort):
        clk = self.clock
        while True:
            beat = yield port.response_fifo.get()
            lane = self._lane(beat.txn.initiator)
            yield lane.acquire()
            cycles = self.bus_cycles_for_beat(beat.txn.beat_bytes)
            if beat.is_write_ack:
                cycles = 1
            yield clk.edges(cycles)
            self.resp_channel.add_busy(clk.to_ps(cycles))
            self.deliver_beat(beat)
            lane.release()

    # The shared-bus response picker is not used by the crossbar.
    def _pick_beat(self, current):  # pragma: no cover - defensive
        raise NotImplementedError("crossbar uses per-target response engines")
