"""STBus node model.

STBus (STMicroelectronics' proprietary interconnect) "leverages two physical
channels, one for initiator requests and one for target responses, and
supports split transactions" (Section 3.1).  The model therefore runs two
autonomous processes per node:

request channel
    Arbitrates among initiator ports (optionally at *message* granularity),
    occupies the channel for the request packet duration (1 cell for reads,
    one width-adjusted cell per data beat for writes) and hands the
    transaction to the decoded target's request FIFO.

response channel
    Streams :class:`ResponseBeat` items from target response FIFOs (the
    *prefetch FIFOs* whose depth determines how well target wait states are
    masked) back to initiators, one width-adjusted bus cycle per beat.

Protocol types gate the features exactly as the paper describes:

========  =====================================================================
Type 1    no split, no pipelining: the node serves one transaction end to end
          before re-arbitrating; writes are non-posted.
Type 2    split + pipelined transactions, posted writes: the request channel
          frees as soon as the request is delivered; response packets are
          atomic (beats of one packet stay together, gaps idle the channel).
Type 3    adds shaped packets / out-of-order support: the response channel
          may interleave beats of different packets, switching away from a
          packet whose next beat is not ready.
========  =====================================================================

The zero-handover property of Section 4.1.2 ("the grant signal is propagated
asynchronously from the target to the waiting initiator through the STBus
node in the same clock cycle") holds by construction: a beat that is ready in
a response FIFO is forwarded on the very cycle the channel frees up, and a
queued request wins arbitration on the cycle the target FIFO has room.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from .arbiter import Arbiter, MessageArbiter, MessageLockStall
from .base import Fabric, InitiatorPort, TargetPort
from .stbus_protocol import request_packet
from .types import ResponseBeat, StbusType, Transaction


class StbusNode(Fabric):
    """One STBus node (a crossbar/shared-bus layer with its own clock)."""

    protocol = "stbus"

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 bus_type: StbusType = StbusType.T3,
                 arbiter: Optional[Arbiter] = None,
                 message_arbitration: bool = True,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock, data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)
        self.bus_type = StbusType(bus_type)
        if message_arbitration and not isinstance(self.arbiter, MessageArbiter):
            self.arbiter = MessageArbiter(self.arbiter)
        self.req_channel = self.channel("request")
        self.resp_channel = self.channel("response")
        #: Forced message-lock releases (bounded atomicity tripped); a
        #: non-zero value flags pathological message shaping on this node.
        self.lock_breaks = sim.metrics.counter(f"{name}.lock_breaks")
        self.process(self._request_process(), name="req")
        # The loosely-timed response channel is a separate generator so
        # the cycle-accurate body stays byte-identical to the CA-only code.
        self.process(self._response_process_lt() if self._lt
                     else self._response_process(), name="resp")

    # ------------------------------------------------------------------
    # feature gates
    # ------------------------------------------------------------------
    @property
    def supports_split(self) -> bool:
        """Split transactions free the request path during target latency."""
        return self.bus_type >= StbusType.T2

    @property
    def posted_writes(self) -> bool:
        """Posted writes complete at target acceptance (Type >= 2)."""
        return self.bus_type >= StbusType.T2

    @property
    def interleave_responses(self) -> bool:
        """Shaped/out-of-order packets may interleave beats (Type 3)."""
        return self.bus_type >= StbusType.T3

    # ------------------------------------------------------------------
    # request channel
    # ------------------------------------------------------------------
    def _eligible_requests(self):
        """Grant candidates; with split support, only those whose target can
        accept the request right now (others would block the channel)."""
        candidates = self.request_candidates()
        if not self.supports_split:
            return candidates
        ready = []
        for port, txn in candidates:
            target = self.try_route(txn.address)
            # (Plain-Fifo fullness check, inlined — target request FIFOs
            # are always base Fifos.)  Unmapped addresses stay eligible:
            # the grant turns into a decode-error response (or a wiring
            # error, per policy).
            if target is None or len(target.request_fifo._items) \
                    < target.request_fifo.capacity:
                ready.append((port, txn))
        return ready

    #: Arbitration rounds a message lock may stall the node before it is
    #: forcibly broken (bounded message atomicity).
    MAX_LOCK_STALL_ROUNDS = 64

    def _request_process(self):
        clk = self.clock
        stalled_rounds = 0
        while True:
            candidates = self._eligible_requests()
            if not candidates:
                if any(p.pending._items for p in self.initiators):
                    # Requests exist but every decoded target is full:
                    # the request/grant handshake stalls until a head or
                    # a target FIFO changes.
                    yield self._stall(self._request_work)
                else:
                    yield self._wait_request_work()
                continue
            try:
                port, txn = self.arbiter.select(candidates)
            except MessageLockStall:
                stalled_rounds += 1
                if (stalled_rounds >= self.MAX_LOCK_STALL_ROUNDS
                        and isinstance(self.arbiter, MessageArbiter)):
                    self.arbiter.break_lock()
                    self.lock_breaks.add()
                yield clk.edge()
                continue
            stalled_rounds = 0
            self.pop_granted(port, txn)
            yield from self._transfer_request(txn)

    def request_cycles(self, txn: Transaction) -> int:
        """Request-channel occupancy from the packet composition rules."""
        packet = request_packet(txn, self.data_width_bytes,
                                shaped=self.interleave_responses)
        return packet.cells

    def _transfer_request(self, txn: Transaction):
        clk = self.clock
        target = self.try_route(txn.address)
        if target is None:
            yield clk.edges(1)  # the decode stage samples the address
            self.decode_failed(txn)
            return
        cycles = self.request_cycles(txn)
        target.notify_request_state("storing")
        yield clk.edges(cycles)
        self.req_channel.add_busy(clk.to_ps(cycles))
        is_posted = txn.is_write and txn.posted and self.posted_writes
        txn.meta["needs_ack"] = txn.is_write and not is_posted
        if not (self._lt and target.request_fifo.try_put(txn)):
            # CA always takes the queued put (the same-timestamp round
            # trip is the modelled handshake); LT falls back to it only
            # when the FIFO is actually full (Type 1, no eligibility
            # guarantee).
            yield target.request_fifo.put(txn)
        target.notify_request_state("idle")
        target.accepted.add()
        txn.mark_accepted(self.sim.now)
        if self._checks is not None:
            self._checks.note_accept(self, txn)
        if txn.is_write and txn.posted and self.posted_writes:
            txn.complete(self.sim.now)
        if not self.supports_split:
            # Type 1: hold the node until the transaction fully completes.
            if not txn.ev_done.triggered:
                yield txn.ev_done

    # ------------------------------------------------------------------
    # response channel
    # ------------------------------------------------------------------
    def _response_process(self):
        clk = self.clock
        current: Optional[Tuple[TargetPort, Transaction]] = None
        while True:
            beat = self._pick_beat(current)
            if beat is None:
                if current is not None:
                    # Packet atomicity (T1/T2): the next beat of the packet in
                    # flight is not ready yet — the channel idles until some
                    # target buffers a beat.
                    yield self._stall(self._response_work)
                else:
                    yield self._wait_response_work()
                continue
            target, item = beat
            taken = target.response_fifo.try_get()
            if taken is not item:  # pragma: no cover - single-consumer channel
                raise RuntimeError("response FIFO raced")
            cycles = self.bus_cycles_for_beat(item.txn.beat_bytes)
            yield clk.edges(cycles)
            self.resp_channel.add_busy(clk.to_ps(cycles))
            self.deliver_beat(item)
            current = None if item.is_last else (target, item.txn)

    def _response_process_lt(self):
        """Loosely-timed response channel (see docs/FAST_SIM.md).

        One departure from the cycle-accurate body: a run of consecutive
        buffered beats of the same packet is transferred in one
        closed-form step — CA would stream exactly those beats back to
        back anyway (the in-flight packet always wins :meth:`_pick_beat`),
        so the run's start, duration and last-beat instant are identical;
        only the intermediate beats' delivery is deferred to the end of
        the run.  The first-data timestamp is back-annotated analytically.
        """
        clk = self.clock
        sim = self.sim
        current: Optional[Tuple[TargetPort, Transaction]] = None
        while True:
            beat = self._pick_beat(current)
            if beat is None:
                yield (self._stall(self._response_work) if current is not None
                       else self._wait_response_work())
                continue
            target, item = beat
            fifo = target.response_fifo
            items = fifo._items
            run = 1
            if not item.is_last:
                txn = item.txn
                while run < len(items) and items[run].txn is txn \
                        and not items[run - 1].is_last:
                    run += 1
            beats = [fifo.try_get() for _ in range(run)]
            cycles = self.bus_cycles_for_beat(item.txn.beat_bytes)
            yield clk.edges(cycles * run)
            self.resp_channel.add_busy(clk.to_ps(cycles * run))
            if run > 1:
                sim.note_fastforward(run - 1)
                first = beats[0]
                if first.txn.t_first_data is None and not first.is_write_ack:
                    # CA delivers the run's first beat `cycles` edges in;
                    # the batch ends (run-1)*cycles later.
                    first.txn.t_first_data = \
                        sim.now - clk.to_ps(cycles * (run - 1))
            for delivered in beats:
                self.deliver_beat(delivered)
            last = beats[-1]
            current = None if last.is_last else (target, last.txn)

    def _pick_beat(self, current):
        """Choose the next response beat to forward.

        With a packet in flight: its next beat when ready; otherwise another
        target's beat only if interleaving is allowed (Type 3).

        Packet-atomic types (1/2) only *start* a packet once the target's
        prefetch FIFO can sustain it — the remaining packet is buffered, or
        the FIFO is full (it cannot accumulate further).  This is how deeper
        prefetch FIFOs let STBus mask target wait states: the channel
        streams buffered packets back to back instead of idling in each
        wait-state gap.
        """
        candidates = self.response_candidates()
        if current is not None:
            target, txn = current
            beats = target.response_fifo._items
            if beats and beats[0].txn is txn:
                return target, beats[0]
            if not self.interleave_responses:
                return None
            candidates = [(t, b) for t, b in candidates
                          if not (t is target and b.txn is txn)]
        elif not self.interleave_responses:
            candidates = [(t, b) for t, b in candidates
                          if self._packet_streamable(t, b)]
        if not candidates:
            return None
        # Per-beat rotation across targets: deterministic round robin keyed
        # on the target port.
        return min(candidates, key=lambda cand: cand[0].name)

    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["bus_type"] = int(self.bus_type)
        state["lock_breaks"] = self.lock_breaks.value
        return state

    @staticmethod
    def _packet_streamable(target: TargetPort, beat: ResponseBeat) -> bool:
        """Can this packet be streamed without mid-packet starvation?"""
        if beat.is_write_ack:
            return True
        remaining = beat.txn.beats - beat.index
        fifo = target.response_fifo
        return fifo.level >= min(remaining, fifo.capacity)


class StbusTargetInterface:
    """Helper mixin-ish adaptor documenting the device-side contract.

    Devices attached to an :class:`StbusNode` interact only through their
    :class:`~repro.interconnect.base.TargetPort`:

    * ``yield port.get_request()`` to accept a transaction,
    * ``yield port.put_beat(ResponseBeat(txn, i, is_last))`` per data beat
      (reads) or a single ``index == -1`` acknowledgement beat (non-posted
      writes).

    Kept as a class for documentation/discoverability; it has no state.
    """

    @staticmethod
    def write_ack(txn: Transaction) -> ResponseBeat:
        """The acknowledgement beat of a non-posted write."""
        return ResponseBeat(txn, index=-1, is_last=True)

    @staticmethod
    def read_beats(txn: Transaction):
        """Yield the (index, is_last) schedule of a read burst."""
        for i in range(txn.beats):
            yield i, i == txn.beats - 1
