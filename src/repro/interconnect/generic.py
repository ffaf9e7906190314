"""The shared spec-driven fabric engine.

:class:`GenericFabric` is one timing model parameterised entirely by a
:class:`~repro.interconnect.protocols.ProtocolSpec`: request arbitration
and transfer costs, burst serialisation for single-beat protocols,
posted-write and split behaviour, packet-atomic vs interleaved response
streaming.  Wishbone, APB, AXI4-Lite, Avalon-MM and TileLink-UL are all
instances of this class — adding another protocol is a registry entry,
not a new fabric model (docs/PROTOCOLS.md walks through it).

The structure deliberately mirrors :class:`~repro.interconnect.stbus
.StbusNode` (request process + response process over the shared
:class:`~repro.interconnect.base.Fabric` port machinery), so devices,
bridges, monitors, the energy model and the snapshot encoder see the
same contracts they already handle.  The legacy fabrics keep their own
hand-written engines: their cycle behaviour is pinned by the golden
corpus and is not re-derived from specs.

Timing rules, all spec-driven:

request channel
    A granted transfer occupies ``setup_cycles`` + one cell per
    (width-adjusted) data beat for writes, or a single address cell for
    reads.  Single-beat protocols (``max_burst_beats == 1``) serialise a
    burst into one transfer per beat, each paying its own setup — the
    APB SETUP phase, the per-message TileLink A-channel cost.  Without
    split support the engine holds the fabric until the transaction
    fully completes (the Wishbone ``cyc`` envelope, the APB access).

response channel
    One width-adjusted cell per beat plus ``resp_overhead_cycles``
    handshake turnaround (classic Wishbone ack registration); write
    acknowledgements cost one cell.  ``response_interleave`` selects
    per-beat switching between packets; packet-atomic protocols only
    start a packet the prefetch FIFO can sustain, exactly like the
    STBus rule.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from .arbiter import Arbiter, MessageLockStall
from .base import Fabric, TargetPort
from .protocols import ProtocolSpec, get_spec
from .types import ResponseBeat, Transaction


class GenericFabric(Fabric):
    """One interconnect layer whose protocol semantics come from a spec."""

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 spec: ProtocolSpec,
                 data_width_bytes: int = 4,
                 arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        if isinstance(spec, str):
            spec = get_spec(spec)
        if spec.engine != "generic":
            raise ValueError(
                f"{spec.name!r} is served by the hand-written {spec.engine!r}"
                f" engine, not GenericFabric")
        super().__init__(sim, name, clock, data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)
        self.spec = spec
        #: Instance attribute shadowing the class-level label: monitors,
        #: energy resolution and bridge plans all key on the spec name.
        self.protocol = spec.name
        self.req_channel = self.channel("request")
        self.resp_channel = self.channel("response")
        #: Extra transfers created by serialising bursts on single-beat
        #: protocols (zero on burst-capable specs).
        self.burst_segments = sim.metrics.counter(f"{name}.burst_segments")
        self.process(self._request_process(), name="req")
        self.process(self._response_process(), name="resp")

    # ------------------------------------------------------------------
    # request channel
    # ------------------------------------------------------------------
    def _transfers(self, txn: Transaction) -> int:
        """Bus transfers one transaction needs (burst serialisation)."""
        limit = self.spec.max_burst_beats
        if limit and txn.beats > limit:
            return -(-txn.beats // limit)
        return 1

    def request_cycles(self, txn: Transaction) -> int:
        """Request-channel occupancy of the whole (serialised) transfer."""
        spec = self.spec
        transfers = self._transfers(txn)
        if txn.is_read:
            # One address cell per transfer, plus per-transfer setup.
            return transfers * (spec.setup_cycles + 1)
        cells = txn.beats * self.bus_cycles_for_beat(txn.beat_bytes)
        return transfers * spec.setup_cycles + cells

    def _eligible_requests(self):
        """Grant candidates; split specs skip targets with no FIFO room
        (granting them would block the channel during target latency)."""
        candidates = self.request_candidates()
        if not self.spec.split:
            return candidates
        ready = []
        for port, txn in candidates:
            target = self.try_route(txn.address)
            # Unmapped addresses stay eligible: the grant becomes a
            # decode-error response (or a wiring error, per policy).
            if target is None or len(target.request_fifo._items) \
                    < target.request_fifo.capacity:
                ready.append((port, txn))
        return ready

    def _request_process(self):
        clk = self.clock
        while True:
            candidates = self._eligible_requests()
            if not candidates:
                if any(p.pending._items for p in self.initiators):
                    # Every decoded target is full.
                    yield self._stall(self._request_work)
                else:
                    yield self._wait_request_work()
                continue
            try:
                port, txn = self.arbiter.select(candidates)
            except MessageLockStall:  # pragma: no cover - plain arbiters
                yield clk.edge()
                continue
            self.pop_granted(port, txn)
            yield from self._transfer_request(txn)

    def _transfer_request(self, txn: Transaction):
        clk = self.clock
        spec = self.spec
        target = self.try_route(txn.address)
        if target is None:
            yield clk.edges(1)  # the decode stage samples the address
            self.decode_failed(txn)
            return
        transfers = self._transfers(txn)
        if transfers > 1:
            self.burst_segments.add(transfers - 1)
        cycles = self.request_cycles(txn)
        target.notify_request_state("storing")
        yield clk.edges(cycles)
        self.req_channel.add_busy(clk.to_ps(cycles))
        is_posted = txn.is_write and txn.posted and spec.posted_writes
        txn.meta["needs_ack"] = txn.is_write and not is_posted
        if not (self._lt and target.request_fifo.try_put(txn)):
            yield target.request_fifo.put(txn)
        target.notify_request_state("idle")
        target.accepted.add()
        txn.mark_accepted(self.sim.now)
        if self._checks is not None:
            self._checks.note_accept(self, txn)
        if is_posted:
            txn.complete(self.sim.now)
        if not spec.split:
            # The handshake envelope (Wishbone cyc, APB access) holds the
            # fabric until the transaction fully completes.
            if not txn.ev_done.triggered:
                yield txn.ev_done

    # ------------------------------------------------------------------
    # response channel
    # ------------------------------------------------------------------
    def _response_process(self):
        clk = self.clock
        spec = self.spec
        current: Optional[Tuple[TargetPort, Transaction]] = None
        while True:
            beat = self._pick_beat(current)
            if beat is None:
                if current is not None:
                    # Packet atomicity: the in-flight packet's next beat
                    # is not buffered yet — the channel idles until some
                    # target buffers a beat.
                    yield self._stall(self._response_work)
                else:
                    yield self._wait_response_work()
                continue
            target, item = beat
            taken = target.response_fifo.try_get()
            if taken is not item:  # pragma: no cover - single consumer
                raise RuntimeError("response FIFO raced")
            if item.is_write_ack:
                cycles = 1
            else:
                cycles = (self.bus_cycles_for_beat(item.txn.beat_bytes)
                          + spec.resp_overhead_cycles)
            yield clk.edges(cycles)
            self.resp_channel.add_busy(clk.to_ps(cycles))
            self.deliver_beat(item)
            current = None if item.is_last else (target, item.txn)

    def _pick_beat(self, current):
        """Next response beat to forward (see ``StbusNode._pick_beat``)."""
        candidates = self.response_candidates()
        if current is not None:
            target, txn = current
            beats = target.response_fifo._items
            if beats and beats[0].txn is txn:
                return target, beats[0]
            if not self.spec.response_interleave:
                return None
            candidates = [(t, b) for t, b in candidates
                          if not (t is target and b.txn is txn)]
        elif not self.spec.response_interleave:
            candidates = [(t, b) for t, b in candidates
                          if self._packet_streamable(t, b)]
        if not candidates:
            return None
        return min(candidates, key=lambda cand: cand[0].name)

    @staticmethod
    def _packet_streamable(target: TargetPort, beat: ResponseBeat) -> bool:
        """Packet-atomic start rule: the prefetch FIFO must be able to
        sustain the packet (fully buffered, or full and draining)."""
        if beat.is_write_ack:
            return True
        remaining = beat.txn.beats - beat.index
        fifo = target.response_fifo
        return fifo.level >= min(remaining, fifo.capacity)

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["protocol"] = self.spec.name
        state["burst_segments"] = self.burst_segments.value
        return state


__all__ = ["GenericFabric"]
