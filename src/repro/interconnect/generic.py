"""The channel engine every spec-driven fabric is an instance of.

:class:`GenericFabric` writes the two channel bodies of an interconnect
layer once — a *request channel* that arbitrates, transfers and hands a
transaction to its decoded target, and a *response channel* that streams
beats back — and takes every protocol difference from a
:class:`~repro.interconnect.protocols.ProtocolSpec`.  A protocol is a
spec plus the channels it instantiates (the STbus-node view of Murali &
De Micheli: shared bus, partial and full crossbar differ only in how
many channels exist).  Wishbone, APB, AXI4-Lite, Avalon-MM and
TileLink-UL are this class itself, one request and one response
channel — adding another protocol is a registry entry (docs/PROTOCOLS.md
walks through it); the STBus node, the STBus crossbar and AXI subclass
it only to choose which channels exist.  AHB (one data link = one
process) stays outside; devices, bridges, monitors, the energy model and
the snapshot encoder see the same
:class:`~repro.interconnect.base.Fabric` port contracts on all of them.

Timing rules, all spec-driven:

request channel
    A granted transfer occupies ``setup_cycles`` + one cell per
    (width-adjusted) data beat for writes, or a single address cell for
    reads.  Single-beat protocols (``max_burst_beats == 1``) serialise a
    burst into one transfer per beat, each paying its own setup — the
    APB SETUP phase, the per-message TileLink A-channel cost.  Without
    split support the channel holds the fabric until the transaction
    fully completes (STBus Type 1, the Wishbone ``cyc`` envelope, the
    APB access).

response channel
    One width-adjusted cell per beat plus ``resp_overhead_cycles``
    handshake turnaround (classic Wishbone ack registration); write
    acknowledgements cost one cell.  ``response_interleave`` selects
    per-beat switching between packets; packet-atomic protocols only
    start a packet the prefetch FIFO can sustain.

The zero-handover property of Section 4.1.2 ("the grant signal is
propagated asynchronously from the target to the waiting initiator
through the STBus node in the same clock cycle") holds by construction:
a beat that is ready in a response FIFO is forwarded on the very cycle
the channel frees up, and a queued request wins arbitration on the cycle
the target FIFO has room.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.clock import Clock
from ..core.component import Component
from ..core.events import _PENDING
from ..core.kernel import Simulator
from ..core.statistics import ChannelUtilization
from .arbiter import Arbiter, MessageArbiter, MessageLockStall
from .base import ClaimedRun, Fabric, TargetPort
from .protocols import ProtocolSpec, get_spec
from .types import ResponseBeat, Transaction

#: A request channel's head filter: does the transaction at the head of
#: an initiator queue, decoded to ``target``, travel this channel?
HeadFilter = Callable[[Transaction, Optional[TargetPort]], bool]


class GenericFabric(Fabric):
    """One interconnect layer whose protocol semantics come from a spec."""

    #: The ``ProtocolSpec.engine`` value this class serves; subclasses
    #: that instantiate the channels differently name their own.
    engine = "generic"

    #: Its response body crosses a :class:`~repro.interconnect.base.ClaimedRun`.
    _claims_schedules = True

    #: Arbitration rounds a message lock may stall a request channel
    #: before it is forcibly broken (bounded message atomicity).
    MAX_LOCK_STALL_ROUNDS = 64

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 spec: ProtocolSpec,
                 data_width_bytes: int = 4,
                 arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        if isinstance(spec, str):
            spec = get_spec(spec)
        if spec.engine != self.engine:
            raise ValueError(
                f"{spec.name!r} is served by the {spec.engine!r} engine "
                f"class, not {type(self).__name__}")
        super().__init__(sim, name, clock, data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)
        self.spec = spec
        self._packet_atomic = not spec.response_interleave
        #: Forced message-lock releases (bounded atomicity tripped); a
        #: non-zero value flags pathological message shaping.
        self.lock_breaks = sim.metrics.counter(f"{name}.lock_breaks")
        #: Extra transfers created by serialising bursts on single-beat
        #: protocols (zero on burst-capable specs).
        self.burst_segments = sim.metrics.counter(f"{name}.burst_segments")
        self._start_channels()

    def _start_channels(self) -> None:
        """Instantiate this protocol's channels — here the shared-bus
        pair, one request and one response channel."""
        #: Instance attribute shadowing the class-level label: monitors,
        #: energy resolution and bridge plans all key on it.
        self.protocol = self.spec.fabric_label
        self.req_channel = self.channel("request")
        self.resp_channel = self.channel("response")
        self.process(self._request_channel(self.arbiter, self.req_channel),
                     name="req")
        self.process(self._response_channel(), name="resp")

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
        cells = txn.beats * -(-txn.beat_bytes // self.data_width_bytes)
        return transfers * spec.setup_cycles + cells

    def _eligible_requests(self, wants: Optional[HeadFilter] = None):
        """``(candidates, blocked)`` of one request channel.

        Candidates are the queue heads that pass the channel's head
        filter; with split support, only those whose target can accept
        the request right now — granting the others would block the
        channel during target latency, so they report the channel
        *blocked* instead.  Unmapped addresses stay eligible: the grant
        turns into a decode-error response (or a wiring error, per
        policy).
        """
        split = self.spec.split
        decode = split or wants is not None
        ready = []
        blocked = False
        for port in self.initiators:
            # (Head peeks and the fullness check bypass the Fifo frames:
            # this scan runs every arbitration round; target request
            # FIFOs are always base Fifos.)
            queue = port.pending._items
            if not queue:
                continue
            txn = queue[0]
            if not decode:
                target = None
            elif port._decoded is txn:
                target = port._decoded_target
            else:
                target = port._decoded_target = self.try_route(txn.address)
                port._decoded = txn
            if wants is not None and not wants(txn, target):
                continue
            if split and target is not None \
                    and len(target.request_fifo._items) \
                    >= target.request_fifo.capacity:
                blocked = True
            else:
                ready.append((port, txn))
        return ready, blocked

    def _request_channel(self, arbiter: Arbiter, channel: ChannelUtilization,
                         wants: Optional[HeadFilter] = None):
        """One request channel: arbitrate, transfer, hand over, repeat.

        A protocol instantiates this body once per physical request path
        — its arbiter, its busy-time monitor and the heads that travel
        it are the only parameters.
        """
        clk = self.clock
        sim = self.sim
        spec = self.spec
        lt = self._lt
        work = self._request_work
        stalled_rounds = 0
        while True:
            candidates, blocked = self._eligible_requests(wants)
            if not candidates:
                # Blocked: requests exist but every decoded target is
                # full, so the request/grant handshake stalls until a
                # head or a target FIFO changes.  Otherwise: idle.
                yield (self._stall(work) if blocked else work.sleep())
                continue
            try:
                port, txn = arbiter.select(candidates)
            except MessageLockStall:
                stalled_rounds += 1
                if (stalled_rounds >= self.MAX_LOCK_STALL_ROUNDS
                        and isinstance(arbiter, MessageArbiter)):
                    arbiter.break_lock()
                    self.lock_breaks.add()
                yield clk.edge()
                continue
            stalled_rounds = 0
            self.pop_granted(port, txn)
            target = (port._decoded_target if port._decoded is txn
                      else self.try_route(txn.address))
            if target is None:
                yield clk.edges(1)  # the decode stage samples the address
                self.decode_failed(txn)
                continue
            if spec.max_burst_beats:
                self.burst_segments.add(self._transfers(txn) - 1)
            cycles = self.request_cycles(txn)
            if target.interface_probe is not None:
                target.interface_probe.storing(True)
            yield clk.edges(cycles)
            channel.busy_ps += cycles * clk.period_ps
            channel.transfers += 1
            is_write = txn.is_write
            is_posted = is_write and txn.posted and spec.posted_writes
            txn.meta["needs_ack"] = is_write and not is_posted
            if not is_posted:
                target.open_responses += 1
            if not (lt and target.request_fifo.try_put(txn)):
                # CA always takes the queued put (the same-timestamp
                # round trip is the modelled handshake); LT falls back
                # to it only when the FIFO is actually full (no split
                # eligibility, or a sibling channel filled it).
                yield target.request_fifo.put(txn)
            if target.interface_probe is not None:
                target.interface_probe.storing(False)
            target.accepted.value += 1
            now = sim._now
            txn.mark_accepted(now)
            if self._checks is not None:
                self._checks.note_accept(self, txn)
            if is_posted:
                txn.complete(now)
            if not spec.split and txn.ev_done._value is _PENDING:
                # The handshake envelope (STBus Type 1, Wishbone cyc, APB
                # access) holds the fabric until the transaction fully
                # completes.
                yield txn.ev_done

    # ------------------------------------------------------------------
    # response channel
    # ------------------------------------------------------------------
    def _response_channel(self):
        clk = self.clock
        channel = self.resp_channel
        work = self._response_work
        width = self.data_width_bytes
        overhead = self.spec.resp_overhead_cycles
        take_run = self._take_run_hook
        current: Optional[Tuple[TargetPort, Transaction]] = None
        while True:
            beat = self._pick_beat(current)
            if beat is None:
                # Packet atomicity: the next beat of the packet in flight
                # is not buffered yet — the channel idles until some
                # target buffers a beat.
                yield (self._stall(work) if current is not None
                       else work.sleep())
                continue
            target, item = beat
            fifo = target.response_fifo
            # A write acknowledgement is a single cell; data costs its
            # width-adjusted cells plus the spec's handshake turnaround.
            cycles = 1 if item.index == -1 else (
                -(-item.txn.beat_bytes // width) + overhead)
            run = None
            if take_run is not None and not item.is_last \
                    and (len(fifo._items) > 1 or fifo._put_waiters
                         or fifo._scheduled):
                run = take_run(target, item, cycles)
            if run is None:
                n = 1
                taken = fifo.try_get()
                if taken is not item:  # pragma: no cover - single consumer
                    raise RuntimeError("response FIFO raced")
                step = cycles
            else:
                n = len(run)
                step = (run.edges if run.__class__ is ClaimedRun
                        else cycles * n)
            yield clk.edges(step)
            channel.busy_ps += cycles * n * clk.period_ps
            channel.transfers += n
            if run is None:
                self.deliver_beat(item)
            else:
                item = self._deliver_run(run, cycles)
            if item.is_last:
                target.open_responses -= 1
                current = None
            else:
                current = (target, item.txn)

    def _pick_beat(self, current):
        """Choose the next response beat to forward.

        With a packet in flight: its next beat when ready; otherwise
        another target's beat only if the spec interleaves responses.

        Packet-atomic specs only *start* a packet once the target's
        prefetch FIFO can sustain it (:meth:`_packet_streamable`).  This
        is how deeper prefetch FIFOs let STBus mask target wait states:
        the channel streams buffered packets back to back instead of
        idling in each wait-state gap.
        """
        interleave = self.spec.response_interleave
        if current is not None:
            target, txn = current
            beats = target.response_fifo._items
            if beats and beats[0].txn is txn:
                return target, beats[0]
            if not interleave:
                return None
        # Per-beat rotation across targets: deterministic round robin
        # keyed on the target port.  (One pass over the response FIFO
        # heads: this runs per beat, a candidate list and a key function
        # cost more frames than the choice.)
        best = None
        for port in self.targets:
            beats = port.response_fifo._items
            if beats and (best is None or port.name < best[0].name) and (
                    interleave or self._packet_streamable(port, beats[0])):
                best = port, beats[0]
        return best

    @staticmethod
    def _packet_streamable(target: TargetPort, beat: ResponseBeat) -> bool:
        """Packet-atomic start rule: the prefetch FIFO must be able to
        sustain the packet (fully buffered, or full and draining — it
        cannot accumulate further)."""
        if beat.index == -1:
            return True
        remaining = beat.txn.beats - beat.index
        fifo = target.response_fifo
        return len(fifo._items) >= min(remaining, fifo.capacity)

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["protocol"] = self.spec.name
        state["burst_segments"] = self.burst_segments.value
        return state


__all__ = ["GenericFabric"]
