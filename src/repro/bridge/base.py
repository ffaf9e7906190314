"""Common bridge machinery (the generic hybrid bridge scheme of Fig. 2).

Every bridge has

* a **target side** attached to the *source* fabric (it looks like a slave
  decoding the address window that lives beyond the bridge),
* an **initiator side** attached to the *destination* fabric (it re-issues a
  *child* transaction there), and
* crossing latency between the two, standing in for the asynchronous FIFOs
  that separate the clock domains.

Besides protocol matching, "bridges are in charge of additional tasks in
heterogeneous MPSoC platforms, such as frequency adaptation and datawidth
conversion" (Section 1): the child transaction is re-beaten to the
destination fabric's data width, and the response stream is converted back,
byte-accurately, to the source side's beat size.
"""

from __future__ import annotations

from typing import Optional

from ..core.component import Component
from ..core.kernel import Simulator
from ..interconnect.base import Fabric, InitiatorPort, TargetPort
from ..interconnect.types import AddressRange, ResponseBeat, Transaction
from ..obs.energy import fj_from_pj as _fj


class BridgeBase(Component):
    """Shared plumbing of lightweight bridges and GenConv converters.

    Parameters
    ----------
    source / dest:
        The fabrics on either side.  Their protocols may differ freely; the
        port abstraction hides the details, and the subclasses model the
        *functional* differences (split capability, blocking behaviour).
    address_range:
        The window on ``source`` that routes across this bridge.
    crossing_cycles:
        One-way latency through the bridge, in destination-clock cycles on
        the forward path and source-clock cycles on the return path; the
        bridge processes charge it inline (0 = free).
    request_depth / response_depth:
        Buffering of the bridge's source-side bus interface.
    """

    def __init__(self, sim: Simulator, name: str, source: Fabric, dest: Fabric,
                 address_range: AddressRange, crossing_cycles: int = 2,
                 request_depth: int = 2, response_depth: int = 4,
                 child_outstanding: int = 1,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=dest.clock, parent=parent)
        if crossing_cycles < 0:
            raise ValueError(f"negative crossing latency {crossing_cycles}")
        self.source = source
        self.dest = dest
        self.crossing_cycles = crossing_cycles
        self.target_port: TargetPort = source.add_target(
            name, address_range,
            request_depth=request_depth, response_depth=response_depth)
        self.init_port: InitiatorPort = dest.connect_initiator(
            f"{name}.out", max_outstanding=child_outstanding)
        self.forwarded = sim.metrics.counter(f"{name}.forwarded")
        #: Loosely-timed flag, captured once (select-once discipline).
        self._lt = sim.lt_enabled
        checks = getattr(sim, "_checks", None)
        if checks is not None:
            checks.register_bridge(self)
        #: Energy accountant slot + pre-resolved per-beat charge (fJ).
        self._energy = sim._energy
        self._e_beat = 0 if self._energy is None else \
            _fj(self._energy.config.bridge_pj_per_beat)
        #: Message-grouping survival, resolved once (select-once
        #: discipline): subclass policy AND a source that delivers
        #: message packets contiguously.
        self._messages_survive = (self.preserve_messages
                                  and self._source_keeps_messages())

    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """Human-readable protocol pair, e.g. ``"ahb-stbus"``."""
        return f"{self.source.protocol}-{self.dest.protocol}"

    #: Whether message grouping survives the crossing.  Only safe when the
    #: source fabric delivers message packets contiguously (STBus-family
    #: fabrics with message arbitration do — the shared node *and* the
    #: crossbar, whose per-target ``MessageArbiter`` keeps packets
    #: together; AHB/AXI interleave freely, and forwarding the grouping
    #: would dead-lock the destination's message lock).
    preserve_messages = False

    def _source_keeps_messages(self) -> bool:
        """Resolved through the protocol registry so every STBus-family
        source qualifies.  The old hand-coded test compared the protocol
        label against ``"stbus"`` exactly, which silently stripped message
        grouping when the source was an STBus *crossbar* (label
        ``"stbus-xbar"``) — the one asymmetry the derived bridge matrix
        flushed out of the hand-written pairings."""
        from ..interconnect.protocols import spec_for_fabric

        try:
            spec = spec_for_fabric(self.source)
        except ValueError:  # pragma: no cover - unregistered custom fabric
            return False
        return spec.family == "stbus"

    def make_child(self, txn: Transaction) -> Transaction:
        """Re-issue ``txn`` at the destination data width.

        Total bytes are preserved; the beat count is recomputed for the
        destination path width (datawidth conversion).
        """
        width = self.dest.data_width_bytes
        beats = max(1, -(-txn.total_bytes // width))
        child = txn.child(beats=beats, beat_bytes=width)
        if not self._messages_survive:
            child.message_id = None
            child.message_last = True
        child.meta["bridge"] = self.name
        spans = self.sim._spans
        if spans is not None:
            spans.mark(txn, "bridge.convert")
        if self._energy is not None:
            # Conversion cost scales with the far-side beat count (the
            # re-timing FIFO traversals + width-conversion datapath).
            self._energy.charge(self.name, self._e_beat * beats,
                                self.sim.now, txn.initiator, txn.tid)
        return child

    # ------------------------------------------------------------------
    # response-stream width conversion
    # ------------------------------------------------------------------
    def make_relay(self, txn: Transaction) -> "_BeatRelay":
        """A converter turning child beats back into source-side beats."""
        return _BeatRelay(self, txn)

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """The bridge's own counters; its ports are captured by the two
        fabrics they belong to."""
        return {"forwarded": self.forwarded.value}


class _BeatRelay:
    """Byte-accurate response width converter for one read transaction.

    Child beats (destination width) are fed in via :meth:`arrived`; the
    number of source-side beats that became complete is returned so the
    bridge process can emit them.
    """

    def __init__(self, bridge: BridgeBase, txn: Transaction) -> None:
        self.bridge = bridge
        self.txn = txn
        self.bytes_arrived = 0
        self.beats_emitted = 0
        #: Set once any child beat carried an error response; propagated to
        #: every subsequently emitted source-side beat.
        self.error_seen = False

    def arrived(self, beat: ResponseBeat) -> int:
        """Register one child beat; return newly completable source beats."""
        if beat.error:
            self.error_seen = True
        self.bytes_arrived += beat.txn.beat_bytes
        total_ready = min(self.bytes_arrived // self.txn.beat_bytes,
                          self.txn.beats)
        fresh = total_ready - self.beats_emitted
        return fresh

    def emit(self) -> ResponseBeat:
        """Produce the next source-side beat (caller paces the emission)."""
        if self.beats_emitted >= self.txn.beats:
            raise RuntimeError(f"relay over-emission for {self.txn!r}")
        index = self.beats_emitted
        self.beats_emitted += 1
        return ResponseBeat(self.txn, index=index,
                            is_last=index == self.txn.beats - 1,
                            error=self.error_seen)

    @property
    def done(self) -> bool:
        return self.beats_emitted >= self.txn.beats
