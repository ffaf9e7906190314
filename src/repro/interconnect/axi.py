"""AMBA AXI fabric model.

"Five different logical monodirectional channels are provided in AXI
interfaces, and activity on them is largely asynchronous and independent
(2 address channels, a read data and a write data channel, and a channel for
write responses).  This allows to support multiple outstanding transactions
(with out-of-order or in-order delivery selectable by means of transaction
IDs)." (Section 3.2)

The model runs one process per physical channel group:

* ``AR`` — read address channel: one cycle per read request.
* ``AW+W`` — write address + write data: the AW cell overlaps the first W
  beat, so a write costs its (width-adjusted) data beats.
* ``R`` — read data channel: per-beat arbitration across targets; the
  channel switches freely between bursts ("fine granularity arbitration"),
  which is what makes AXI robust beyond ~80% utilisation in Section 4.1.1.
* ``B`` — write response channel: one cycle per acknowledgement.

Burst overlapping (Section 4.1.2) holds by construction: the AR process
keeps issuing addresses while earlier bursts stream on R, so a single slave
sees the next request before the previous burst completes and the R channel
sustains the 50% efficiency bound of a 1-wait-state memory.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from .arbiter import Arbiter, MessageLockStall, RoundRobin
from .base import Fabric, TargetPort
from .types import Opcode, ResponseBeat, Transaction


class AxiFabric(Fabric):
    """An AXI interconnect (point-to-point channels + address decode)."""

    protocol = "axi"

    #: AR/AW backpressure resumes on the next strictly-future edge: with
    #: the same-edge rule ``fig5_collapsed_axi`` drifts 8.97 % in p95
    #: latency and fails the LT gate.
    lt_stall_same_edge = False

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 arbiter: Optional[Arbiter] = None,
                 write_arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock, data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)
        #: Write path gets its own arbiter: AR and AW are independent.
        self.write_arbiter = write_arbiter if write_arbiter is not None else RoundRobin()
        self.ar_channel = self.channel("ar")
        self.w_channel = self.channel("w")
        self.r_channel = self.channel("r")
        self.b_channel = self.channel("b")
        #: Mid-burst switches on the R channel — consecutive data beats from
        #: different, still-open bursts.  This is the "fine granularity
        #: arbitration" at work; zero means responses streamed back-to-back.
        self.r_interleaves = sim.metrics.counter(f"{name}.r_interleaves")
        self.process(self._address_process(Opcode.READ), name="ar")
        self.process(self._address_process(Opcode.WRITE), name="aw_w")
        self.process(self._data_return_process(want_acks=False), name="r")
        self.process(self._data_return_process(want_acks=True), name="b")

    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["write_arbiter"] = encoder.arbiter(self.write_arbiter)
        state["r_interleaves"] = self.r_interleaves.value
        return state

    # ------------------------------------------------------------------
    # request side (AR / AW+W)
    # ------------------------------------------------------------------
    def _candidates_for(self, opcode: Opcode):
        """Ports whose head-of-queue transaction travels this address channel
        and whose decoded target can accept it."""
        ready = []
        for port, txn in self.request_candidates():
            if txn.opcode is not opcode:
                continue
            target = self.try_route(txn.address)
            if target is not None and target.request_fifo.is_full:
                continue
            # Unmapped addresses stay eligible and become DECERR responses.
            ready.append((port, txn))
        return ready

    def _has_blocked(self, opcode: Opcode) -> bool:
        return any(not port.pending.is_empty and
                   port.pending.peek().opcode is opcode
                   for port in self.initiators)

    def _address_process(self, opcode: Opcode):
        clk = self.clock
        arbiter = self.arbiter if opcode is Opcode.READ else self.write_arbiter
        channel = self.ar_channel if opcode is Opcode.READ else self.w_channel
        while True:
            candidates = self._candidates_for(opcode)
            if not candidates:
                if self._has_blocked(opcode):
                    # Backpressured until a head or a target FIFO changes.
                    yield self._stall(self._request_work)
                else:
                    yield self._wait_request_work()
                continue
            try:
                port, txn = arbiter.select(candidates)
            except MessageLockStall:
                yield clk.edge()
                continue
            self.pop_granted(port, txn)
            target = self.try_route(txn.address)
            if target is None:
                yield clk.edges(1)
                self.decode_failed(txn)  # the AXI DECERR default slave
                continue
            cycles = self.request_cycles(txn)  # 1 for AR; W beats for writes
            target.notify_request_state("storing")
            yield clk.edges(cycles)
            channel.add_busy(clk.to_ps(cycles))
            txn.meta["needs_ack"] = txn.is_write  # B response always returned
            yield target.request_fifo.put(txn)
            target.notify_request_state("idle")
            target.accepted.add()
            txn.mark_accepted(self.sim.now)
            if self._checks is not None:
                self._checks.note_accept(self, txn)

    # ------------------------------------------------------------------
    # response side (R / B)
    # ------------------------------------------------------------------
    def _scan_beats(self, want_acks: bool) -> List[Tuple[TargetPort, ResponseBeat]]:
        """First matching beat per target (R and B are separate queues in a
        real AXI slave interface; a shared FIFO with kind-filtered extraction
        models the same decoupling)."""
        found = []
        for target in self.targets:
            for beat in target.response_fifo.snapshot():
                if beat.is_write_ack == want_acks:
                    found.append((target, beat))
                    break
        return found

    def _data_return_process(self, want_acks: bool):
        clk = self.clock
        channel = self.b_channel if want_acks else self.r_channel
        rotation = 0
        previous_txn = None
        while True:
            candidates = self._scan_beats(want_acks)
            if not candidates:
                yield self._wait_response_work()
                continue
            # Per-beat (cycle-by-cycle) re-arbitration across targets.
            rotation += 1
            target, beat = candidates[rotation % len(candidates)]
            target.response_fifo.remove(beat)
            if (not want_acks and previous_txn is not None
                    and beat.txn is not previous_txn
                    and previous_txn.t_done is None):
                self.r_interleaves.add()
            previous_txn = beat.txn
            cycles = 1 if beat.is_write_ack else \
                self.bus_cycles_for_beat(beat.txn.beat_bytes)
            yield clk.edges(cycles)
            channel.add_busy(clk.to_ps(cycles))
            self.deliver_beat(beat)
