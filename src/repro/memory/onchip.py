"""On-chip shared memory model.

The cheap-access comparison point of Sections 4.1/4.2: "an on-chip core with
1 wait state".  Two orthogonal speed knobs:

``wait_states``
    Per-word throughput cost: every memory word takes ``1 + wait_states``
    array cycles.  With one wait state this forces the 50% response-channel
    efficiency bound of Section 4.1.2.

``access_latency_cycles``
    Initial access time per burst ("the memory device gets progressively
    slower in responding to access requests" — the Fig. 4 sweep variable).
    Latency phases of up to ``pipeline_depth`` accesses may overlap, the
    data port stays strictly serialised.

``pipeline_depth`` together with the request-FIFO depth of the target port
is what Section 4.2 calls the buffering of the target interface: a simple
slave has a single-slot interface and "each transaction is blocking"
(``pipeline_depth=1``), whereas a smarter interface tracks several
outstanding accesses — the property that lets *distributed* platforms keep
the master-to-slave path filled when latency grows (guideline 3(iii)).
"""

from __future__ import annotations

from typing import Optional

from ..core.clock import Clock
from ..core.component import Component
from ..core.events import _PENDING
from ..core.kernel import Simulator
from ..core.sync import Semaphore
from ..interconnect.base import TargetPort
from ..interconnect.types import ResponseBeat, Transaction


class OnChipMemory(Component):
    """On-chip SRAM behind a fabric target port."""

    def __init__(self, sim: Simulator, name: str, port: TargetPort,
                 clock: Clock, wait_states: int = 1, width_bytes: int = 8,
                 access_latency_cycles: int = 0, pipeline_depth: int = 1,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=clock, parent=parent)
        if wait_states < 0:
            raise ValueError(f"negative wait states: {wait_states}")
        if access_latency_cycles < 0:
            raise ValueError(f"negative access latency: {access_latency_cycles}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline depth must be >= 1: {pipeline_depth}")
        if width_bytes not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported memory width {width_bytes}")
        self.port = port
        self.wait_states = wait_states
        self.width_bytes = width_bytes
        self.access_latency_cycles = access_latency_cycles
        self.pipeline_depth = pipeline_depth
        self.reads = sim.metrics.counter(f"{name}.reads")
        self.writes = sim.metrics.counter(f"{name}.writes")
        self.beats_served = sim.metrics.counter(f"{name}.beats")
        #: Concurrent latency phases in flight (the interface's slots).
        self._slots = Semaphore(sim, pipeline_depth, name=f"{name}.slots")
        #: The data port: one burst streams at a time, in order.
        self._data_port = Semaphore(sim, 1, name=f"{name}.data_port")
        self._order = 0
        self._next_to_stream = 0
        self._turn_events = {}
        #: Loosely-timed flag, captured once (select-once discipline).
        self._lt = sim.lt_enabled
        #: Energy accounting: slot + pre-resolved fJ per served beat.
        #: LT batching changes when beats surface, never how many, so the
        #: charge totals are identical between resolutions.
        self._energy = sim._energy
        if self._energy is not None:
            # Deferred import: repro.memory must not import repro.obs at
            # module scope (repro.obs.energy imports the timing tables).
            from ..obs.energy import fj_from_pj
            self._e_beat = fj_from_pj(self._energy.config.onchip_pj_per_beat)
        self.process(self._dispatch(), name="dispatch")

    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Array-access bookkeeping.  ``_turn_events`` holds live kernel
        events, so only the waiting tickets (the keys) are captured —
        the events themselves are reproduced by replay."""
        return {
            "reads": self.reads.value,
            "writes": self.writes.value,
            "beats_served": self.beats_served.value,
            "slots_available": self._slots.available,
            "data_port_available": self._data_port.available,
            "order": self._order,
            "next_to_stream": self._next_to_stream,
            "waiting_tickets": sorted(self._turn_events),
        }

    # ------------------------------------------------------------------
    def _service_cycles(self, total_bytes: int) -> int:
        """Array cycles for a burst: ``1 + wait_states`` per memory word."""
        words = max(1, -(-total_bytes // self.width_bytes))
        return words * (self.wait_states + 1)

    def _dispatch(self):
        """Pull requests and launch (possibly overlapping) accesses."""
        lt = self._lt
        while True:
            # LT: both resources free right now — skip the two queued
            # same-timestamp events the blocking pattern would cost.
            if lt and self._slots.try_acquire():
                txn = self.port.request_fifo.try_get()
                if txn is None:
                    txn = yield self.port.get_request()
            else:
                yield self._slots.acquire()
                txn = yield self.port.get_request()
            ticket = self._order
            self._order += 1
            self.process(self._access(txn, ticket), name=f"acc{txn.tid}",
                         immediate=True)

    def _access(self, txn: Transaction, ticket: int):
        """One burst: latency phase, its turn on the data port, then the
        array time — a read streams its beats out, a write commits the
        already-transferred data and acknowledges if needed."""
        clk = self.clock
        lt = self._lt
        if self.access_latency_cycles > 0:
            yield clk.edges(self.access_latency_cycles)
        # Bursts stream strictly in arrival order on the single data port.
        while self._next_to_stream != ticket:
            waiter = self._turn_events.get(ticket)
            if waiter is None or waiter._processed:
                waiter = self.sim.event(name=f"{self.name}.turn{ticket}")
                self._turn_events[ticket] = waiter
            yield waiter
        if not (lt and self._data_port.try_acquire()):
            yield self._data_port.acquire()
        fifo = self.port.response_fifo
        beats = txn.beats
        try:
            if txn.is_read:
                self.reads.value += 1
                # Byte-based array time spread over the beats.
                total_cycles = self._service_cycles(txn.total_bytes)
                base = total_cycles // beats
                remainder = total_cycles - base * beats
                index = 0
                while index < beats:
                    # LT: as many beats as the response FIFO can absorb
                    # right now advance in one analytic step.  The burst's
                    # cumulative array time is identical to CA; only the
                    # instants at which *intermediate* beats surface move
                    # (docs/FAST_SIM.md).
                    k = 0
                    if lt and not fifo._put_waiters:
                        k = min(fifo.capacity - len(fifo._items),
                                beats - index)
                    if k == 0:
                        # The cycle-accurate shape (CA always; LT under
                        # back-pressure): a full response FIFO
                        # back-pressures the array naturally.
                        cycles = base + (remainder if index == 0 else 0)
                        if cycles > 0:
                            yield clk.edges(cycles)
                        self.beats_served.value += 1
                        if self._energy is not None:
                            self._charge_beats(txn, 1)
                        yield fifo.put(ResponseBeat(
                            txn, index=index, is_last=index == beats - 1))
                        index += 1
                        continue
                    cycles = base * k + (remainder if index == 0 else 0)
                    if cycles > 0:
                        yield clk.edges(cycles)
                    self.beats_served.value += k
                    if self._energy is not None:
                        self._charge_beats(txn, k)
                    run = []
                    for i in range(index, index + k):
                        run.append(ResponseBeat(txn, index=i,
                                                is_last=i == beats - 1))
                    fifo.put_run(run)  # k beats fit: stored now
                    if k > 1:
                        self.sim._lt_fastforwards += k - 1
                    index += k
            else:
                self.writes.value += 1
                yield clk.edges(self._service_cycles(txn.total_bytes))
                self.beats_served.value += beats
                if self._energy is not None:
                    self._charge_beats(txn, beats)
                if txn.meta.get("needs_ack", not txn.posted):
                    ack = ResponseBeat(txn, index=-1, is_last=True)
                    if not (lt and fifo.try_put(ack)):
                        yield fifo.put(ack)
                elif txn.ev_done._value is _PENDING:
                    # Posted write on a fabric that did not already
                    # complete it.
                    txn.complete(self.sim._now)
        finally:
            self._data_port.release()
            self._slots.release()
            self._next_to_stream += 1
            waiter = self._turn_events.pop(self._next_to_stream, None)
            if waiter is not None and waiter._value is _PENDING:
                waiter.succeed()

    def _charge_beats(self, txn: Transaction, count: int) -> None:
        """Array-access energy for ``count`` served beats of ``txn``."""
        self._energy.charge(self.name, self._e_beat * count, self.sim.now,
                            txn.initiator, txn.tid)
