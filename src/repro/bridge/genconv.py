"""GenConv — the optimised STBus-STBus converter.

"Proprietary STBus converters and adapters (named GenConv) are in charge of
bridging the heterogeneous clusters, and make use of buffering resources to
store bus requests, responses and outstanding transactions" (Section 3).
The Generic Converter "perform[s] clock domain crossing, data width and
STBus protocol type conversion ... standalone or in any combination within
the same instance" (Section 3.1).

Functionally the decisive difference from the lightweight bridges is that
GenConv is **split-capable**: its target side keeps accepting new
transactions while earlier reads are still in flight, so multiple
outstanding requests cross the bridge and pile up in the memory
controller's input FIFO — the pre-condition for the LMI's optimisation
engine to do anything at all (Section 4.2, Fig. 5) and for distributed
STBus platforms to keep their performance advantage.

Responses are relayed *cut-through*: data beats stream to the source side
as they arrive (after the return-crossing latency), in source-acceptance
order by default (STBus Type 2 in-order delivery); ``in_order=False``
models a Type-3 instance that reassociates shaped packets out of order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..core.component import Component
from ..core.events import _PENDING
from ..core.kernel import Simulator
from ..core.sync import WorkSignal
from ..interconnect.base import Fabric
from ..interconnect.types import AddressRange, ResponseBeat, Transaction
from .base import BridgeBase, _BeatRelay


class _RelayJob:
    """Per-transaction response-relay state."""

    __slots__ = ("txn", "child", "relay", "buffer", "crossed", "is_ack")

    def __init__(self, bridge: "GenConvBridge", txn: Transaction,
                 child: Transaction, is_ack: bool) -> None:
        self.txn = txn
        self.child = child
        self.relay: _BeatRelay = bridge.make_relay(txn)
        self.buffer: Deque[ResponseBeat] = deque()
        self.crossed = False  # return-crossing latency paid?
        self.is_ack = is_ack


class GenConvBridge(BridgeBase):
    """Split-capable STBus converter with multiple outstanding children."""

    # GenConv keeps message grouping alive across layers: "messaging ...
    # ensures that a sequence of transactions that can be optimized by the
    # memory controller ... are kept together all the way to the controller".
    # Safe because the STBus source delivers message packets contiguously.
    preserve_messages = True

    def __init__(self, sim: Simulator, name: str, source: Fabric, dest: Fabric,
                 address_range: AddressRange, crossing_cycles: int = 1,
                 request_depth: int = 4, response_depth: int = 8,
                 child_outstanding: int = 4, in_order: bool = True,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, source, dest, address_range,
                         crossing_cycles=crossing_cycles,
                         request_depth=request_depth,
                         response_depth=response_depth,
                         child_outstanding=child_outstanding, parent=parent)
        self.in_order = in_order
        self._jobs: Deque[_RelayJob] = deque()
        self._relay_work = WorkSignal(sim, name=f"{name}.relay_work")
        self.process(self._pump(), name="pump")
        self.process(self._relay_loop(), name="relay")

    # ------------------------------------------------------------------
    # forward path
    # ------------------------------------------------------------------
    def _pump(self):
        """Accept and forward requests continuously (split target side).

        The only thing that stalls this loop is running out of child
        credits (``child_outstanding``) or destination-side backpressure —
        never a read in flight.
        """
        lt = self._lt
        crossing = self.crossing_cycles
        while True:
            txn = self.target_port.request_fifo.try_get() if lt else None
            if txn is None:
                txn = yield self.target_port.get_request()
            self.forwarded.value += 1
            if crossing > 0:
                yield self.dest.clock.edges(crossing)
            child = self.make_child(txn)
            child.posted = txn.posted
            if txn.is_read:
                job = _RelayJob(self, txn, child, is_ack=False)
                child.meta["beat_sink"] = self._make_sink(job)
                self._enqueue(job)
                # Wake the relay on completion too: a child that errors
                # without data (e.g. a decode error) must still be relayed.
                child.meta["err_watch"] = True
            elif txn.meta.get("needs_ack", False):
                job = _RelayJob(self, txn, child, is_ack=True)
                self._enqueue(job)
                child.meta["ack_job"] = job
            elif txn.ev_done._value is _PENDING:
                # Posted write: source side considers it done at acceptance.
                txn.complete(self.sim._now)
            yield self.init_port.issue(child)
            if "ack_job" in child.meta or "err_watch" in child.meta:
                child.ev_done.add_callback(
                    lambda _e, job=job: self._wake(job))

    def _enqueue(self, job: _RelayJob) -> None:
        self._jobs.append(job)
        if not self._lt:
            # CA keeps the wake-up, a scheduled event; LT drops it: a job
            # whose child is not issued yet cannot be ready.
            self._relay_work.notify()

    def _make_sink(self, job: _RelayJob):
        def sink(beat: ResponseBeat) -> None:
            job.buffer.append(beat)
            self._wake(job)
        return sink

    def _wake(self, job: _RelayJob) -> None:
        """``job`` gained a beat or completed: wake the relay if it can act.

        An in-order LT relay serves only the head job, so progress on any
        other wakes nothing — the relay rescans after every job it
        retires anyway.  CA keeps every wake-up, a scheduled event.
        """
        if self._lt and self.in_order:
            jobs = self._jobs
            if not jobs or jobs[0] is not job:
                return
        self._relay_work.notify()

    def snapshot_state(self, encoder):
        """Store-and-forward state: every open relay job with its buffered
        beats and width-conversion progress."""
        state = super().snapshot_state(encoder)
        state["in_order"] = self.in_order
        state["jobs"] = [
            {
                "txn": encoder.tid_alias(job.txn.tid),
                "child": encoder.tid_alias(job.child.tid),
                "buffer": list(job.buffer),
                "bytes_arrived": job.relay.bytes_arrived,
                "beats_emitted": job.relay.beats_emitted,
                "error_seen": job.relay.error_seen,
                "crossed": job.crossed,
                "is_ack": job.is_ack,
            } for job in self._jobs
        ]
        return state

    # ------------------------------------------------------------------
    # return path
    # ------------------------------------------------------------------
    def _pick_job(self) -> Optional[_RelayJob]:
        """The job allowed to make progress right now.

        In-order mode only ever serves the head; out-of-order mode serves
        the first job with work available (shaped-packet reassociation).
        """
        if not self._jobs:
            return None
        if self.in_order:
            head = self._jobs[0]
            if head.buffer:  # a read with beats to relay: ready, no call
                return head
            return head if self._job_ready(head) else None
        for job in self._jobs:
            if self._job_ready(job):
                return job
        return None

    @staticmethod
    def _job_ready(job: _RelayJob) -> bool:
        done = job.child.ev_done
        if job.is_ack:
            return done is not None and done._value is not _PENDING
        if job.buffer:
            return True
        # A read whose child failed without delivering data (decode error)
        # still needs its error response relayed.
        return (job.child.error and done is not None
                and done._value is not _PENDING)

    def _relay_loop(self):
        lt = self._lt
        crossing = self.crossing_cycles
        fifo = self.target_port.response_fifo
        while True:
            job = self._pick_job()
            if job is None:
                yield self._relay_work.sleep()
                continue
            if not job.crossed:
                if crossing > 0:
                    yield self.source.clock.edges(crossing)
                job.crossed = True
            if job.is_ack:
                self._jobs.remove(job)
                ack = ResponseBeat(job.txn, index=-1, is_last=True,
                                   error=job.child.error)
                if not (lt and fifo.try_put(ack)):
                    yield fifo.put(ack)
                continue
            if not job.buffer:
                # Errored child with no data: synthesise the error response.
                self._jobs.remove(job)
                relay = job.relay
                relay.error_seen = True
                if lt:
                    packet = []
                    while not relay.done:
                        packet.append(relay.emit())
                    blocked = fifo.put_run(packet)
                    if blocked is not None:
                        yield blocked
                    continue
                while not relay.done:
                    yield fifo.put(relay.emit())
                continue
            beat = job.buffer.popleft()
            fresh = job.relay.arrived(beat)
            for _ in range(fresh):
                out = job.relay.emit()
                if not (lt and fifo.try_put(out)):
                    yield fifo.put(out)
            if job.relay.done:
                self._jobs.remove(job)
