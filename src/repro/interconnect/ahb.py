"""AMBA AHB layer model.

"The AMBA AHB system backbone consists of a shared communication channel ...
only one [data link] can be active at any time ... Transaction pipelining is
supported to provide for higher throughput but not as a means of allowing
multiple outstanding transactions ... the non-posted paradigm for write
transactions is implicitly assumed.  The SystemC model of the AHB
interconnect we developed does not implement split transactions."
(Section 3.2)

The model is therefore a *single* process that serves one transaction end to
end: grant, address phase, data phase(s), and — because there is no split
support — it holds the layer for the entire target latency, exposing every
wait state as an idle bus cycle.

The one optimisation AHB does have is captured too: address pipelining.
"AMBA AHB can hide bus handover overhead by changing the HGRANTx signals when
the penultimate address in a burst has been sampled" (Section 4.1.2), so
back-to-back transactions pay no handover cycle.  This is why the
many-to-one pattern is "the best operating condition for AMBA AHB".
"""

from __future__ import annotations

from typing import Optional

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from .arbiter import Arbiter, MessageLockStall
from .base import Fabric
from .types import Transaction


class AhbLayer(Fabric):
    """A single AHB layer (shared bus, one active transfer at a time)."""

    protocol = "ahb"

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock, data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)
        self.bus = self.channel("bus")
        #: Back-to-back transfers whose address phase overlapped the
        #: previous data phase (the AHB pipelining win, visible in stats).
        self.pipelined_handovers = sim.metrics.counter(
            f"{name}.pipelined_handovers")
        self.process(self._bus_process(), name="bus")

    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["pipelined_handovers"] = self.pipelined_handovers.value
        return state

    def _bus_process(self):
        clk = self.clock
        pipelined = False  # True when the previous transfer just ended
        while True:
            candidates = self.request_candidates()
            if not candidates:
                pipelined = False  # the bus went idle; pipelining is lost
                yield self._request_work.sleep()
                continue
            try:
                port, txn = self.arbiter.select(candidates)
            except MessageLockStall:
                yield clk.edge()
                continue
            self.pop_granted(port, txn)
            yield from self._serve(txn, pipelined)
            pipelined = True

    def _serve(self, txn: Transaction, pipelined: bool):
        """Drive one full transaction while holding the layer."""
        clk = self.clock
        target = self.try_route(txn.address)
        # Address phase: free when overlapped with the previous transfer's
        # final data beat (HGRANT raised at the penultimate address).
        if not pipelined:
            yield clk.edge()
            self.bus.add_busy(clk.period_ps, transfers=0)
        else:
            self.pipelined_handovers.add()
        if target is None:
            # The decoder's default slave responds with an HRESP error.
            yield clk.edge()
            self.decode_failed(txn)
            return
        txn.meta["needs_ack"] = txn.is_write  # non-posted paradigm
        target.notify_request_state("storing")
        if txn.is_write:
            # Write data is driven on the (single) data link, one
            # width-adjusted cycle per beat, before the target commits it.
            data_cycles = txn.beats * self.bus_cycles_for_beat(txn.beat_bytes)
            yield clk.edges(data_cycles)
            self.bus.add_busy(data_cycles * clk.period_ps, transfers=txn.beats)
        # Hand the transaction to the target; a full target FIFO shows up as
        # slave wait states that stall the whole layer.
        yield target.request_fifo.put(txn)
        target.notify_request_state("idle")
        target.accepted.add()
        txn.mark_accepted(self.sim._now)
        if self._checks is not None:
            self._checks.note_accept(self, txn)
        # No split support: hold the layer until every response beat (read
        # data or write acknowledgement) has been received.
        responses = target.response_fifo._items
        while True:
            beat = None
            if responses:
                head = responses[0]
                if head.txn is txn:
                    beat = target.response_fifo.try_get()
                else:  # pragma: no cover - serial layer, single txn in flight
                    raise RuntimeError(
                        f"AHB {self.name}: foreign beat {head!r} during {txn!r}")
            if beat is None:
                # Slave wait states: the layer idles but stays held until
                # the target buffers a beat.
                yield self._stall(self._response_work)
                continue
            cycles = self.bus_cycles_for_beat(txn.beat_bytes)
            if beat.index == -1:
                cycles = 1
            yield clk.edges(cycles)
            self.bus.add_busy(cycles * clk.period_ps)
            self.deliver_beat(beat)
            if beat.is_last:
                break
