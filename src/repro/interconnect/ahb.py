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
from .protocols import get_spec


class AhbLayer(Fabric):
    """A single AHB layer (shared bus, one active transfer at a time)."""

    protocol = "ahb"
    #: The registry row this model serves (monitors, energy, bridges).
    spec = get_spec("ahb")

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
        """Grant one transaction, then drive it end to end while holding
        the layer: address phase, write data, hand-over, every response
        beat."""
        clk = self.clock
        bus = self.bus
        width = self.data_width_bytes
        take_run = self._take_run_hook
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
            target = self.try_route(txn.address)
            # Address phase: free when overlapped with the previous
            # transfer's final data beat (HGRANT raised at the penultimate
            # address).
            if not pipelined:
                yield clk.edge()
                bus.busy_ps += clk.period_ps
            else:
                self.pipelined_handovers.value += 1
            pipelined = True
            if target is None:
                # The decoder's default slave responds with an HRESP error.
                yield clk.edge()
                self.decode_failed(txn)
                continue
            txn.meta["needs_ack"] = txn.is_write  # non-posted paradigm
            target.open_responses += 1
            if target.interface_probe is not None:
                target.interface_probe.storing(True)
            if txn.is_write:
                # Write data is driven on the (single) data link, one
                # width-adjusted cycle per beat, before the target commits
                # it.
                data_cycles = txn.beats * -(-txn.beat_bytes // width)
                yield clk.edges(data_cycles)
                bus.busy_ps += data_cycles * clk.period_ps
                bus.transfers += txn.beats
            # Hand the transaction to the target; a full target FIFO shows
            # up as slave wait states that stall the whole layer.
            yield target.request_fifo.put(txn)
            if target.interface_probe is not None:
                target.interface_probe.storing(False)
            target.accepted.value += 1
            txn.mark_accepted(self.sim._now)
            if self._checks is not None:
                self._checks.note_accept(self, txn)
            # No split support: hold the layer until every response beat
            # (read data or write acknowledgement) has been received.
            fifo = target.response_fifo
            responses = fifo._items
            while True:
                if not responses:
                    # Slave wait states: the layer idles but stays held
                    # until the target buffers a beat.
                    yield self._stall(self._response_work)
                    continue
                beat = responses[0]
                if beat.txn is not txn:  # pragma: no cover - serial layer
                    raise RuntimeError(f"AHB {self.name}: foreign beat "
                                       f"{beat!r} during {txn!r}")
                cycles = 1 if beat.index == -1 else \
                    -(-txn.beat_bytes // width)
                run = None
                if take_run is not None and not beat.is_last \
                        and (len(responses) > 1 or fifo._put_waiters):
                    run = take_run(target, beat, cycles)
                if run is None:
                    n = 1
                    fifo.try_get()
                else:
                    n = len(run)
                yield clk.edges(cycles * n)
                bus.busy_ps += cycles * n * clk.period_ps
                bus.transfers += n
                if run is None:
                    self.deliver_beat(beat)
                else:
                    beat = self._deliver_run(run, cycles)
                if beat.is_last:
                    target.open_responses -= 1
                    break
