"""Lightweight hybrid bridges (Fig. 2).

"The developed bridges have some common features: (i) they handle write
transactions in a store-and-forward fashion, (ii) they have a blocking
target side in presence of read transactions and (iii) they have tunable
latency.  These bridges were not designed to be competitive with the highly
optimized STBus-STBus ones." (Section 3.2)

The blocking read path is the single property that dominates Figs. 3 and 5:
once a read is in flight the bridge accepts nothing else, so the source
layer backs up exactly as the paper's AHB-AHB and AXI-AXI bridges do —
"the distributed AXI platform [is] almost equivalent to the full AHB
platform ... advanced features of AXI ... are vanished by poor bridge
functionality".

One class covers every protocol pairing (AHB-AHB, AXI-AXI, AHB-STBus,
AXI-STBus, AHB-AXI, STBus-AHB, STBus-AXI): the fabric port abstraction does
the protocol matching, and the *lightweight* policy — store-and-forward
writes, fully blocking reads — is pairing-independent, which is exactly the
paper's point about basic bridging functionality.
"""

from __future__ import annotations

from typing import Optional

from ..core.component import Component
from ..core.events import _PENDING
from ..core.kernel import Simulator
from ..interconnect.base import Fabric
from ..interconnect.types import AddressRange, ResponseBeat
from .base import BridgeBase


class LightweightBridge(BridgeBase):
    """Store-and-forward writes, blocking reads, tunable latency."""

    def __init__(self, sim: Simulator, name: str, source: Fabric, dest: Fabric,
                 address_range: AddressRange, crossing_cycles: int = 2,
                 request_depth: int = 1, response_depth: int = 4,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, source, dest, address_range,
                         crossing_cycles=crossing_cycles,
                         request_depth=request_depth,
                         response_depth=response_depth,
                         child_outstanding=1, parent=parent)
        # The LT run proof (``Fabric._take_run``): released, the pump
        # crosses to the destination and back before it stores again.
        self.target_port.response_fifo.turnaround_ps = max(
            0, (crossing_cycles - 1)
            * (dest.clock.period_ps + source.clock.period_ps))
        self.process(self._pump(), name="pump")

    def _pump(self):
        """Serve transactions one at a time — the blocking target side.

        A read issues its child and holds the bridge until the child
        completes; response data is only relayed after that (full
        store-and-forward on the return path too — "implementing
        non-blocking read transactions has a heavier impact on bridge
        complexity" and the lightweight design explicitly avoids it).

        A write is forwarded fully buffered: the payload is re-serialised
        out of the store buffer one destination-width beat per destination
        cycle before the child can be issued.  The bridge accepts the next
        transaction once the child has been queued — unless the source
        side needs an acknowledgement, in which case the non-posted
        semantics keep the bridge (and therefore the source layer) blocked
        until the far side confirms.
        """
        lt = self._lt
        crossing = self.crossing_cycles
        requests = self.target_port.request_fifo
        fifo = self.target_port.response_fifo
        while True:
            txn = requests.try_get() if lt else None
            if txn is None:
                txn = yield self.target_port.get_request()
            self.forwarded.value += 1
            # Forward crossing (asynchronous FIFO + resynchronisation).
            if crossing > 0:
                yield self.dest.clock.edges(crossing)
            child = self.make_child(txn)
            if txn.is_read:
                yield self.init_port.issue(child)
                if child.ev_done._value is _PENDING:
                    yield child.ev_done
                # Return crossing.
                if crossing > 0:
                    yield self.source.clock.edges(crossing)
                relay = self.make_relay(txn)
                relay.error_seen = child.error  # propagate far-side errors
                if lt:
                    # The whole packet is in hand: commit it at once.
                    packet = []
                    for _ in range(txn.beats):
                        packet.append(relay.emit())
                    blocked = fifo.put_run(packet)
                    if blocked is not None:
                        yield blocked
                    continue
                for _ in range(txn.beats):
                    yield fifo.put(relay.emit())
                continue
            child.posted = txn.posted
            yield self.dest.clock.edges(child.beats)
            yield self.init_port.issue(child)
            if txn.meta.get("needs_ack", False):
                if child.ev_done._value is _PENDING:
                    yield child.ev_done
                if crossing > 0:
                    yield self.source.clock.edges(crossing)
                ack = ResponseBeat(txn, index=-1, is_last=True,
                                   error=child.error)
                blocked = fifo.put_run([ack]) if lt else fifo.put(ack)
                if blocked is not None:
                    yield blocked
            elif txn.ev_done._value is _PENDING:
                txn.complete(self.sim._now)
