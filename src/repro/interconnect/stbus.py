"""STBus node model.

STBus (STMicroelectronics' proprietary interconnect) "leverages two physical
channels, one for initiator requests and one for target responses, and
supports split transactions" (Section 3.1).  The model therefore runs the
two channel bodies of :mod:`repro.interconnect.generic` as two autonomous
processes per node:

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
"""

from __future__ import annotations

from typing import List, Optional

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from .arbiter import Arbiter, MessageArbiter
from .base import Fabric, TargetPort
from .generic import GenericFabric
from .stbus_protocol import request_packet
from .types import ResponseBeat, StbusType, Transaction


class StbusNode(GenericFabric):
    """One STBus node (a crossbar/shared-bus layer with its own clock).

    The channel engine, serving the ``stbus_t<bus_type>`` registry spec
    with message-granularity arbitration and the STBus packet rules.
    """

    protocol = "stbus"
    engine = "stbus"

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 bus_type: StbusType = StbusType.T3,
                 arbiter: Optional[Arbiter] = None,
                 message_arbitration: bool = True,
                 parent: Optional[Component] = None) -> None:
        self.bus_type = StbusType(bus_type)
        self._message_arbitration = message_arbitration
        super().__init__(sim, name, clock, f"stbus_t{int(self.bus_type)}",
                         data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)

    def _start_channels(self) -> None:
        if self._message_arbitration \
                and not isinstance(self.arbiter, MessageArbiter):
            self.arbiter = MessageArbiter(self.arbiter)
        super()._start_channels()

    # ------------------------------------------------------------------
    # feature gates
    # ------------------------------------------------------------------
    @property
    def posted_writes(self) -> bool:
        """Posted writes complete at target acceptance (Type >= 2)."""
        return self.spec.posted_writes

    def _take_run(self, target: TargetPort, beat: ResponseBeat,
                  cycles: int) -> Optional[List[ResponseBeat]]:
        """LT: the packet's scheduled beats when the exact claim holds
        (:meth:`Fabric._claim_schedule`); otherwise every buffered beat of
        the in-flight packet, whatever else is open.  The latter is
        measured rather than proved (within the LT accuracy gate, pinned
        by the LT tests), unlike :meth:`Fabric._take_run`."""
        fifo = target.response_fifo
        if fifo._scheduled:
            claimed = self._claim_schedule(target, beat, cycles)
            if claimed is not None:
                return claimed
        beats = fifo._items
        txn = beat.txn
        n = 1
        while n < len(beats) and beats[n].txn is txn \
                and not beats[n - 1].is_last:
            n += 1
        if n == 1:
            return None
        run = []
        for _ in range(n):
            run.append(fifo.try_get())
        return run

    def request_cycles(self, txn: Transaction) -> int:
        """Request-channel occupancy from the packet composition rules."""
        packet = request_packet(txn, self.data_width_bytes,
                                shaped=self.spec.response_interleave)
        return packet.cells

    def snapshot_state(self, encoder):
        # The node's own keys, not the bare engine's.
        state = Fabric.snapshot_state(self, encoder)
        state["bus_type"] = int(self.bus_type)
        state["lock_breaks"] = self.lock_breaks.value
        return state
