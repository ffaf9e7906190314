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

from functools import partial
from typing import Callable, List, Optional, Tuple

from ..core.clock import Clock
from ..core.component import Component
from ..core.fifo import Fifo
from ..core.kernel import Simulator
from ..core.sync import WorkSignal
from .arbiter import Arbiter, RoundRobin
from .base import Fabric, TargetPort
from .generic import GenericFabric
from .types import Opcode, ResponseBeat


class AxiFabric(GenericFabric):
    """An AXI interconnect (point-to-point channels + address decode).

    The channel engine serving the ``axi`` registry spec: the request
    body runs twice, filtered by opcode, and R/B re-arbitrate per beat.
    """

    protocol = "axi"
    engine = "axi"

    #: AR/AW backpressure resumes on the next strictly-future edge: with
    #: the same-edge rule ``fig5_collapsed_axi`` drifts 8.97 % in p95
    #: latency and fails the LT gate.
    lt_stall_same_edge = False

    #: R streams in its own body, which crosses no claimed run.
    _claims_schedules = False

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 arbiter: Optional[Arbiter] = None,
                 write_arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        #: Write path gets its own arbiter: AR and AW are independent.
        self.write_arbiter = write_arbiter if write_arbiter is not None else RoundRobin()
        super().__init__(sim, name, clock, "axi",
                         data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)

    def _start_channels(self) -> None:
        self.ar_channel = self.channel("ar")
        self.w_channel = self.channel("w")
        self.r_channel = self.channel("r")
        self.b_channel = self.channel("b")
        #: Mid-burst switches on the R channel — consecutive data beats from
        #: different, still-open bursts.  This is the "fine granularity
        #: arbitration" at work; zero means responses streamed back-to-back.
        self.r_interleaves = self.sim.metrics.counter(
            f"{self.name}.r_interleaves")
        #: R and B wake-ups, chosen once: in LT a write acknowledgement
        #: never resumes R and a data beat never resumes B
        #: (:meth:`_response_hook`); CA keeps the one shared signal, whose
        #: wake-ups are scheduled events.
        if self._lt:
            self._r_work = WorkSignal(self.sim, name=f"{self.name}.r_work")
            self._b_work = WorkSignal(self.sim, name=f"{self.name}.b_work")
        else:
            self._r_work = self._b_work = self._response_work
        # Every write returns a B response: the spec posts none.
        self.process(self._request_channel(
            self.arbiter, self.ar_channel,
            lambda txn, _target: txn.opcode is Opcode.READ), name="ar")
        self.process(self._request_channel(
            self.write_arbiter, self.w_channel,
            lambda txn, _target: txn.opcode is Opcode.WRITE), name="aw_w")
        self.process(self._data_return_process(want_acks=False), name="r")
        self.process(self._data_return_process(want_acks=True), name="b")

    def snapshot_state(self, encoder):
        # AXI's own keys, not the bare engine's.
        state = Fabric.snapshot_state(self, encoder)
        state["write_arbiter"] = encoder.arbiter(self.write_arbiter)
        state["r_interleaves"] = self.r_interleaves.value
        return state

    # ------------------------------------------------------------------
    # response side (R / B)
    # ------------------------------------------------------------------
    def _response_hook(self, fifo: Fifo) -> Callable[[], None]:
        if not self._lt:
            return self._response_work.notify
        return partial(self._on_beat_stored, fifo._items)

    def _on_beat_stored(self, beats) -> None:
        """LT: wake the one channel the stored beat (``beats[-1]``) is for."""
        if beats[-1].index == -1:
            self._b_work.notify()
        else:
            self._r_work.notify()

    def _scan_beats(self, want_acks: bool) -> List[Tuple[TargetPort, ResponseBeat]]:
        """First matching beat per target (R and B are separate queues in a
        real AXI slave interface; a shared FIFO with kind-filtered extraction
        models the same decoupling)."""
        found = []
        for target in self.targets:
            # The stored deque, not a snapshot() copy: the scan runs per
            # beat and nothing mutates the FIFO while it looks.
            for beat in target.response_fifo._items:
                if (beat.index == -1) == want_acks:
                    found.append((target, beat))
                    break
        return found

    def _data_return_process(self, want_acks: bool):
        clk = self.clock
        channel = self.b_channel if want_acks else self.r_channel
        work = self._b_work if want_acks else self._r_work
        width = self.data_width_bytes
        overhead = self.spec.resp_overhead_cycles
        take_run = self._take_run_hook
        rotation = 0
        previous_txn = None
        while True:
            candidates = self._scan_beats(want_acks)
            if not candidates:
                yield work.sleep()
                continue
            # Per-beat (cycle-by-cycle) re-arbitration across targets.
            rotation += 1
            target, beat = candidates[rotation % len(candidates)]
            fifo = target.response_fifo
            cycles = 1 if want_acks else (
                -(-beat.txn.beat_bytes // width) + overhead)
            run = None
            if take_run is not None and not beat.is_last \
                    and (len(fifo._items) > 1 or fifo._put_waiters):
                run = take_run(target, beat, cycles)
            if run is None:
                n = 1
                fifo.remove(beat)
            else:
                n = len(run)
            if (not want_acks and previous_txn is not None
                    and beat.txn is not previous_txn
                    and previous_txn.t_done is None):
                self.r_interleaves.value += 1
            previous_txn = beat.txn
            yield clk.edges(cycles * n)
            channel.busy_ps += cycles * n * clk.period_ps
            channel.transfers += n
            if run is None:
                self.deliver_beat(beat)
            else:
                beat = self._deliver_run(run, cycles)
            if beat.is_last:
                target.open_responses -= 1
