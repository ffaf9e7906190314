"""LMI memory controller model.

The paper's controller was reverse engineered from RTL waveforms: "The model
includes a bus dependent and a bus independent part ... Input and output
FIFOs allow storage of incoming packets or injection of outgoing packets into
the bus.  FIFO size and bus data width are tunable parameters.  The
controller implements an optimization engine [which] performs memory access
optimizations such as opcode merging and variable-depth lookahead, and
generates the corresponding sequence of SDRAM commands ... while meeting
SDRAM timing specifications" (Section 3.1).

Our model keeps the same split:

bus dependent part
    The :class:`~repro.interconnect.base.TargetPort` it sits behind — its
    ``request_fifo`` is the input FIFO whose occupancy Fig. 6 dissects, its
    ``response_fifo`` the output FIFO.

bus independent part
    The optimisation engine + command scheduler in this module, driving a
    :class:`~repro.memory.sdram.SdramDevice` whose always-on timing checker
    stands in for the paper's cycle-by-cycle RTL validation.

The headline latency is back-annotated exactly as in the paper: the
``pipeline_front_cycles``/``pipeline_back_cycles`` parameters are chosen so a
row-hit read observes ~11 controller cycles from request sampling to first
read data (Section 4.2: "11 cycles to get the first read data word since the
request was sampled").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.clock import Clock
from ..core.component import Component
from ..core.events import _PENDING
from ..core.kernel import Simulator
from ..core.sync import WorkSignal
from ..interconnect.base import TargetPort
from ..interconnect.types import Opcode, ResponseBeat, Transaction
from .sdram import SdramDevice
from .timing import DDR_SDRAM, SdramGeometry, SdramTiming


@dataclass(frozen=True)
class LmiConfig:
    """Tunable parameters of the LMI controller.

    ``input_fifo_depth``/``output_fifo_depth`` size the bus-interface FIFOs;
    ``lookahead_depth`` is the optimisation window ("variable-depth
    lookahead"); ``merge_limit`` bounds how many queued sequential bursts may
    be fused into one SDRAM access ("opcode merging"); the pipeline cycle
    counts are the back-annotated controller latencies.
    """

    input_fifo_depth: int = 6
    output_fifo_depth: int = 8
    lookahead_depth: int = 4
    merge_limit: int = 4
    pipeline_front_cycles: int = 2
    pipeline_back_cycles: int = 2
    refresh_enabled: bool = True
    #: Let queued reads bypass posted writes inside the lookahead window
    #: (writes are latency-insensitive once posted; reads stall initiators).
    read_priority: bool = False

    def __post_init__(self) -> None:
        if self.input_fifo_depth < 1 or self.output_fifo_depth < 1:
            raise ValueError("FIFO depths must be >= 1")
        if self.lookahead_depth < 1:
            raise ValueError("lookahead depth must be >= 1")
        if self.merge_limit < 1:
            raise ValueError("merge limit must be >= 1")
        if self.pipeline_front_cycles < 0 or self.pipeline_back_cycles < 0:
            raise ValueError("pipeline latencies cannot be negative")


class LmiController(Component):
    """The off-chip SDRAM memory controller (the platform bottleneck)."""

    def __init__(self, sim: Simulator, name: str, port: TargetPort,
                 clock: Clock, config: Optional[LmiConfig] = None,
                 timing: SdramTiming = DDR_SDRAM,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=clock, parent=parent)
        self.port = port
        self.config = config or LmiConfig()
        self.device = SdramDevice(sim, f"{name}.sdram", clock, timing,
                                  SdramGeometry())
        if self.device.cmd_log is not None:
            # The auditor only enforces the autorefresh interval when the
            # controller's refresh engine is actually enabled.
            self.device.cmd_log.refresh_expected = self.config.refresh_enabled
        # -- statistics (registry-backed, addressable as "<name>.*") ------
        metrics = sim.metrics
        self.served = metrics.counter(f"{name}.served")
        self.merges = metrics.counter(f"{name}.merges")
        self.lookahead_promotions = metrics.counter(f"{name}.lookahead_promotions")
        self.read_latency = metrics.histogram(f"{name}.read_latency")
        self._last_was_write = False
        self._next_refresh_ps = clock.to_ps(timing.t_refi)
        #: Loosely-timed flag, captured once (select-once discipline).
        self._lt = sim.lt_enabled
        # Wake the engine whenever a request lands in the input FIFO.
        self._work = WorkSignal(sim, name=f"{name}.work")
        port.request_fifo.store_listeners.append(self._work.notify)
        self.process(self._engine(), name="engine")

    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, sim: Simulator, fabric, name: str, address_base: int,
               address_size: int, clock: Clock,
               config: Optional[LmiConfig] = None,
               timing: SdramTiming = DDR_SDRAM,
               parent: Optional[Component] = None) -> "LmiController":
        """Create the target port on ``fabric`` and the controller in one go."""
        from ..interconnect.types import AddressRange

        cfg = config or LmiConfig()
        port = fabric.add_target(name, AddressRange(address_base, address_size),
                                 request_depth=cfg.input_fifo_depth,
                                 response_depth=cfg.output_fifo_depth)
        return cls(sim, name, port, clock, config=cfg, timing=timing,
                   parent=parent)

    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Optimisation-engine + SDRAM device state (the port FIFOs are
        captured by the fabric the port belongs to)."""
        device = self.device
        return {
            "last_was_write": self._last_was_write,
            "next_refresh_ps": self._next_refresh_ps,
            "served": self.served.value,
            "merges": self.merges.value,
            "lookahead_promotions": self.lookahead_promotions.value,
            "sdram": {
                "banks": [
                    {
                        "open_row": bank.open_row,
                        "ready_activate_ps": bank.ready_activate_ps,
                        "ready_rw_ps": bank.ready_rw_ps,
                        "ready_precharge_ps": bank.ready_precharge_ps,
                        "last_activate_ps": bank.last_activate_ps,
                    } for bank in device.banks
                ],
                "cmdbus_free_ps": device._cmdbus_free_ps,
                "databus_free_ps": device._databus_free_ps,
                "last_write_data_end_ps": device._last_write_data_end_ps,
                "last_activate_any_ps": device._last_activate_any_ps,
                "activates": device.activates.value,
                "precharges": device.precharges.value,
                "reads": device.reads.value,
                "writes": device.writes.value,
                "refreshes": device.refreshes.value,
                "row_hits": device.row_hits.value,
                "row_misses": device.row_misses.value,
            },
        }

    # ------------------------------------------------------------------
    # optimisation engine
    # ------------------------------------------------------------------
    def _choose(self, window: Sequence[Transaction]) -> Transaction:
        """Pick the next transaction from the lookahead window.

        Preference order: a row hit matching the last access direction (no
        bus turnaround), any row hit, then the oldest entry.  Only the
        configured window depth is inspected — with ``lookahead_depth == 1``
        the engine degenerates to strict FIFO order (an ablation knob).
        """
        best = window[0]
        best_score = self._score(best)
        for txn in window[1:]:
            score = self._score(txn)
            if score > best_score:
                best, best_score = txn, score
        if best is not window[0]:
            self.lookahead_promotions.add()
        return best

    def _score(self, txn: Transaction) -> int:
        score = 0
        if self.device.is_row_hit(txn.address):
            score += 2
        if txn.is_write == self._last_was_write:
            score += 1
        if self.config.read_priority and txn.is_read:
            # Reads gate initiator progress; posted writes can wait.
            score += 4
        return score

    def _collect_merges(self, txn: Transaction) -> List[Transaction]:
        """Opcode merging: queued bursts that directly continue ``txn``.

        Candidates must have the same direction, be address-contiguous, stay
        in the same SDRAM row and still fit the merge limit.  They are
        removed from the input FIFO and served by the same device access.
        """
        group = [txn]
        end = txn.end_address
        bank_row = self.device.geometry.decode(txn.address)[:2]
        changed = True
        while changed and len(group) < self.config.merge_limit:
            changed = False
            for candidate in self.port.request_fifo.snapshot():
                if (candidate.opcode is txn.opcode
                        and candidate.address == end
                        and self.device.geometry.decode(candidate.address)[:2]
                        == bank_row):
                    self.port.request_fifo.remove(candidate)
                    group.append(candidate)
                    end = candidate.end_address
                    self.merges.add()
                    changed = True
                    break
        return group

    # ------------------------------------------------------------------
    # main engine process
    # ------------------------------------------------------------------
    def _engine(self):
        """Choose, merge, then serve each group with one SDRAM access.

        Write groups wait out the device burst and acknowledge.  Read
        groups stream back through the output FIFO: bus beats are spread
        linearly across the device data window, then delayed by the back
        pipeline.  A full output FIFO back-pressures the return path (the
        device transfer itself is already committed — the output FIFO is
        exactly what absorbs that skid).
        """
        clk = self.clock
        sim = self.sim
        cfg = self.config
        lt = self._lt
        fifo = self.port.request_fifo
        out = self.port.response_fifo
        back = cfg.pipeline_back_cycles * clk.period_ps
        while True:
            if cfg.refresh_enabled and sim._now >= self._next_refresh_ps:
                done = self.device.refresh(sim._now)
                # Catch-up is bounded: after a long idle period the refresh
                # debt is considered paid rather than replayed one by one.
                interval = self.device.timing.t_refi * clk.period_ps
                self._next_refresh_ps = max(self._next_refresh_ps + interval,
                                            done)
                if done > sim._now:
                    yield sim.timeout(done - sim._now)
                continue
            window = fifo.snapshot()[:cfg.lookahead_depth]
            if not window:
                yield self._work.sleep()
                continue
            first_txn = self._choose(window)
            fifo.remove(first_txn)
            group = self._collect_merges(first_txn)
            total_bytes = 0
            bus_beats = 0
            for txn in group:
                total_bytes += txn.total_bytes
                bus_beats += txn.beats
            device_beats = -(-total_bytes // self.device.geometry.width_bytes)
            spans = sim._spans
            if spans is not None:
                # Lifecycle marks: engine dequeue now, command issue after
                # the front pipeline — the two hops Fig. 6 cannot see from
                # the bus.
                for txn in group:
                    spans.mark(txn, "lmi.engine")
            # Controller front pipeline: decode, optimisation, command issue.
            yield clk.edges(cfg.pipeline_front_cycles)
            is_write = first_txn.is_write
            first_data, last_data, _hit = self.device.access(
                is_write, first_txn.address, device_beats, sim._now)
            if spans is not None:
                for txn in group:
                    spans.mark(txn, "sdram.cmd")
            self._last_was_write = is_write
            self.served.value += len(group)
            if is_write:
                # Wait out the device write burst, then acknowledge.
                if last_data > sim._now:
                    yield sim.timeout(last_data - sim._now)
                yield clk.edges(cfg.pipeline_back_cycles)
                for txn in group:
                    if txn.meta.get("needs_ack", not txn.posted):
                        ack = ResponseBeat(txn, index=-1, is_last=True)
                        if not (lt and out.try_put(ack)):
                            yield out.put(ack)
                    elif txn.ev_done._value is _PENDING:
                        txn.complete(sim._now)
                continue
            # Every beat surfaces at its exact device-window instant in both
            # modes: the LMI scheduler's row-hit/merge decisions depend on
            # request *arrival* times, so bunching beats (and thereby
            # shifting when initiators issue their next request) would
            # compound into visible execution-time drift.
            step = max(0, last_data - first_data) // bus_beats
            if lt:
                # LT commits the group as one schedule, at those instants,
                # and sleeps until its release (docs/FAST_SIM.md).
                beats = []
                for txn in group:
                    last = txn.beats - 1
                    for index in range(txn.beats):
                        beats.append(ResponseBeat(txn, index=index,
                                                  is_last=index == last))
                start = first_data + back
                release = out.put_schedule(
                    beats, [start + n * step for n in range(bus_beats)])
                sim._lt_fastforwards += bus_beats
                if release is not None:
                    yield release
                stores = out.store_instants
                end = -1
                for txn in group:
                    end += txn.beats
                    if txn.t_accepted is not None:
                        self.read_latency.add(stores[end] - txn.t_accepted)
                continue
            beat_no = 0
            for txn in group:
                for index in range(txn.beats):
                    ready = first_data + beat_no * step + back
                    if ready > sim._now:
                        yield sim.timeout(ready - sim._now)
                    yield out.put(ResponseBeat(txn, index=index,
                                               is_last=index == txn.beats - 1))
                    beat_no += 1
                if txn.t_accepted is not None:
                    self.read_latency.add(sim._now - txn.t_accepted)
