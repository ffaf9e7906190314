"""Transaction-level (approximately-timed) interconnect model.

The paper's virtual platform is *multi-abstraction*: "IPTGs will generate
bus transactions at different abstraction levels (transaction-level, bus
cycle-accurate) according to what is specified in a per-IP configuration
file" (Section 3.1).  The cycle-accurate models in ``stbus``/``ahb``/
``axi`` simulate every beat; this module provides the fast
transaction-level tier: per transaction, the fabric charges an *analytic*
request-channel occupancy, target service window and response drain — a
handful of kernel events instead of one per beat.

Intended use: early design-space exploration at 10-50x the simulation
speed, cross-validated against the cycle-accurate tier (see
``tests/test_tlm.py``); switch individual experiments to cycle accuracy
once candidates are short-listed — the flow the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.clock import Clock
from ..core.component import Component
from ..core.kernel import Simulator
from ..interconnect.arbiter import Arbiter, MessageLockStall
from ..interconnect.base import Fabric
from ..interconnect.types import AddressRange, Transaction


class ServiceModel:
    """Analytic timing of one target: subclass and implement estimate()."""

    def estimate(self, txn: Transaction) -> "ServiceEstimate":
        raise NotImplementedError


@dataclass(frozen=True)
class ServiceEstimate:
    """Timing of one access at a target, relative to service start (ps)."""

    #: Delay from service start to the first response data.
    first_data_ps: int
    #: Total target occupancy (the next access starts after this).
    occupancy_ps: int

    def __post_init__(self) -> None:
        if self.first_data_ps < 0 or self.occupancy_ps <= 0:
            raise ValueError("service estimate must be positive")
        if self.first_data_ps > self.occupancy_ps:
            raise ValueError("first data cannot come after occupancy ends")


class SramServiceModel(ServiceModel):
    """Analytic model of :class:`~repro.memory.onchip.OnChipMemory`."""

    def __init__(self, clock: Clock, wait_states: int = 1,
                 width_bytes: int = 8,
                 access_latency_cycles: int = 0) -> None:
        self.clock = clock
        self.wait_states = wait_states
        self.width_bytes = width_bytes
        self.access_latency_cycles = access_latency_cycles

    def estimate(self, txn: Transaction) -> ServiceEstimate:
        words = max(1, -(-txn.total_bytes // self.width_bytes))
        cycles = words * (1 + self.wait_states)
        latency = self.access_latency_cycles + 1 + self.wait_states
        return ServiceEstimate(
            first_data_ps=self.clock.to_ps(latency),
            occupancy_ps=self.clock.to_ps(self.access_latency_cycles + cycles))


class SdramServiceModel(ServiceModel):
    """Coarse analytic model of the LMI + SDRAM path.

    ``first_read_cycles`` is the headline 11-cycle figure; throughput is
    approximated with an average row-hit mix (``row_hit_fraction``).
    """

    def __init__(self, clock: Clock, first_read_cycles: int = 11,
                 width_bytes: int = 8, beats_per_clock: int = 2,
                 row_hit_fraction: float = 0.6,
                 row_miss_penalty_cycles: int = 6) -> None:
        if not 0.0 <= row_hit_fraction <= 1.0:
            raise ValueError("row_hit_fraction out of [0, 1]")
        self.clock = clock
        self.first_read_cycles = first_read_cycles
        self.width_bytes = width_bytes
        self.beats_per_clock = beats_per_clock
        self.row_hit_fraction = row_hit_fraction
        self.row_miss_penalty_cycles = row_miss_penalty_cycles

    def estimate(self, txn: Transaction) -> ServiceEstimate:
        words = max(1, -(-txn.total_bytes // self.width_bytes))
        data_cycles = max(1, -(-words // self.beats_per_clock))
        miss_overhead = (1.0 - self.row_hit_fraction) \
            * self.row_miss_penalty_cycles
        first = self.first_read_cycles + miss_overhead
        return ServiceEstimate(
            first_data_ps=int(self.clock.to_ps(1) * first),
            occupancy_ps=int(self.clock.to_ps(1) * (first + data_cycles)))


class _TlmTarget:
    """Bookkeeping for one analytically-modelled target."""

    __slots__ = ("name", "address_range", "model", "free_at_ps", "served")

    def __init__(self, name: str, address_range: AddressRange,
                 model: ServiceModel) -> None:
        self.name = name
        self.address_range = address_range
        self.model = model
        self.free_at_ps = 0
        self.served = 0


class TlmNode(Fabric):
    """Approximately-timed shared interconnect.

    Reuses the :class:`Fabric` initiator ports (so IPTGs, CPUs and bridges
    plug in unchanged) but replaces per-beat channel processes with one
    dispatcher that charges analytic times:

    * request channel: ``request_cycles(txn)`` serialised cycles;
    * target: the registered :class:`ServiceModel`'s window, serialised
      per target (single-ported);
    * response channel: one (width-adjusted) cycle per beat, serialised
      across transactions.
    """

    protocol = "tlm"

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 8,
                 arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock, data_width_bytes=data_width_bytes,
                         arbiter=arbiter, parent=parent)
        self.tlm_targets: List[_TlmTarget] = []
        self._resp_free_at_ps = 0
        self.req_channel = self.channel("request")
        self.resp_channel = self.channel("response")
        self.process(self._dispatch(), name="dispatch")

    # ------------------------------------------------------------------
    def add_tlm_target(self, name: str, address_range: AddressRange,
                       model: ServiceModel) -> _TlmTarget:
        """Register an analytically-modelled target."""
        for existing in self.tlm_targets:
            if existing.address_range.overlaps(address_range):
                raise ValueError(f"{name} overlaps {existing.name}")
        target = _TlmTarget(name, address_range, model)
        self.tlm_targets.append(target)
        return target

    def snapshot_state(self, encoder):
        state = super().snapshot_state(encoder)
        state["resp_free_at_ps"] = self._resp_free_at_ps
        state["tlm_targets"] = {
            target.name: {"free_at_ps": target.free_at_ps,
                          "served": target.served}
            for target in self.tlm_targets
        }
        return state

    def tlm_route(self, address: int) -> _TlmTarget:
        for target in self.tlm_targets:
            if target.address_range.contains(address):
                return target
        raise ValueError(f"{self.name}: no TLM target decodes {address:#x}")

    # ------------------------------------------------------------------
    def _dispatch(self):
        clk = self.clock
        while True:
            candidates = self.request_candidates()
            if not candidates:
                yield self._request_work.sleep()
                continue
            try:
                port, txn = self.arbiter.select(candidates)
            except MessageLockStall:
                yield clk.edge()
                continue
            self.pop_granted(port, txn)
            request_cycles = self.request_cycles(txn)
            yield clk.edges(request_cycles)
            self.req_channel.add_busy(clk.to_ps(request_cycles))
            self._schedule_completion(txn)

    def _schedule_completion(self, txn: Transaction) -> None:
        """Charge the analytic target + response times via timeouts."""
        now = self.sim.now
        target = self.tlm_route(txn.address)
        estimate = target.model.estimate(txn)
        start = max(now, target.free_at_ps)
        target.free_at_ps = start + estimate.occupancy_ps
        target.served += 1
        txn.mark_accepted(now)
        if txn.is_write and txn.posted:
            # Posted writes produce no response beats (as in the CA
            # fabrics, which complete them at acceptance).
            txn.complete(now)
            return
        if self._energy is not None:
            # The TLM node drains responses analytically instead of
            # calling ``deliver_beat`` per beat; charge the same beat
            # population in one step (reads: the data burst, non-posted
            # writes: the single acknowledgement cell).
            self._energy.bus_beats(self, txn, txn.beats if txn.is_read else 1)
        first_data = start + estimate.first_data_ps
        drain = txn.beats * self.bus_cycles_for_beat(txn.beat_bytes) \
            * self.clock.period_ps
        delivery_start = max(start + estimate.occupancy_ps,
                             self._resp_free_at_ps, first_data)
        done = delivery_start + (drain if txn.is_read else
                                 self.clock.period_ps)
        self._resp_free_at_ps = done
        self.resp_channel.add_busy(done - delivery_start)
        if txn.is_read:
            self.sim.timeout(first_data - now).add_callback(
                lambda _e, t=txn: self._mark_first_data(t))
        self.sim.timeout(done - now).add_callback(
            lambda _e, t=txn: t.complete(self.sim.now))

    def _mark_first_data(self, txn: Transaction) -> None:
        if txn.t_first_data is None:
            txn.t_first_data = self.sim.now
