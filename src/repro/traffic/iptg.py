"""IPTG — the configurable IP traffic generator.

"IPTG is a SystemC block developed at STMicroelectronics aimed at reproducing
the communication behaviour of a generic IP ... it allows to try out the SoC
communication infrastructure in real-life conditions such as heavy-loaded
transients which are not likely to be reproduced using random packet
injection." (Section 3.1)

An :class:`Iptg` drives one initiator port through a list of
:class:`IptgPhase` programs.  Each phase sets its own statistical properties
(burst length, read fraction, idle gaps, address pattern, message grouping),
so multi-regime application lifetimes — like the two working phases Fig. 6
dissects — are a single configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from ..core.component import Component
from ..core.events import Event, _PENDING
from ..core.kernel import Simulator
from ..interconnect.base import InitiatorPort
from ..interconnect.types import Opcode, Transaction
from .patterns import AddressPattern, Distribution, Fixed, Sequential

_next_message_id = [1 << 20]


@dataclass
class IptgPhase:
    """One program phase of a traffic generator.

    Parameters
    ----------
    transactions:
        How many transactions this phase issues.
    burst_beats:
        Distribution of burst lengths, in beats.
    idle_cycles:
        Distribution of idle cycles *between* transactions (intensity knob:
        0 = back-to-back saturation, large = sparse/bursty traffic).
    read_fraction:
        Probability a transaction is a read.
    message_packets:
        Group this many consecutive transactions into one STBus *message*
        (kept together by message-based arbitration).  1 disables grouping.

    Writes are posted wherever the fabric allows it, and the port's
    ``max_outstanding`` credits govern how transactions overlap.
    """

    transactions: int = 100
    burst_beats: Distribution = field(default_factory=lambda: Fixed(8))
    beat_bytes: int = 4
    idle_cycles: Distribution = field(default_factory=lambda: Fixed(0))
    read_fraction: float = 1.0
    priority: int = 0
    message_packets: int = 1
    address_pattern: Optional[AddressPattern] = None

    def __post_init__(self) -> None:
        if self.transactions < 0:
            raise ValueError("transactions must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction out of range: {self.read_fraction}")
        if self.message_packets < 1:
            raise ValueError("message_packets must be >= 1")

    def scaled(self, **overrides) -> "IptgPhase":
        """Copy with overrides (used by experiment sweeps)."""
        return replace(self, **overrides)


class Iptg(Component):
    """A traffic generator bound to an initiator port."""

    def __init__(self, sim: Simulator, name: str, port: InitiatorPort,
                 phases: List[IptgPhase], address_base: int = 0,
                 address_span: int = 1 << 20, seed: int = 1,
                 on_phase: Optional[Callable[[int], None]] = None,
                 clock=None, parent: Optional[Component] = None) -> None:
        # The generator paces itself on the IP's own clock: an IP keeps its
        # native rate even when its cluster is collapsed onto a faster node.
        super().__init__(sim, name, clock=clock or port.fabric.clock,
                         parent=parent)
        if not phases:
            raise ValueError(f"IPTG {name} needs at least one phase")
        self.port = port
        self.phases = list(phases)
        self.address_base = address_base
        self.address_span = address_span
        self.rng = random.Random(seed)
        self.on_phase = on_phase
        self.generated = sim.metrics.counter(f"{name}.generated")
        self.transactions: List[Transaction] = []
        #: Completes when every generated transaction has finished.
        self.done: Event = sim.event(name=f"{name}.done")
        self.process(self._run(), name="gen")

    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Generator progress: RNG stream position, issued transactions
        (digested — the full list is bulky), completion status."""
        return {
            "rng": encoder.digest(self.rng.getstate()),
            "generated": self.generated.value,
            "completed": self.completed,
            "transactions": encoder.digest(
                [encoder.transaction(txn) for txn in self.transactions]),
            "done": self.done.triggered,
        }

    # ------------------------------------------------------------------
    def _pattern_for(self, phase: IptgPhase) -> AddressPattern:
        if phase.address_pattern is not None:
            return phase.address_pattern
        return Sequential(self.address_base, self.address_span)

    def _run(self):
        clk = self.clock
        for index, phase in enumerate(self.phases):
            if self.on_phase is not None:
                self.on_phase(index)
            pattern = self._pattern_for(phase)
            remaining = phase.transactions
            while remaining > 0:
                gap = phase.idle_cycles.sample(self.rng)
                if gap > 0:
                    yield clk.edges(gap)
                group = min(phase.message_packets, remaining)
                yield from self._issue_message(phase, pattern, group)
                remaining -= group
        # Drain: wait for every outstanding transaction.
        for txn in self.transactions:
            if txn.ev_done._value is _PENDING:
                yield txn.ev_done
        self.done.succeed(len(self.transactions))

    def _issue_message(self, phase: IptgPhase, pattern: AddressPattern,
                       packets: int):
        """Issue ``packets`` transactions forming one message."""
        message_id = None
        if packets > 1:
            _next_message_id[0] += 1
            message_id = _next_message_id[0]
        is_read = self.rng.random() < phase.read_fraction
        for i in range(packets):
            beats = max(1, phase.burst_beats.sample(self.rng))
            burst_bytes = beats * phase.beat_bytes
            address = pattern.next_address(self.rng, burst_bytes)
            txn = Transaction(
                initiator=self.name,
                opcode=Opcode.READ if is_read else Opcode.WRITE,
                address=address,
                beats=beats,
                beat_bytes=phase.beat_bytes,
                priority=phase.priority,
                posted=not is_read,
                message_id=message_id,
                message_last=(i == packets - 1),
            )
            self.transactions.append(txn)
            self.generated.add()
            yield self.port.issue(txn)

    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return sum(1 for t in self.transactions if t.t_done is not None)

    @property
    def bytes_generated(self) -> int:
        return sum(t.total_bytes for t in self.transactions)

    def mean_latency_ps(self) -> float:
        latencies = [t.latency_ps for t in self.transactions
                     if t.latency_ps is not None]
        return sum(latencies) / len(latencies) if latencies else 0.0
