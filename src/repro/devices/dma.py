"""Programmable DMA engine.

The reference platform's N5 cluster runs "more generic DMA tasks"; beyond
the statistical IPTG stand-ins, this is a functional DMA controller: a
descriptor-programmed, multi-channel engine that actually moves data
(memory-to-memory or memory-to-I/O windows), splitting each descriptor
into bus bursts, pipelining reads against posted writes and reporting
per-channel completion.

The engine is a first-class initiator: it attaches to any fabric through a
normal initiator port, so it can be dropped into single layers, behind
bridges, or onto the full reference platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.component import Component
from ..core.events import Event
from ..core.kernel import Simulator
from ..core.sync import Semaphore
from ..interconnect.base import InitiatorPort
from ..interconnect.types import Opcode, Transaction


@dataclass(frozen=True)
class DmaDescriptor:
    """One programmed transfer: copy ``length`` bytes from ``source`` to
    ``destination`` in bursts of ``burst_bytes``."""

    source: int
    destination: int
    length: int
    burst_bytes: int = 64

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("descriptor length must be positive")
        if self.burst_bytes <= 0 or self.burst_bytes % 4:
            raise ValueError("burst_bytes must be a positive multiple of 4")
        if self.source < 0 or self.destination < 0:
            raise ValueError("addresses must be non-negative")


class DmaChannel:
    """One channel: an ordered descriptor chain plus completion event."""

    def __init__(self, sim: Simulator, index: int,
                 descriptors: Sequence[DmaDescriptor]) -> None:
        if not descriptors:
            raise ValueError(f"channel {index}: empty descriptor chain")
        self.index = index
        self.descriptors = list(descriptors)
        self.done: Event = sim.event(name=f"dma_ch{index}.done")
        self.bytes_moved = 0


class DmaEngine(Component):
    """Multi-channel descriptor-driven DMA controller.

    Channels are serviced round-robin at descriptor granularity; within a
    descriptor, read bursts pipeline up to the port's outstanding budget
    and each completed read immediately launches the corresponding posted
    write ("store-and-forward per burst").
    """

    def __init__(self, sim: Simulator, name: str, port: InitiatorPort,
                 beat_bytes: int = 8,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=port.fabric.clock, parent=parent)
        self.port = port
        self.beat_bytes = beat_bytes
        self.channels: List[DmaChannel] = []
        self.bursts_issued = sim.metrics.counter(f"{name}.bursts")
        self.copy_latency = sim.metrics.histogram(f"{name}.copy_latency")
        self.all_done: Event = sim.event(name=f"{name}.all_done")
        self._started = False

    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Per-channel copy progress."""
        return {
            "started": self._started,
            "bursts_issued": self.bursts_issued.value,
            "channels": [
                {
                    "index": channel.index,
                    "descriptors": len(channel.descriptors),
                    "bytes_moved": channel.bytes_moved,
                    "done": channel.done.triggered,
                } for channel in self.channels
            ],
            "all_done": self.all_done.triggered,
        }

    # ------------------------------------------------------------------
    def program(self, descriptors: Sequence[DmaDescriptor]) -> DmaChannel:
        """Add a channel with the given descriptor chain."""
        if self._started:
            raise RuntimeError(f"{self.name}: already started")
        channel = DmaChannel(self.sim, len(self.channels), descriptors)
        self.channels.append(channel)
        return channel

    def start(self) -> Event:
        """Kick the engine; returns the all-channels-done event."""
        if self._started:
            raise RuntimeError(f"{self.name}: already started")
        if not self.channels:
            raise RuntimeError(f"{self.name}: no channels programmed")
        self._started = True
        self.process(self._engine(), name="engine")
        return self.all_done

    # ------------------------------------------------------------------
    def _engine(self):
        # Round-robin over channels at descriptor granularity.
        pending = [(ch, list(ch.descriptors)) for ch in self.channels]
        while pending:
            still = []
            for channel, chain in pending:
                descriptor = chain.pop(0)
                yield from self._copy(channel, descriptor)
                if chain:
                    still.append((channel, chain))
                else:
                    channel.done.succeed(channel.bytes_moved)
            pending = still
        self.all_done.succeed(sum(ch.bytes_moved for ch in self.channels))

    def _copy(self, channel: DmaChannel, descriptor: DmaDescriptor):
        """Move one descriptor's bytes, burst by burst."""
        started = self.sim.now
        remaining = descriptor.length
        offset = 0
        in_flight = Semaphore(self.sim, self.port.max_outstanding,
                              name=f"{self.name}.inflight", bounded=True)
        launched = []
        while remaining > 0:
            chunk = min(descriptor.burst_bytes, remaining)
            beats = max(1, -(-chunk // self.beat_bytes))
            yield in_flight.acquire()
            txn = Transaction(initiator=self.name, opcode=Opcode.READ,
                              address=descriptor.source + offset,
                              beats=beats, beat_bytes=self.beat_bytes)
            self.bursts_issued.add()
            yield self.port.issue(txn)
            self.process(
                self._writeback(txn, descriptor.destination + offset,
                                channel, chunk, in_flight),
                name=f"wb{txn.tid}")
            launched.append(txn)
            offset += chunk
            remaining -= chunk
        # Drain: re-acquire every credit, which only succeeds once the
        # last write-back released it — the copy is then fully committed.
        for _ in range(self.port.max_outstanding):
            yield in_flight.acquire()
        self.copy_latency.add(self.sim.now - started)

    def _writeback(self, txn: Transaction, destination: int,
                   channel: DmaChannel, chunk: int, in_flight: Semaphore):
        """When a read burst lands, launch the matching posted write."""
        if not txn.ev_done.triggered:
            yield txn.ev_done
        write = Transaction(initiator=self.name, opcode=Opcode.WRITE,
                            address=destination, beats=txn.beats,
                            beat_bytes=txn.beat_bytes, posted=True)
        self.bursts_issued.add()
        yield self.port.issue(write)
        if not write.ev_done.triggered:
            yield write.ev_done
        channel.bytes_moved += chunk
        in_flight.release()

    # ------------------------------------------------------------------
    @property
    def total_bytes_moved(self) -> int:
        return sum(ch.bytes_moved for ch in self.channels)
