"""ST220 VLIW DSP core model.

"The ST220 VLIW DSP core (400 MHz, 32 bit, data and instruction caches) acts
as the general purpose processor" (Section 3).  The core is modelled at
instruction-set granularity: a :class:`~repro.cpu.benchmark.SyntheticBenchmark`
stream drives the I- and D-caches, and every miss becomes a bus transaction
(line refill read, plus a posted write-back when a dirty victim is evicted).
The core stalls for the full refill latency — it is the in-order,
blocking-cache client whose misses "interfere with the traffic patterns of
the other cores".

In the reference platform the core sits behind a 32->64-bit, 400->250 MHz
upsize GenConv; the platform builder wires that up — the core itself only
knows its own 32-bit, 400 MHz interface.
"""

from __future__ import annotations

from typing import Optional

from ..core.component import Component
from ..core.events import Event, _PENDING
from ..core.kernel import Simulator
from ..interconnect.base import InitiatorPort
from ..interconnect.types import Opcode, Transaction
from .benchmark import SyntheticBenchmark
from .cache import Cache


class St220Core(Component):
    """In-order VLIW core with split I/D caches and a blocking miss path."""

    def __init__(self, sim: Simulator, name: str, port: InitiatorPort,
                 benchmark: SyntheticBenchmark,
                 icache: Optional[Cache] = None,
                 dcache: Optional[Cache] = None,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=port.fabric.clock, parent=parent)
        self.port = port
        self.benchmark = benchmark
        self.icache = icache or Cache(f"{name}.icache", size_bytes=8192,
                                      line_bytes=64, ways=2)
        self.dcache = dcache or Cache(f"{name}.dcache", size_bytes=8192,
                                      line_bytes=32, ways=4)
        # The caches are sim-less, so their counters are indexed here.
        for cache in (self.icache, self.dcache):
            for stat in (cache.hits, cache.misses, cache.writebacks):
                sim.metrics.register(stat.name, stat)
        self.blocks_retired = sim.metrics.counter(f"{name}.blocks")
        self.stall_cycles = sim.metrics.counter(f"{name}.stalls")
        self.miss_latency = sim.metrics.histogram(f"{name}.miss_latency")
        self.done: Event = sim.event(name=f"{name}.done")
        #: Energy accounting: the caches themselves are sim-less lookup
        #: structures, so the access charges live here at the call sites.
        self._energy = sim._energy
        if self._energy is not None:
            from ..obs.energy import fj_from_pj
            self._e_hit = fj_from_pj(self._energy.config.cache_hit_pj)
            self._e_miss = fj_from_pj(self._energy.config.cache_miss_pj)
        self.process(self._run(), name="core")

    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Retirement progress + full cache contents (tag arrays digested:
        comparing them bit for bit matters, inlining them does not)."""
        return {
            "blocks_retired": self.blocks_retired.value,
            "stall_cycles": self.stall_cycles.value,
            "icache": self._cache_state(self.icache, encoder),
            "dcache": self._cache_state(self.dcache, encoder),
            "done": self.done.triggered,
        }

    @staticmethod
    def _cache_state(cache: Cache, encoder):
        return {
            "hits": cache.hits.value,
            "misses": cache.misses.value,
            "writebacks": cache.writebacks.value,
            "lines": encoder.digest({
                set_index: [[tag, dirty] for tag, dirty in lines.items()]
                for set_index, lines in cache._lines.items()}),
        }

    # ------------------------------------------------------------------
    def _run(self):
        clk = self.clock
        for block in self.benchmark:
            # Instruction fetch.
            fetch = self.icache.access(block.fetch_address, is_write=False)
            if self._energy is not None:
                self._energy.charge(self.icache.name,
                                    self._e_hit if fetch.hit else self._e_miss,
                                    self.sim.now, self.name)
            if not fetch.hit:
                yield from self._refill(fetch.refill_address,
                                        self.icache.line_bytes, None)
            # Core-private computation.
            yield clk.edges(block.compute_cycles)
            # Data access.
            if block.is_memory_op:
                result = self.dcache.access(block.data_address,
                                            is_write=not block.is_load)
                if self._energy is not None:
                    self._energy.charge(
                        self.dcache.name,
                        self._e_hit if result.hit else self._e_miss,
                        self.sim.now, self.name)
                if not result.hit:
                    yield from self._refill(result.refill_address,
                                            self.dcache.line_bytes,
                                            result.writeback_address)
            self.blocks_retired.add()
        self.done.succeed(self.blocks_retired.value)

    def _refill(self, refill_address: int, line_bytes: int,
                writeback_address: Optional[int]):
        """Service a miss: optional posted write-back, then a blocking
        line-refill read."""
        clk = self.clock
        if writeback_address is not None:
            victim = Transaction(initiator=self.name, opcode=Opcode.WRITE,
                                 address=writeback_address,
                                 beats=line_bytes // 4, beat_bytes=4,
                                 posted=True)
            yield self.port.issue(victim)
        refill = Transaction(initiator=self.name, opcode=Opcode.READ,
                             address=refill_address,
                             beats=line_bytes // 4, beat_bytes=4)
        start = self.sim._now
        yield self.port.issue(refill)
        if refill.ev_done._value is _PENDING:
            yield refill.ev_done
        stalled = self.sim._now - start
        self.stall_cycles.add(int(clk.to_cycles(stalled)))
        self.miss_latency.add(stalled)
