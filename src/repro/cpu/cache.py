"""Set-associative cache model (the ST220's I/D caches).

Purely functional timing-wise: :meth:`Cache.access` classifies an access as
hit or miss and reports the victim line on a dirty eviction; the *core*
model turns misses into bus refill transactions and stall cycles.  LRU
replacement, write-back + write-allocate policy (the interesting case for
bus traffic, since it produces both read refills and posted write-backs).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.statistics import Counter


@dataclass(frozen=True)
class CacheAccess:
    """Outcome of one cache access."""

    hit: bool
    #: Byte address of the line to write back first (dirty victim), if any.
    writeback_address: Optional[int] = None
    #: Byte address of the line to fetch (miss), if any.
    refill_address: Optional[int] = None


class Cache:
    """One level of cache (direct mapped when ``ways == 1``)."""

    def __init__(self, name: str, size_bytes: int, line_bytes: int = 32,
                 ways: int = 4) -> None:
        if line_bytes & (line_bytes - 1) or line_bytes < 4:
            raise ValueError(f"line size must be a power of two >= 4: {line_bytes}")
        if ways < 1:
            raise ValueError("ways must be >= 1")
        if size_bytes % (line_bytes * ways):
            raise ValueError(
                f"size {size_bytes} not divisible by line*ways "
                f"({line_bytes}x{ways})")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.sets = size_bytes // (line_bytes * ways)
        #: Per-set LRU-ordered mapping: tag -> dirty flag.  Most recently
        #: used entries at the end.
        self._lines: Dict[int, OrderedDict] = {s: OrderedDict()
                                               for s in range(self.sets)}
        self.hits = Counter(f"{name}.hits")
        self.misses = Counter(f"{name}.misses")
        self.writebacks = Counter(f"{name}.writebacks")

    # ------------------------------------------------------------------
    def _decompose(self, address: int):
        line = address // self.line_bytes
        return line % self.sets, line // self.sets

    def line_address(self, address: int) -> int:
        """Start address of the line containing ``address``."""
        return (address // self.line_bytes) * self.line_bytes

    def access(self, address: int, is_write: bool = False) -> CacheAccess:
        """Look up ``address``; update LRU/dirty state; report what the
        core must do on the bus (write-back and/or refill)."""
        set_index, tag = self._decompose(address)
        lines = self._lines[set_index]
        if tag in lines:
            self.hits.add()
            lines.move_to_end(tag)
            if is_write:
                lines[tag] = True
            return CacheAccess(hit=True)
        self.misses.add()
        writeback = None
        if len(lines) >= self.ways:
            victim_tag, dirty = next(iter(lines.items()))
            del lines[victim_tag]
            if dirty:
                self.writebacks.add()
                victim_line = victim_tag * self.sets + set_index
                writeback = victim_line * self.line_bytes
        lines[tag] = is_write
        return CacheAccess(hit=False, writeback_address=writeback,
                           refill_address=self.line_address(address))

    @property
    def miss_rate(self) -> float:
        total = self.hits.value + self.misses.value
        return self.misses.value / total if total else 0.0
