"""Statistical building blocks for traffic generation.

IPTG "can generate bus traffic which obeys some statistical properties, i.e.
in terms of burst length, transaction types, addressing schemes" (Section
3.1).  This module provides those three ingredients: integer *distributions*
(burst lengths, idle gaps), *address patterns* (streaming, random, 2D-block)
and the read/write mix.  Everything draws from per-instance seeded RNGs so
platform runs are reproducible.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence


class Distribution:
    """An integer-valued random variable.  Subclasses implement sample()."""

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        raise NotImplementedError


class Fixed(Distribution):
    """Always the same value."""

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def sample(self, rng: random.Random) -> int:
        return self.value

    @property
    def mean(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Fixed({self.value})"


class Choice(Distribution):
    """Weighted choice among explicit values (e.g. burst lengths 4/8/16)."""

    def __init__(self, values: Sequence[int],
                 weights: Optional[Sequence[float]] = None) -> None:
        if not values:
            raise ValueError("Choice needs at least one value")
        self.values: List[int] = [int(v) for v in values]
        if weights is None:
            weights = [1.0] * len(self.values)
        if len(weights) != len(self.values):
            raise ValueError("weights length must match values length")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self.weights = list(weights)

    def sample(self, rng: random.Random) -> int:
        return rng.choices(self.values, weights=self.weights, k=1)[0]

    @property
    def mean(self) -> float:
        total = sum(self.weights)
        return sum(v * w for v, w in zip(self.values, self.weights)) / total

    def __repr__(self) -> str:
        return f"Choice({self.values}, weights={self.weights})"


class Geometric(Distribution):
    """Geometric with success probability ``p``, clipped at ``cap``.

    Models bursty idle-gap processes: many short gaps, occasional long ones
    — the "heavy-loaded transients" flavour of real IP traffic.
    """

    def __init__(self, p: float, cap: int = 1 << 16) -> None:
        if not 0 < p <= 1:
            raise ValueError(f"p must be in (0, 1], got {p}")
        if cap < 1:
            raise ValueError("cap must be >= 1")
        self.p = p
        self.cap = cap

    def sample(self, rng: random.Random) -> int:
        count = 1
        while count < self.cap and rng.random() > self.p:
            count += 1
        return count

    @property
    def mean(self) -> float:
        return min(1.0 / self.p, float(self.cap))

    def __repr__(self) -> str:
        return f"Geometric(p={self.p})"


# ----------------------------------------------------------------------
# address patterns
# ----------------------------------------------------------------------
class AddressPattern:
    """A stream of transaction start addresses."""

    def next_address(self, rng: random.Random, burst_bytes: int) -> int:
        raise NotImplementedError


class Sequential(AddressPattern):
    """Streaming access: each burst follows the previous one.

    This is the memory-controller-friendly pattern (row hits, mergeable
    opcodes) that message-based arbitration tries to preserve end to end.
    """

    def __init__(self, base: int, span: int) -> None:
        if span <= 0:
            raise ValueError("span must be positive")
        self.base = base
        self.span = span
        self._offset = 0

    def next_address(self, rng: random.Random, burst_bytes: int) -> int:
        if self._offset + burst_bytes > self.span:
            self._offset = 0
        address = self.base + self._offset
        self._offset += burst_bytes
        return address


class RandomUniform(AddressPattern):
    """Uniform random bursts inside a window (controller-hostile)."""

    def __init__(self, base: int, span: int, align: int = 64) -> None:
        if span <= 0 or align <= 0:
            raise ValueError("span and align must be positive")
        self.base = base
        self.span = span
        self.align = align

    def next_address(self, rng: random.Random, burst_bytes: int) -> int:
        limit = max(1, (self.span - burst_bytes) // self.align)
        return self.base + rng.randrange(limit) * self.align


class Strided(AddressPattern):
    """2D block walk: ``block`` bytes, then jump by ``stride``.

    The image-resizer pattern — lines of a tile are contiguous, consecutive
    lines are a frame-width apart.
    """

    def __init__(self, base: int, block: int, stride: int, blocks: int) -> None:
        if block <= 0 or stride <= 0 or blocks <= 0:
            raise ValueError("block, stride and blocks must be positive")
        self.base = base
        self.block = block
        self.stride = stride
        self.blocks = blocks
        self._index = 0
        self._within = 0

    def next_address(self, rng: random.Random, burst_bytes: int) -> int:
        if self._within + burst_bytes > self.block:
            self._within = 0
            self._index = (self._index + 1) % self.blocks
        address = self.base + self._index * self.stride + self._within
        self._within += burst_bytes
        return address
