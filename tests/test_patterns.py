"""Unit and property tests for traffic distributions and address patterns."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic import (
    Choice,
    Fixed,
    Geometric,
    RandomUniform,
    Sequential,
    Strided,
)


class TestDistributions:
    def test_fixed(self):
        dist = Fixed(7)
        rng = random.Random(0)
        assert all(dist.sample(rng) == 7 for _ in range(10))
        assert dist.mean == 7.0

    def test_choice_weighted(self):
        dist = Choice([4, 8, 16], weights=[0, 0, 1])
        rng = random.Random(0)
        assert all(dist.sample(rng) == 16 for _ in range(20))
        assert dist.mean == 16.0

    def test_choice_validation(self):
        with pytest.raises(ValueError):
            Choice([])
        with pytest.raises(ValueError):
            Choice([1, 2], weights=[1])
        with pytest.raises(ValueError):
            Choice([1], weights=[-1])

    def test_geometric_mean_and_cap(self):
        dist = Geometric(p=0.25, cap=100)
        rng = random.Random(1)
        samples = [dist.sample(rng) for _ in range(2000)]
        assert all(1 <= s <= 100 for s in samples)
        assert sum(samples) / len(samples) == pytest.approx(4.0, rel=0.2)

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            Geometric(p=0)
        with pytest.raises(ValueError):
            Geometric(p=0.5, cap=0)

    @given(st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_geometric_samples_positive(self, p):
        dist = Geometric(p=p)
        rng = random.Random(0)
        assert all(dist.sample(rng) >= 1 for _ in range(50))


class TestSequential:
    def test_streams_contiguously(self):
        pattern = Sequential(base=0x1000, span=256)
        rng = random.Random(0)
        addresses = [pattern.next_address(rng, 64) for _ in range(4)]
        assert addresses == [0x1000, 0x1040, 0x1080, 0x10C0]

    def test_wraps_at_span(self):
        pattern = Sequential(base=0, span=128)
        rng = random.Random(0)
        addresses = [pattern.next_address(rng, 64) for _ in range(3)]
        assert addresses == [0, 64, 0]

    @given(st.integers(64, 1 << 16))
    @settings(max_examples=30, deadline=None)
    def test_always_within_window(self, span):
        pattern = Sequential(base=0x8000, span=span)
        rng = random.Random(0)
        for _ in range(50):
            address = pattern.next_address(rng, 32)
            assert 0x8000 <= address < 0x8000 + span


class TestRandomUniform:
    def test_alignment_and_bounds(self):
        pattern = RandomUniform(base=0x4000, span=4096, align=64)
        rng = random.Random(3)
        for _ in range(100):
            address = pattern.next_address(rng, 64)
            assert address % 64 == 0x4000 % 64
            assert 0x4000 <= address < 0x4000 + 4096


class TestStrided:
    def test_walks_blocks_with_stride(self):
        pattern = Strided(base=0, block=64, stride=1024, blocks=3)
        rng = random.Random(0)
        addresses = [pattern.next_address(rng, 32) for _ in range(6)]
        assert addresses == [0, 32, 1024, 1056, 2048, 2080]

    def test_wraps_after_last_block(self):
        pattern = Strided(base=0, block=32, stride=256, blocks=2)
        rng = random.Random(0)
        addresses = [pattern.next_address(rng, 32) for _ in range(3)]
        assert addresses == [0, 256, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Strided(base=0, block=0, stride=1, blocks=1)
