"""Unit and property tests for the cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Cache


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        first = cache.access(0x100)
        assert not first.hit
        assert first.refill_address == 0x100
        second = cache.access(0x104)  # same line
        assert second.hit

    def test_line_address(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        assert cache.line_address(0x10F) == 0x100
        assert cache.line_address(0x120) == 0x120

    def test_validation(self):
        with pytest.raises(ValueError):
            Cache("c", size_bytes=1000, line_bytes=24)
        with pytest.raises(ValueError):
            Cache("c", size_bytes=1024, line_bytes=32, ways=0)
        with pytest.raises(ValueError):
            Cache("c", size_bytes=1000, line_bytes=32, ways=3)

    def test_miss_rate(self):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        assert cache.miss_rate == 0.0
        cache.access(0x0)
        cache.access(0x0)
        assert cache.miss_rate == 0.5


class TestReplacement:
    def test_lru_evicts_least_recent(self):
        # Direct-mapped-per-set geometry: 2 sets x 2 ways x 32B lines.
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=2)
        set_stride = 64  # lines mapping to the same set
        a, b, c = 0x0, set_stride, 2 * set_stride
        cache.access(a)
        cache.access(b)
        cache.access(a)       # refresh a -> b becomes LRU
        result = cache.access(c)
        assert not result.hit
        assert cache.access(a).hit      # a survived
        assert not cache.access(b).hit  # b was evicted

    def test_dirty_eviction_reports_writeback(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        set_stride = 128  # ways=1, 4 sets? size/line/ways = 4 sets
        victim = 0x0
        cache.access(victim, is_write=True)
        conflicting = victim + cache.sets * cache.line_bytes
        result = cache.access(conflicting)
        assert not result.hit
        assert result.writeback_address == victim
        assert cache.writebacks.value == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        cache.access(0x0, is_write=False)
        result = cache.access(cache.sets * cache.line_bytes)
        assert result.writeback_address is None

    def test_write_hit_marks_dirty(self):
        cache = Cache("c", size_bytes=128, line_bytes=32, ways=1)
        cache.access(0x0, is_write=False)
        cache.access(0x0, is_write=True)  # hit, now dirty
        result = cache.access(cache.sets * cache.line_bytes)
        assert result.writeback_address == 0x0


class TestProperties:
    @given(st.lists(st.tuples(st.integers(0, 1 << 16), st.booleans()),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_rereference_within_working_set_always_hits(self, accesses):
        """Any re-access of the most recent address is a hit (LRU keeps
        the MRU line resident)."""
        cache = Cache("c", size_bytes=4096, line_bytes=32, ways=4)
        for address, is_write in accesses:
            cache.access(address, is_write)
            assert cache.access(address).hit

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = Cache("c", size_bytes=1024, line_bytes=32, ways=2)
        for address in addresses:
            cache.access(address)
        stored = sum(len(lines) for lines in cache._lines.values())
        assert stored <= cache.sets * cache.ways

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        cache = Cache("c", size_bytes=512, line_bytes=32, ways=2)
        for address in addresses:
            cache.access(address)
        assert cache.hits.value + cache.misses.value == len(addresses)
