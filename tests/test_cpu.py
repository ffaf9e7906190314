"""Tests for the synthetic benchmark and the ST220 core model."""

import pytest

from repro.cpu import BenchmarkConfig, St220Core, SyntheticBenchmark

from .helpers import add_memory, make_node


class TestBenchmark:
    def test_deterministic_stream(self):
        cfg = BenchmarkConfig(blocks=100, seed=5)
        first = list(SyntheticBenchmark(cfg))
        second = list(SyntheticBenchmark(cfg))
        assert first == second

    def test_block_count(self):
        bench = SyntheticBenchmark(BenchmarkConfig(blocks=37))
        assert len(bench) == 37
        assert len(list(bench)) == 37

    def test_memory_fraction_respected(self):
        cfg = BenchmarkConfig(blocks=1000, memory_fraction=0.5, seed=1)
        blocks = list(SyntheticBenchmark(cfg))
        fraction = sum(b.is_memory_op for b in blocks) / len(blocks)
        assert 0.4 < fraction < 0.6

    def test_addresses_inside_working_set(self):
        cfg = BenchmarkConfig(blocks=500, working_set=1 << 12,
                              data_base=0x8000_0000)
        for block in SyntheticBenchmark(cfg):
            assert 0x8000_0000 <= block.data_address < 0x8000_0000 + (1 << 12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchmarkConfig(blocks=0)
        with pytest.raises(ValueError):
            BenchmarkConfig(memory_fraction=1.5)
        with pytest.raises(ValueError):
            BenchmarkConfig(working_set=4)


class TestSt220:
    def _system(self, sim, blocks=150, working_set=1 << 14, wait_states=1):
        node = make_node(sim, freq_mhz=400, width=4)
        add_memory(sim, node, wait_states=wait_states)
        port = node.connect_initiator("st220", max_outstanding=2)
        bench = SyntheticBenchmark(BenchmarkConfig(
            blocks=blocks, working_set=working_set,
            data_base=0x0, code_base=0x40000, seed=11))
        return St220Core(sim, "st220", port, bench), node

    def test_split_caches_are_the_st220s(self, sim):
        core, __ = self._system(sim)
        assert [(c.size_bytes, c.line_bytes, c.ways)
                for c in (core.icache, core.dcache)] \
            == [(8192, 64, 2), (8192, 32, 4)]

    def test_runs_to_completion(self, sim):
        core, __ = self._system(sim)
        sim.run(until=100_000_000_000)
        assert core.done.triggered
        assert core.blocks_retired.value == 150

    def test_generates_cache_miss_traffic(self, sim):
        core, node = self._system(sim)
        sim.run(until=100_000_000_000)
        assert core.dcache.misses.value > 0
        assert core.icache.misses.value > 0
        assert core.port.issued.value > 0
        assert core.stall_cycles.value > 0

    def test_bigger_working_set_more_misses(self):
        from repro.core import Simulator

        def misses(working_set):
            sim = Simulator()
            core, __ = self._system(sim, working_set=working_set)
            sim.run(until=100_000_000_000)
            assert core.done.triggered
            return core.dcache.misses.value

        assert misses(1 << 16) > misses(1 << 12)

    def test_slower_memory_more_stalls(self):
        from repro.core import Simulator

        def stalls(wait_states):
            sim = Simulator()
            core, __ = self._system(sim, wait_states=wait_states)
            sim.run(until=100_000_000_000)
            return core.stall_cycles.value

        assert stalls(8) > stalls(0)

    def test_writebacks_issue_posted_writes(self, sim):
        core, node = self._system(sim, blocks=400, working_set=1 << 16)
        sim.run(until=100_000_000_000)
        assert core.dcache.writebacks.value > 0
        # Posted write-backs and blocking refills all complete.
        assert core.port.completed.value == core.port.issued.value
