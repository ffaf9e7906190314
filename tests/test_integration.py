"""End-to-end integration invariants across whole platform runs."""

import pytest

from repro.core import Simulator
from repro.obs import capture
from repro.platforms import MemoryConfig, build_platform, quick_config


def run_platform(**overrides):
    sim = Simulator()
    platform = build_platform(sim, quick_config(**overrides))
    result = platform.run(max_ps=20_000_000_000_000)
    return sim, platform, result


ALL_VARIANTS = [
    dict(protocol="stbus", topology="distributed"),
    dict(protocol="stbus", topology="collapsed"),
    dict(protocol="ahb", topology="distributed"),
    dict(protocol="axi", topology="distributed"),
    dict(protocol="axi", topology="collapsed"),
    dict(protocol="stbus", topology="distributed",
         memory=MemoryConfig(kind="lmi")),
    dict(protocol="ahb", topology="distributed",
         memory=MemoryConfig(kind="lmi")),
    dict(protocol="axi", topology="collapsed",
         memory=MemoryConfig(kind="lmi")),
]


@pytest.mark.parametrize("overrides", ALL_VARIANTS,
                         ids=lambda o: f"{o['protocol']}-{o['topology']}-"
                         f"{o.get('memory', MemoryConfig()).kind}")
class TestPlatformInvariants:
    def test_every_transaction_completes_exactly_once(self, overrides):
        __, platform, __ = run_platform(**overrides)
        for iptg in platform.iptgs:
            assert len(iptg.transactions) == iptg.generated.value
            for txn in iptg.transactions:
                assert txn.t_done is not None, txn
                assert txn.ev_done.processed

    def test_lifecycle_timestamps_are_ordered(self, overrides):
        __, platform, __ = run_platform(**overrides)
        for iptg in platform.iptgs:
            for txn in iptg.transactions:
                assert txn.t_created <= txn.t_issued <= txn.t_granted
                assert txn.t_granted <= txn.t_accepted <= txn.t_done
                if txn.is_read:
                    assert txn.t_first_data is not None
                    assert txn.t_accepted <= txn.t_first_data <= txn.t_done

    def test_execution_time_is_last_completion(self, overrides):
        sim, platform, result = run_platform(**overrides)
        last_txn = max(t.t_done for ip in platform.iptgs
                       for t in ip.transactions)
        last = last_txn
        if platform.cpu is not None and platform.cpu.done.triggered:
            last = max(last, result.execution_time_ps)
        assert result.execution_time_ps >= last_txn
        assert result.execution_time_ps <= sim.now

    def test_byte_conservation_at_memory(self, overrides):
        """Bytes served by the memory device match the bytes the traffic
        generators and the CPU injected (after width conversion)."""
        __, platform, result = run_platform(**overrides)
        injected = sum(t.total_bytes for ip in platform.iptgs
                       for t in ip.transactions)
        assert result.bytes_transferred == injected

    def test_monitor_fractions_are_sane(self, overrides):
        with capture():
            __, platform, __ = run_platform(**overrides)
        for phase, row in platform.monitor.report().items():
            partition = (row["fifo_full"] + row["storing_request"]
                         + row["no_incoming_request"])
            assert partition == pytest.approx(1.0, abs=0.02), phase
            assert 0.0 <= row["fifo_empty"] <= 1.0


class TestCrossVariantSanity:
    def test_same_traffic_across_protocols(self):
        """The workload (transaction population) is identical across
        protocol variants — only timing differs."""
        def population(protocol):
            __, platform, __ = run_platform(protocol=protocol)
            return sorted((t.initiator, t.address, t.opcode.value,
                           t.total_bytes)
                          for ip in platform.iptgs
                          for t in ip.transactions)

        assert population("stbus") == population("axi") == population("ahb")

    def test_lmi_slower_than_onchip(self):
        """The off-chip path (11-cycle latency) is slower than the 1-ws
        on-chip memory for the same traffic."""
        __, __, onchip = run_platform(protocol="stbus")
        __, __, lmi = run_platform(protocol="stbus",
                                   memory=MemoryConfig(kind="lmi"))
        assert lmi.execution_time_ps > onchip.execution_time_ps

    def test_event_counts_deterministic(self):
        def events():
            sim, __, __ = run_platform(protocol="stbus")
            return sim.processed_events

        assert events() == events()
