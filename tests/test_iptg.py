"""Behavioural tests for the IPTG traffic generators and agents."""

import pytest

from repro.core import Simulator
from repro.traffic import AgentSpec, Fixed, Iptg, IptgPhase, MultiAgentIp

from .helpers import add_memory, make_node


def small_phase(**overrides):
    args = dict(transactions=10, burst_beats=Fixed(4), beat_bytes=4,
                idle_cycles=Fixed(2), read_fraction=0.5)
    args.update(overrides)
    return IptgPhase(**args)


class TestIptg:
    def _system(self, sim, phases, **iptg_kwargs):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=4)
        iptg = Iptg(sim, "ip0", port, phases, seed=5, **iptg_kwargs)
        return iptg

    def test_generates_configured_count(self, sim):
        iptg = self._system(sim, [small_phase(transactions=12)])
        sim.run(until=10_000_000_000)
        assert iptg.done.triggered
        assert iptg.generated.value == 12
        assert iptg.completed == 12

    def test_multiple_phases_run_in_order(self, sim):
        seen = []
        iptg = self._system(
            sim, [small_phase(transactions=5), small_phase(transactions=7)],
            on_phase=seen.append)
        sim.run(until=10_000_000_000)
        assert seen == [0, 1]
        assert iptg.generated.value == 12

    def test_read_fraction_all_reads(self, sim):
        iptg = self._system(sim, [small_phase(read_fraction=1.0)])
        sim.run(until=10_000_000_000)
        assert all(t.is_read for t in iptg.transactions)

    def test_every_write_is_offered_posted(self, sim):
        iptg = self._system(sim, [small_phase(transactions=20)])
        sim.run(until=10_000_000_000)
        assert {t.is_read for t in iptg.transactions} == {True, False}
        assert all(t.posted is not t.is_read for t in iptg.transactions)

    def test_message_grouping(self, sim):
        iptg = self._system(
            sim, [small_phase(transactions=6, message_packets=3)])
        sim.run(until=10_000_000_000)
        messages = {}
        for txn in iptg.transactions:
            messages.setdefault(txn.message_id, []).append(txn)
        assert len(messages) == 2
        for packets in messages.values():
            assert [p.message_last for p in packets] == [False, False, True]

    def test_idle_cycles_pace_generation(self):
        def span(idle):
            sim = Simulator()
            node = make_node(sim)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=4)
            iptg = Iptg(sim, "ip0", port,
                        [small_phase(idle_cycles=Fixed(idle))], seed=5)
            sim.run(until=10_000_000_000)
            assert iptg.done.triggered
            return sim.now

        assert span(50) > span(0)

    def test_deterministic_given_seed(self):
        def addresses(seed):
            sim = Simulator()
            node = make_node(sim)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=4)
            iptg = Iptg(sim, "ip0", port, [small_phase()], seed=seed)
            sim.run(until=10_000_000_000)
            return [(t.address, t.opcode) for t in iptg.transactions]

        assert addresses(9) == addresses(9)
        assert addresses(9) != addresses(10)

    def test_metrics_helpers(self, sim):
        iptg = self._system(sim, [small_phase(transactions=4)])
        sim.run(until=10_000_000_000)
        assert iptg.bytes_generated == sum(t.total_bytes
                                           for t in iptg.transactions)
        assert iptg.mean_latency_ps() > 0

    def test_requires_phases(self, sim):
        node = make_node(sim)
        port = node.connect_initiator("ip0")
        with pytest.raises(ValueError):
            Iptg(sim, "ip0", port, [])


class TestPhaseValidation:
    def test_bad_phase_rejected(self):
        with pytest.raises(ValueError):
            IptgPhase(transactions=-1)
        with pytest.raises(ValueError):
            IptgPhase(read_fraction=2.0)
        with pytest.raises(ValueError):
            IptgPhase(message_packets=0)

    def test_scaled_override(self):
        phase = small_phase(transactions=10)
        bigger = phase.scaled(transactions=20)
        assert bigger.transactions == 20
        assert bigger.read_fraction == phase.read_fraction


class TestMultiAgentIp:
    def _pipeline(self, sim, buffering=1, items=4):
        node = make_node(sim)
        add_memory(sim, node)
        agent_phase = IptgPhase(transactions=3, burst_beats=Fixed(4),
                                idle_cycles=Fixed(0), read_fraction=0.5)
        specs = [
            AgentSpec("decrypt", agent_phase, items=items,
                      buffering=buffering),
            AgentSpec("decode", agent_phase, items=items,
                      buffering=buffering),
            AgentSpec("resize", agent_phase, items=items),
        ]
        return MultiAgentIp(sim, "video", node, specs, seed=2)

    def test_pipeline_completes(self, sim):
        ip = self._pipeline(sim)
        sim.run(until=50_000_000_000)
        assert ip.done.triggered
        # 3 agents x 4 items x 3 transactions each.
        assert len(ip.transactions) == 36

    def test_downstream_follows_upstream(self, sim):
        ip = self._pipeline(sim)
        sim.run(until=50_000_000_000)
        # The resize agent's first transaction comes after the decode
        # agent's first item finished, which follows decrypt's first item.
        first = {}
        for iptg in ip.iptgs:
            stage = iptg.name.split(".")[1]
            start = min(t.t_issued for t in iptg.transactions)
            first.setdefault(stage, start)
        assert first["decrypt"] < first["decode"] < first["resize"]

    def test_buffering_limits_runahead(self, sim):
        """With buffering=1, decrypt's item k+1 cannot finish before decode
        consumed item k (the slot semaphore throttles the producer)."""
        ip = self._pipeline(sim, buffering=1)
        sim.run(until=50_000_000_000)
        assert ip.done.triggered

    def test_validation(self, sim):
        node = make_node(sim)
        with pytest.raises(ValueError):
            MultiAgentIp(sim, "x", node, [])
        with pytest.raises(ValueError):
            AgentSpec("a", small_phase(), items=0)
