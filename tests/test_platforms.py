"""Tests for platform configuration and elaboration."""

import pytest

from repro.bridge.base import BridgeBase
from repro.core import Simulator
from repro.obs import capture
from repro.platforms import (
    ClusterSpec,
    CpuConfig,
    IpSpec,
    MemoryConfig,
    PlatformConfig,
    build_platform,
    quick_config,
    reference_clusters,
)
from repro.platforms.config import TwoPhaseSpec


class TestConfigValidation:
    def test_defaults_fill_reference_clusters(self):
        config = PlatformConfig()
        assert len(config.clusters) == 5
        names = [c.name for c in config.clusters]
        assert "n5_dma" in names  # the heavily congested cluster

    def test_bad_protocol(self):
        with pytest.raises(ValueError):
            PlatformConfig(protocol="pcie")

    def test_registry_protocols_accepted(self):
        # Every registry platform key elaborates into a valid config.
        for protocol in ("wishbone", "apb", "axi4lite", "avalon", "tilelink"):
            assert PlatformConfig(protocol=protocol).protocol == protocol

    def test_bad_topology(self):
        with pytest.raises(ValueError):
            PlatformConfig(topology="ring")

    def test_bad_traffic_scale(self):
        with pytest.raises(ValueError):
            PlatformConfig(traffic_scale=0)

    def test_memory_config_validation(self):
        with pytest.raises(ValueError):
            MemoryConfig(kind="hbm")
        with pytest.raises(ValueError):
            MemoryConfig(wait_states=-1)

    def test_ip_spec_validation(self):
        with pytest.raises(ValueError):
            IpSpec("x", pattern="zigzag")
        with pytest.raises(ValueError):
            ClusterSpec("c", 100, 4, 2, ips=())

    def test_two_phase_validation(self):
        with pytest.raises(ValueError):
            TwoPhaseSpec(fraction=0)
        with pytest.raises(ValueError):
            TwoPhaseSpec(idle_multiplier=0.5)

    def test_bridges_split_follows_protocol(self):
        assert PlatformConfig(protocol="stbus").bridges_split
        assert not PlatformConfig(protocol="axi").bridges_split
        forced = PlatformConfig(protocol="axi", bridge_split_override=True)
        assert forced.bridges_split

    def test_label_and_scaled(self):
        config = PlatformConfig(protocol="ahb", topology="collapsed")
        assert config.label() == "ahb/collapsed"
        rescaled = config.scaled(traffic_scale=2.0)
        assert rescaled.traffic_scale == 2.0
        assert rescaled.protocol == "ahb"


class TestElaboration:
    @pytest.mark.parametrize("protocol", ["stbus", "ahb", "axi"])
    @pytest.mark.parametrize("topology", ["distributed", "collapsed"])
    def test_builds_all_variants(self, protocol, topology):
        config = quick_config(protocol=protocol, topology=topology)
        with capture():
            platform = build_platform(Simulator(), config)
        assert platform.monitor is not None
        expected_ips = sum(len(c.ips) for c in config.clusters)
        assert len(platform.iptgs) == expected_ips
        if topology == "collapsed":
            assert len(platform.fabrics) == 1  # just the central node
        else:
            assert len(platform.fabrics) == 1 + len(config.clusters)

    def test_stbus_lmi_needs_no_bridge(self):
        sim = Simulator()
        config = quick_config(protocol="stbus",
                              memory=MemoryConfig(kind="lmi"),
                              topology="collapsed")
        platform = build_platform(sim, config)
        assert platform.lmi is not None
        # Native STBus interface: nothing between the node and the LMI.
        assert not [c for c in platform.iter_tree()
                    if isinstance(c, BridgeBase)]

    def test_axi_lmi_gets_converter(self):
        sim = Simulator()
        config = quick_config(protocol="axi",
                              memory=MemoryConfig(kind="lmi"),
                              topology="collapsed")
        platform = build_platform(sim, config)
        assert platform.lmi is not None
        assert any(isinstance(c, BridgeBase) and c.name == "to_lmi"
                   for c in platform.iter_tree())

    def test_cpu_subsystem_present_when_enabled(self):
        sim = Simulator()
        config = quick_config(cpu=CpuConfig(enabled=True, blocks=20))
        platform = build_platform(sim, config)
        assert platform.cpu is not None


class TestExecution:
    def test_run_produces_result(self):
        sim = Simulator()
        platform = build_platform(sim, quick_config())
        result = platform.run(max_ps=1_000_000_000_000)
        assert result.execution_time_ps > 0
        assert result.transactions > 0
        assert result.bytes_transferred > 0
        assert result.utilization

    def test_unfinished_run_raises(self):
        sim = Simulator()
        platform = build_platform(sim, quick_config())
        with pytest.raises(RuntimeError):
            platform.run(max_ps=10)  # absurdly short budget

    def test_deterministic_execution_time(self):
        def run_once():
            sim = Simulator()
            platform = build_platform(sim, quick_config())
            return platform.run(max_ps=10**12).execution_time_ps

        assert run_once() == run_once()

    def test_different_seed_different_schedule(self):
        def run_with(seed):
            sim = Simulator()
            platform = build_platform(sim, quick_config(seed=seed))
            return platform.run(max_ps=10**12).execution_time_ps

        assert run_with(1) != run_with(99)

    def test_crossbar_central_no_gain_when_memory_centric(self):
        """Guideline 2: with a single centralized slave, a crossbar node
        performs like the shared bus — the slave bounds performance."""
        def exec_time(central_crossbar):
            sim = Simulator()
            config = quick_config(protocol="stbus", topology="collapsed",
                                  central_crossbar=central_crossbar)
            return build_platform(sim, config).run(
                max_ps=10**13).execution_time_ps

        shared, crossbar = exec_time(False), exec_time(True)
        assert crossbar == pytest.approx(shared, rel=0.1)

    def test_two_phase_traffic_runs(self):
        config = quick_config(
            two_phase=TwoPhaseSpec(fraction=0.5, idle_multiplier=4))
        with capture():
            platform = build_platform(Simulator(), config)
        platform.run(max_ps=10**13)
        report = platform.monitor.report()
        assert "phase2" in report
