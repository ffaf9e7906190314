"""The declarative protocol registry and its completeness lint."""

import dataclasses

import pytest

from repro.check.monitors import covered_protocols
from repro.check.registry_lint import lint_registry
from repro.core import Simulator
from repro.interconnect import (
    AhbLayer,
    AxiFabric,
    PROTOCOLS,
    ProtocolSpec,
    StbusNode,
    StbusType,
    get_spec,
    platform_protocols,
    register_protocol,
    spec_for_fabric,
)
from repro.interconnect.crossbar import StbusCrossbar
from repro.interconnect.generic import GenericFabric
from repro.obs.energy import EnergyConfig


class TestRegistryContents:
    def test_all_ten_protocols_registered(self):
        assert sorted(PROTOCOLS) == [
            "ahb", "apb", "avalon", "axi", "axi4lite",
            "stbus_t1", "stbus_t2", "stbus_t3",
            "tilelink", "wishbone",
        ]

    def test_platform_keys_cover_cli_protocols(self):
        keys = platform_protocols()
        assert keys[:3] == ("stbus", "ahb", "axi")  # legacy order stable
        for new in ("wishbone", "apb", "axi4lite", "avalon", "tilelink"):
            assert new in keys
        # every registered spec is reachable as a platform bus
        assert {s.platform_key for s in PROTOCOLS.values()} == set(keys)

    def test_stbus_capability_ladder(self):
        t1, t2, t3 = (get_spec(f"stbus_t{n}") for n in (1, 2, 3))
        assert not t1.split and not t1.posted_writes
        assert t2.split and t2.posted_writes and not t2.response_interleave
        assert t3.split and t3.response_interleave

    def test_single_beat_protocols(self):
        assert get_spec("apb").single_beat
        assert get_spec("axi4lite").single_beat
        assert get_spec("tilelink").single_beat
        assert not get_spec("wishbone").single_beat
        assert not get_spec("avalon").single_beat


class TestRegistryApi:
    def test_get_spec_unknown_lists_registered(self):
        with pytest.raises(ValueError, match="wishbone"):
            get_spec("pcie")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol(get_spec("ahb"))

    def test_spec_validation_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            dataclasses.replace(get_spec("wishbone"), engine="verilog")

    def test_fabric_labels(self):
        assert get_spec("stbus_t2").fabric_label == "stbus"
        assert get_spec("ahb").fabric_label == "ahb"
        assert get_spec("wishbone").fabric_label == "wishbone"


class TestSpecForFabric:
    def test_resolves_every_engine(self):
        sim = Simulator()
        clk = sim.clock(freq_mhz=200, name="clk")
        assert spec_for_fabric(
            StbusNode(sim, "n1", clk, bus_type=StbusType.T1)).name \
            == "stbus_t1"
        assert spec_for_fabric(
            StbusCrossbar(sim, "nx", clk, bus_type=StbusType.T3)).name \
            == "stbus_t3"
        assert spec_for_fabric(AhbLayer(sim, "n2", clk)).name == "ahb"
        assert spec_for_fabric(AxiFabric(sim, "n3", clk)).name == "axi"
        assert spec_for_fabric(
            GenericFabric(sim, "n5", clk, get_spec("avalon"))).name \
            == "avalon"

    def test_unregistered_fabric_rejected(self):
        class Alien:
            protocol = "alien"

        with pytest.raises(ValueError, match="alien"):
            spec_for_fabric(Alien())


class TestCoverage:
    def test_lint_is_clean(self):
        assert lint_registry() == []

    def test_every_spec_has_an_energy_coefficient(self):
        cfg = EnergyConfig()
        for spec in PROTOCOLS.values():
            assert hasattr(cfg, spec.energy_coefficient), spec.name

    def test_every_label_has_a_beat_rule(self):
        covered = covered_protocols()
        for spec in PROTOCOLS.values():
            assert spec.fabric_label in covered, spec.name

    def test_lint_reports_missing_cells(self, monkeypatch):
        broken = dataclasses.replace(
            get_spec("wishbone"), name="maybus",
            energy_coefficient="maybus_pj_per_beat",
            beat_rule="maybus.order")
        monkeypatch.setitem(PROTOCOLS, "maybus", broken)
        problems = lint_registry()
        assert any("maybus" in p and "coefficient" in p for p in problems)
        assert any("maybus" in p and "beat rule" in p for p in problems)

    def test_lint_reports_rule_mismatch(self, monkeypatch):
        skewed = dataclasses.replace(get_spec("wishbone"),
                                     beat_rule="wishbone.wrong_rule")
        monkeypatch.setitem(PROTOCOLS, "wishbone", skewed)
        problems = lint_registry()
        assert any("does not match" in p for p in problems)


class TestEnergyResolution:
    def test_generic_fabrics_resolve_spec_coefficient(self):
        sim = Simulator()
        clk = sim.clock(freq_mhz=200, name="clk")
        cfg = EnergyConfig()
        for name in ("wishbone", "apb", "axi4lite", "avalon", "tilelink"):
            fabric = GenericFabric(sim, f"f_{name}", clk, get_spec(name))
            assert cfg.fabric_pj_per_beat(fabric) == getattr(
                cfg, f"{name}_pj_per_beat")

    def test_legacy_resolution_unchanged(self):
        sim = Simulator()
        clk = sim.clock(freq_mhz=200, name="clk")
        cfg = EnergyConfig()
        node = StbusNode(sim, "n", clk, bus_type=StbusType.T1)
        assert cfg.fabric_pj_per_beat(node) == cfg.stbus_t1_pj_per_beat
        ahb = AhbLayer(sim, "a", clk)
        assert cfg.fabric_pj_per_beat(ahb) == cfg.ahb_pj_per_beat

    def test_protocol_label_and_unregistered_fallback(self):
        """Fabrics without a ``spec`` resolve like ``spec_for_fabric``
        does, by protocol label; one no spec describes is charged the
        STBus Type 2 coefficient."""
        from types import SimpleNamespace

        cfg = EnergyConfig(ahb_pj_per_beat=1.25, stbus_t2_pj_per_beat=2.5)
        ahb = SimpleNamespace(name="a", protocol="ahb")
        assert cfg.fabric_pj_per_beat(ahb) == 1.25
        custom = SimpleNamespace(name="c", protocol="custom")
        assert cfg.fabric_pj_per_beat(custom) == 2.5
