"""The declarative protocol registry, and what a registry row must come
with: an energy coefficient field and an engine that serialises its
protocol state."""

import dataclasses

import pytest

from repro.core import Simulator
from repro.interconnect import (
    AhbLayer,
    AxiFabric,
    PROTOCOLS,
    StbusNode,
    StbusType,
    get_spec,
    platform_protocols,
    register_protocol,
    spec_for_fabric,
)
from repro.interconnect.base import Fabric
from repro.interconnect.crossbar import StbusCrossbar
from repro.interconnect.generic import GenericFabric
from repro.obs.energy import EnergyConfig

from .helpers import make_registered_fabric, make_spec_node

#: Per-fabric energy coefficient under the default ``EnergyConfig``: the
#: ten registered protocols and the STBus crossbar (a T3 node).
DEFAULT_PJ_PER_BEAT = {
    "stbus_t1": 4.2, "stbus_t2": 5.6, "stbus_t3": 6.8, "ahb": 5.0,
    "axi": 7.5, "wishbone": 3.8, "apb": 2.4, "axi4lite": 4.6,
    "avalon": 4.0, "tilelink": 4.4, "stbus-xbar": 6.8,
}


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
            protocol = "ahb"  # a label alone no longer resolves

        with pytest.raises(ValueError, match="no registered spec"):
            spec_for_fabric(Alien())


class TestCoverage:
    """One test per fact a registry row must come with; each fails on a
    planted defect (the ``*_fails`` tests plant one)."""

    def test_every_spec_has_a_pj_per_beat_field(self):
        cfg = EnergyConfig()
        missing = [name for name in PROTOCOLS
                   if not hasattr(cfg, f"{name}_pj_per_beat")]
        assert missing == [], \
            f"EnergyConfig has no <name>_pj_per_beat field for {missing}"

    def test_a_spec_without_a_coefficient_field_fails(self, monkeypatch):
        monkeypatch.setitem(PROTOCOLS, "maybus", dataclasses.replace(
            get_spec("wishbone"), name="maybus"))
        with pytest.raises(AssertionError, match="maybus"):
            self.test_every_spec_has_a_pj_per_beat_field()

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_engine_serialises_protocol_state(self, name):
        engine = type(make_spec_node(Simulator(), name))
        assert engine.snapshot_state is not Fabric.snapshot_state, \
            f"{engine.__name__} does not override snapshot_state"

    def test_an_engine_without_snapshot_state_fails(self, monkeypatch):
        monkeypatch.setattr(AhbLayer, "snapshot_state", Fabric.snapshot_state)
        with pytest.raises(AssertionError, match="AhbLayer"):
            self.test_engine_serialises_protocol_state("ahb")


class TestEnergyResolution:
    @pytest.mark.parametrize("name", sorted(DEFAULT_PJ_PER_BEAT))
    def test_every_fabric_keeps_its_coefficient(self, name):
        fabric = make_registered_fabric(Simulator(), name)
        assert EnergyConfig().fabric_pj_per_beat(fabric) \
            == DEFAULT_PJ_PER_BEAT[name]

    def test_unregistered_fallback(self):
        """Only the spec a fabric carries resolves; one without a spec is
        charged the STBus Type 2 coefficient."""
        from types import SimpleNamespace

        cfg = EnergyConfig(ahb_pj_per_beat=1.25, stbus_t2_pj_per_beat=2.5)
        ahb = SimpleNamespace(name="a", protocol="ahb", spec=get_spec("ahb"))
        assert cfg.fabric_pj_per_beat(ahb) == 1.25
        label_only = SimpleNamespace(name="c", protocol="ahb")
        assert cfg.fabric_pj_per_beat(label_only) == 2.5
