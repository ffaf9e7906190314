"""Tests for the JSON platform-configuration loader."""

import json

import pytest

from repro.interconnect import StbusType
from repro.platforms import PlatformConfig, quick_config
from repro.platforms.loader import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)

MINIMAL = {
    "protocol": "axi",
    "topology": "collapsed",
    "traffic_scale": 0.5,
}

FULL = {
    "protocol": "stbus",
    "topology": "distributed",
    "memory": {
        "kind": "lmi",
        "lmi": {"input_fifo_depth": 4, "lookahead_depth": 2},
        "sdram": "sdr",
    },
    "cpu": {"enabled": False},
    "two_phase": {"fraction": 0.5, "idle_multiplier": 4.0, "burst_run": 10},
    "clusters": [
        {"name": "video", "freq_mhz": 200, "data_width_bytes": 8,
         "stbus_type": 3,
         "ips": [
             {"name": "dec", "transactions": 50, "burst_beats": 8,
              "read_fraction": 0.9, "idle_cycles": 4,
              "message_packets": 2},
         ]},
    ],
}


class TestFromDict:
    def test_minimal(self):
        config = config_from_dict(MINIMAL)
        assert config.protocol == "axi"
        assert config.topology == "collapsed"
        assert config.traffic_scale == 0.5
        assert len(config.clusters) == 5  # defaults filled in

    def test_full_document(self):
        config = config_from_dict(FULL)
        assert config.memory.kind == "lmi"
        assert config.memory.lmi.input_fifo_depth == 4
        assert config.memory.sdram.beats_per_clock == 1  # the SDR preset
        assert not config.cpu.enabled
        assert config.two_phase.burst_run == 10
        assert config.clusters[0].stbus_type is StbusType.T3
        assert config.clusters[0].ips[0].message_packets == 2

    def test_unknown_key_rejected(self):
        for key in ("warp_drive", "abstraction"):
            with pytest.raises(ConfigError, match=f"unknown keys.*{key}"):
                config_from_dict({"protocol": "stbus", key: "tlm"})

    def test_unknown_nested_key_rejected(self):
        doc = {"memory": {"kind": "lmi", "lmi": {"bogus": 1}}}
        with pytest.raises(ConfigError, match="memory.lmi"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match="energy"):
            config_from_dict({"energy": {"tlm_pj_per_beat": 5.6}})

    def test_unknown_sdram_preset_rejected(self):
        with pytest.raises(ConfigError, match="preset"):
            config_from_dict({"memory": {"sdram": "hbm3"}})

    def test_cluster_needs_ips(self):
        doc = {"clusters": [{"name": "x", "freq_mhz": 100,
                             "data_width_bytes": 4, "stbus_type": 2}]}
        with pytest.raises(ConfigError, match="ips"):
            config_from_dict(doc)

    def test_invalid_values_propagate(self):
        with pytest.raises(ValueError):
            config_from_dict({"protocol": "pci"})


class TestRoundTrip:
    def test_dict_round_trip(self):
        config = config_from_dict(FULL)
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_default_config_round_trips(self):
        config = PlatformConfig()
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config

    def test_file_round_trip(self, tmp_path):
        config = quick_config(protocol="ahb")
        path = tmp_path / "platform.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_saved_file_is_valid_json(self, tmp_path):
        path = tmp_path / "platform.json"
        save_config(PlatformConfig(), path)
        document = json.loads(path.read_text())
        assert document["protocol"] == "stbus"
        assert isinstance(document["clusters"], list)

    def test_experiment_instances_round_trip(self):
        """Every sweep-worker config (nested StbusType enums included)
        must survive the dict round trip the pool ships it through."""
        from repro.experiments.fig3_platform_instances import fig3_instances
        from repro.experiments.fig5_lmi_platforms import fig5_instances

        instances = {}
        instances.update(fig3_instances(traffic_scale=0.5))
        instances.update(fig5_instances(traffic_scale=0.5))
        for name, config in instances.items():
            rebuilt = config_from_dict(config_to_dict(config))
            assert rebuilt == config, name
            assert all(c.stbus_type is StbusType(c.stbus_type)
                       for c in rebuilt.clusters)

    def test_sdram_preset_objects_round_trip(self):
        from repro.memory.timing import TIMING_PRESETS
        from repro.platforms.config import MemoryConfig

        for name, timing in TIMING_PRESETS.items():
            config = PlatformConfig(
                memory=MemoryConfig(kind="lmi", sdram=timing))
            rebuilt = config_from_dict(config_to_dict(config))
            assert rebuilt == config, name
            assert rebuilt.memory.sdram == timing


class TestLoadErrors:
    def test_missing_file_is_config_error(self, tmp_path):
        # Regression: a missing path used to escape as FileNotFoundError.
        with pytest.raises(ConfigError, match="nosuch.json"):
            load_config(tmp_path / "nosuch.json")

    def test_directory_path_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="top level"):
            load_config(path)


class TestEndToEnd:
    def test_loaded_config_runs(self, tmp_path):
        from repro.core import Simulator
        from repro.platforms import build_platform

        doc = dict(FULL)
        doc["memory"] = {"kind": "onchip", "wait_states": 1}
        doc["two_phase"] = None
        path = tmp_path / "platform.json"
        path.write_text(json.dumps(doc))
        config = load_config(path)
        sim = Simulator()
        result = build_platform(sim, config).run(max_ps=10**13)
        assert result.transactions > 0
