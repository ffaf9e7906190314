"""Netlists: hand-placed components built in document order, and the
reference topology lowered to one."""

import copy
import inspect
import json
from pathlib import Path

import pytest

from repro.check import random_config
from repro.core import Simulator
from repro.platforms import CpuConfig, PlatformConfig
from repro.platforms.loader import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
)
from repro.platforms.netlist import NETLIST_SCHEMA, lower
from repro.platforms.reference import PlatformInstance
from repro.snapshot import golden_configs, resume_checkpoint, take_checkpoint
from repro.snapshot.state import capture_state, state_digest
from repro.sweep import Run, SweepCache, result_to_dict, sweep

EXAMPLE = (Path(__file__).resolve().parents[1] / "examples" / "configs"
           / "single_layer_netlist.json")

#: Every entry kind once: a split bridge in front of an LMI and an
#: on-chip memory, a lottery-arbitrated back node, and one IPTG, DMA and
#: display.
EVERY_KIND = {"netlist": [
    {"kind": "fabric", "name": "front", "width_bytes": 8, "stbus_type": 3},
    {"kind": "fabric", "name": "back", "width_bytes": 8, "stbus_type": 3,
     "arbiter": "lottery", "message_arbitration": False},
    {"kind": "bridge", "name": "hop", "source": "front", "dest": "back",
     "base": 0, "span": 1 << 24, "split": True},
    {"kind": "lmi", "name": "lmi", "fabric": "back", "base": 0,
     "span": 1 << 23},
    {"kind": "onchip", "name": "sram", "fabric": "back", "base": 1 << 23,
     "span": 1 << 23},
    {"kind": "iptg", "name": "ip0", "fabric": "front", "base": 1 << 23,
     "span": 1 << 16, "transactions": 12, "seed": 5, "read_fraction": 0.5},
    {"kind": "dma", "name": "dma0", "fabric": "front", "src": 0x40000,
     "dst": 0x80000, "length": 2048},
    {"kind": "display", "name": "display", "fabric": "back",
     "framebuffer_base": 0x100000, "lines": 4},
]}

MAX_PS = 10**13


@pytest.fixture(scope="module")
def config():
    return config_from_dict(EVERY_KIND)


@pytest.fixture(scope="module")
def direct(config):
    return Run(config, MAX_PS).finish()


class TestDocument:
    def test_round_trips_through_the_loader(self, config):
        document = config_to_dict(config)
        assert set(document) == {"resolution", "energy", "netlist"}
        assert config_from_dict(json.loads(json.dumps(document))) == config

    def test_example_round_trips(self):
        config = load_config(EXAMPLE)
        assert config.label() == "netlist"
        assert config_from_dict(config_to_dict(config)) == config

    def test_reference_document_has_no_netlist_key(self):
        assert "netlist" not in config_to_dict(PlatformConfig())

    @pytest.mark.parametrize("kind", sorted(NETLIST_SCHEMA))
    def test_builder_takes_exactly_the_schema_keys(self, kind):
        builder = getattr(PlatformInstance, f"_{kind}")
        keys = list(inspect.signature(builder).parameters)
        assert keys == ["self", "name", *NETLIST_SCHEMA[kind]]


def _edited(edit):
    document = copy.deepcopy(EVERY_KIND)
    edit(document)
    return document


def _bridge_loop(document):
    """ip0's window only on two bridges that lead to each other."""
    document["netlist"][5]["base"] = 1 << 25
    document["netlist"][3:3] = [
        {"kind": "bridge", "name": name, "source": source, "dest": dest,
         "base": 1 << 25, "span": 1 << 20}
        for name, source, dest in (("up", "back", "front"),
                                   ("down", "front", "back"))]


@pytest.mark.parametrize("document,match", [
    (_edited(lambda d: d["netlist"][5].update(kind="gpu")),
     "netlist: unknown kind 'gpu'"),
    (_edited(lambda d: d["netlist"][5].update(clock_hz=100)),
     r"netlist: iptg 'ip0': unknown keys \['clock_hz'\]"),
    (_edited(lambda d: d["netlist"][2].update(dest="later")),
     "entry 'hop': dest 'later' is not a fabric declared before it"),
    (_edited(lambda d: d["netlist"].insert(0, d["netlist"].pop(3))),
     "entry 'lmi': fabric 'back' is not a fabric declared before it"),
    (_edited(lambda d: d["netlist"][5].update(fabric="sram")),
     "entry 'ip0': fabric 'sram' is not a fabric declared before it"),
    (_edited(lambda d: d["netlist"][6].update(name="ip0")),
     "entry 'ip0': duplicate name"),
    (_edited(lambda d: d.update(protocol="axi")),
     r"cannot be combined with reference-topology keys \['protocol'\]"),
    (_edited(lambda d: d["netlist"][0].update(protocol="axi",
                                               arbiter="lru")),
     "'front'.*STBus nodes only"),
    (_edited(lambda d: d["netlist"][0].update(protocol="ahb",
                                               arbiter="round_robin")),
     "'front'.*STBus nodes only"),
    (_edited(lambda d: d["netlist"][0].update(protocol="wishbone",
                                               message_arbitration=False)),
     "'front'.*STBus nodes only"),
    ({"netlist": []}, "netlist: must be a non-empty list"),
    (_edited(lambda d: d["netlist"][3].update(span=0)),
     r"lmi 'lmi': span must be an integer >= 1, not 0"),
    (_edited(lambda d: d["netlist"][4].update(base=-4096)),
     r"onchip 'sram': base must be an integer >= 0, not -4096"),
    (_edited(lambda d: d["netlist"][4].update(base="0x800000")),
     r"onchip 'sram': base must be an integer >= 0, not '0x800000'"),
    (_edited(lambda d: d["netlist"][4].update(base=1 << 22)),
     r"entry 'sram': window .* overlaps another target's"),
    (_edited(lambda d: d["netlist"][0].update(stbus_type=9)),
     r"fabric 'front': stbus_type must be 1, 2 or 3, not 9"),
    (_edited(lambda d: d["netlist"][0].update(width_bytes=3)),
     r"fabric 'front': width_bytes must be one of"),
    (_edited(lambda d: d["netlist"][0].update(freq_mhz=0)),
     r"fabric 'front': freq_mhz must be a number in \(0, 1e6\]"),
    (_edited(lambda d: d["netlist"][1].update(arbiter="coin")),
     r"fabric 'back': arbiter must be null or one of"),
    (_edited(lambda d: d["netlist"][2].update(split="yes")),
     r"bridge 'hop': split must be true or false, not 'yes'"),
    (_edited(lambda d: d["netlist"][5].update(read_fraction=1.5)),
     r"iptg 'ip0': read_fraction must be a number in \[0, 1\]"),
    (_edited(lambda d: d["netlist"][5].update(max_outstanding=0)),
     r"iptg 'ip0': max_outstanding must be an integer >= 1"),
    (_edited(lambda d: d["netlist"][5].update(transactions=True)),
     r"iptg 'ip0': transactions must be an integer >= 1, not True"),
    (_edited(lambda d: d["netlist"][5].update(fabric=["front"])),
     r"iptg 'ip0': fabric must be a fabric name"),
    (_edited(lambda d: d["netlist"][7].update(lines=0)),
     r"display 'display': lines must be an integer >= 1"),
    (_edited(lambda d: d["netlist"][3].update(span=7)),
     r"entry 'dma0': addresses .* do not lie in one memory's window"),
    (_edited(lambda d: d["netlist"][2].update(span=1 << 23)),
     r"entry 'ip0': addresses .* do not lie in one memory's window"),
    (_edited(lambda d: d["netlist"][7].update(framebuffer_base=1 << 40)),
     r"entry 'display': addresses .* do not lie in one memory's window"),
    (_edited(_bridge_loop),
     r"entry 'ip0': addresses .* do not lie in one memory's window"),
    ({"netlist": [
        {"kind": "fabric", "name": "n"},
        {"kind": "onchip", "name": "m", "fabric": "n", "base": 0, "span": 16},
        {"kind": "iptg", "name": "ip", "fabric": "n", "base": 0, "span": 16,
         "transactions": 3, "seed": 1}]},
     r"entry 'ip': a 32-byte seq burst does not fit its 16-byte window"),
    (_edited(lambda d: d["netlist"][5].update(pattern="strided",
                                               span=8192)),
     r"entry 'ip0': a 64-byte strided burst does not fit its 8192-byte "
     r"window"),
    (_edited(lambda d: d["netlist"].append(
        {"kind": "cpu", "name": "cpu1", "fabric": "front", "base": 0})
        or d["netlist"].append(
        {"kind": "cpu", "name": "cpu2", "fabric": "front", "base": 0})),
     r"entry 'cpu2': a platform has one CPU"),
    (_edited(lambda d: d["netlist"].append(
        {"kind": "cpu", "name": "cpu", "fabric": "front", "base": 0x100})),
     r"entry 'cpu': addresses \[0x1000100, 0x1004100\) do not lie"),
    (_edited(lambda d: d["netlist"][3].update(sdram="ddr")),
     r"lmi 'lmi': sdram must be null or an object of SdramTiming fields"),
    (_edited(lambda d: d["netlist"][3].update(config={"merge_limit": 0})),
     r"lmi 'lmi': config must be null or an object of LmiConfig fields"),
    (_edited(lambda d: d["netlist"][5].update(two_phase={"fraction": 0})),
     r"iptg 'ip0': two_phase must be null or an object of TwoPhaseSpec"),
    (_edited(lambda d: d["netlist"][5].update(beat_bytes=3)),
     r"iptg 'ip0': beat_bytes must be null or one of 1, 2, 4, 8, 16, 32"),
], ids=["unknown-kind", "unknown-key", "forward-reference",
        "out-of-order", "not-a-fabric", "duplicate-name",
        "beside-reference-key", "arbiter-off-stbus", "arbiter-on-ahb",
        "message-arbitration-on-wishbone", "empty", "zero-span",
        "negative-base", "string-base", "overlapping-windows",
        "unknown-stbus-type", "odd-width", "zero-frequency",
        "unknown-arbiter", "non-bool", "fraction-above-one",
        "zero-outstanding", "bool-count", "unhashable-reference",
        "no-lines", "dma-undecoded", "iptg-past-bridge", "display-undecoded",
        "bridge-loop", "burst-wider-than-window", "strided-under-a-stride",
        "two-cpus", "cpu-code-undecoded", "sdram-preset-name",
        "bad-lmi-config", "bad-two-phase", "odd-beat-bytes"])
def test_loader_names_the_bad_entry(document, match):
    with pytest.raises(ConfigError, match=match):
        config_from_dict(document)


class TestRun:
    def test_result_carries_component_metrics(self, direct):
        extra = direct.result.extra
        assert extra["dma0.bytes_moved"] == 2048
        assert extra["display.underruns"] == 0
        assert extra["display.worst_margin_ps"] > 0
        assert extra["ip0.mean_latency_ps"] > 0
        assert direct.result.transactions == 12
        assert set(direct.result.utilization) == {
            "front.request", "front.response", "back.request",
            "back.response"}

    def test_bit_identical_on_every_path(self, config, direct, tmp_path):
        """Pooled, cached and checkpoint-resumed runs all equal the
        direct one."""
        cache = SweepCache(tmp_path)
        points = [config, config.scaled(resolution="lt")]
        for cached in (False, True):
            outcome = sweep(points, max_ps=MAX_PS, jobs=2, cache=cache)[0]
            assert outcome.cached is cached
            assert (outcome.result, outcome.events, outcome.sim_time_ps) \
                == (direct.result, direct.events, direct.sim_time_ps)
        taken = take_checkpoint(config, fraction=0.5, max_ps=MAX_PS)
        resumed = resume_checkpoint(taken.checkpoint)
        assert resumed.ok, resumed.format()
        assert resumed.result == direct.result
        assert resumed.final_events == direct.events


#: The golden corpus entries that describe the reference topology.
REFERENCE_GOLDENS = sorted(name for name, (config, _) in
                           golden_configs().items() if not config.netlist)


def _outcome(config, bound):
    """Result document, processed events and final state digest."""
    sim = Simulator()
    platform = PlatformInstance(sim, config)
    result = result_to_dict(platform.run(max_ps=bound))
    return result, sim.processed_events, state_digest(capture_state(platform))


class TestLower:
    @pytest.mark.parametrize("name", REFERENCE_GOLDENS)
    def test_lowered_document_runs_like_the_reference(self, name):
        """A lowered reference is a valid user document: it round-trips
        through the loader and runs bit-identical, apart from the label
        and the rows each kind of platform reports."""
        config, bound = golden_configs()[name]
        lowered = PlatformConfig(netlist=lower(config),
                                 resolution=config.resolution,
                                 energy=config.energy)
        document = json.loads(json.dumps(config_to_dict(lowered)))
        assert config_from_dict(document) == lowered
        (reference, events, state), (netlist, net_events, net_state) = (
            _outcome(config, bound),
            _outcome(config_from_dict(document), bound))
        assert (net_events, net_state) == (events, state)
        assert (reference.pop("label"), netlist.pop("label")) \
            == (config.label(), "netlist")
        rows, net_rows = reference.pop("extra"), netlist.pop("extra")
        assert netlist == reference
        assert all(key.startswith(("cpu_", "lmi_")) for key in rows)
        assert sorted(net_rows) == sorted(
            f"{entry.name}.mean_latency_ps" for entry in lowered.netlist
            if entry.kind == "iptg")

    def test_order_names_and_windows(self):
        config = golden_configs()["fig5_collapsed_axi"][0]
        entries = lower(config.scaled(cpu=CpuConfig()))
        assert [entry.name for entry in entries[:4]] == [
            "central", "lmi_node", "lmi", "to_lmi"]
        ips = [dict(entry.params) for entry in entries
               if entry.kind == "iptg"]
        assert [ip["seed"] for ip in ips] == [
            config.seed * 1000 + i for i in range(1, len(ips) + 1)]
        assert [ip["base"] - ips[0]["base"] for ip in ips] == [
            i << 20 for i in range(len(ips))]
        assert {ip["fabric"] for ip in ips} == {"central"}
        assert entries[-1].kind == "cpu" and entries[-1].name == "st220"

    def test_random_configs_lower_to_valid_documents(self):
        """Every value lower() emits passes the loader's key checks and
        check_netlist, on every protocol and topology the seeds draw."""
        for seed in range(400):
            lowered = PlatformConfig(netlist=lower(random_config(seed)))
            assert config_from_dict(config_to_dict(lowered)) == lowered
