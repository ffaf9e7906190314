"""The DSE subsystem end to end: spaces, cost, optimizer, CLI, exports.

The search *core* invariants are property-tested in
``test_dse_properties.py``; this module pins the subsystem around it:

* spec parsing errors are loud and name the offending key;
* the named axes translate into exactly the documented config overrides;
* the wire-cost model orders topologies the obvious way (crossbar >
  shared, deeper FIFOs cost bits);
* the optimizer front is deterministic across reruns, worker counts and
  cache states, and the ``check_smoke`` differential test pins it
  against an independent exhaustive grid search with its own naive
  front computation;
* ``repro dse`` runs the bundled example spec and exports through the
  obs exporters.

The tiny seeded searches double as the ``dse_smoke`` CI tier.
"""

import dataclasses
import json

import pytest

from repro.bridge.matrix import conversion_plan

from repro.dse import (
    OptimizerOptions,
    dominates,
    explore,
    front_csv,
    front_json,
    front_rows,
    front_table,
    load_dse,
    optimize,
    parse_dse,
    platform_cost,
    wire_cost,
)
from repro.dse.cost import _LOOKAHEAD_ENTRY_BITS
from repro.dse.objectives import OBJECTIVES, drift_bounds, resolve_objectives
from repro.interconnect.protocols import get_spec, spec_for_platform
from repro.platforms.loader import ConfigError, config_from_dict

_BASE = {
    "protocol": "stbus",
    "topology": "collapsed",
    "traffic_scale": 0.05,
    "cpu": {"enabled": False},
}


def tiny_document(**overrides):
    document = {
        "base": dict(_BASE),
        "max_us": 20_000.0,
        "axes": {
            "topology": ["shared", "crossbar"],
            "memory.wait_states": [1, 4],
        },
        "objectives": ["latency", "utilization", "cost"],
        "optimizer": {"seed": 1, "cache": False},
    }
    document.update(overrides)
    return document


class TestSpecParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_dse(tiny_document(grid={}))

    def test_axes_required_and_non_empty(self):
        with pytest.raises(ConfigError, match="axes"):
            parse_dse({"base": dict(_BASE)})
        with pytest.raises(ConfigError, match="axes"):
            parse_dse(tiny_document(axes={}))

    def test_bad_axis_values_are_named(self):
        bad = tiny_document(axes={"topology": ["shared", "mesh"]})
        with pytest.raises(ConfigError, match="mesh"):
            parse_dse(bad)
        bad = tiny_document(axes={"fifo_depth": [0]})
        with pytest.raises(ConfigError, match="fifo_depth"):
            parse_dse(bad)
        bad = tiny_document(axes={"protocol": ["pcie"]})
        with pytest.raises(ConfigError, match="pcie"):
            parse_dse(bad)
        bad = tiny_document(axes={"arbitration": ["tdma"]})
        with pytest.raises(ConfigError, match="tdma"):
            parse_dse(bad)

    def test_duplicate_axis_values_rejected(self):
        bad = tiny_document(axes={"memory.wait_states": [1, 1]})
        with pytest.raises(ConfigError, match="duplicate"):
            parse_dse(bad)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="watts"):
            parse_dse(tiny_document(objectives=["latency", "watts"]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e303])
    def test_non_finite_max_us_rejected(self, value):
        with pytest.raises(ConfigError, match="dse.max_us"):
            parse_dse(tiny_document(max_us=value))

    def test_unknown_optimizer_key_rejected(self):
        spec = parse_dse(tiny_document(optimizer={"sede": 1}))
        with pytest.raises(ConfigError, match="sede"):
            OptimizerOptions.from_mapping(spec.optimizer)

    def test_fully_conflicting_space_rejected(self):
        bad = tiny_document(axes={"topology": ["crossbar"],
                                  "protocol": ["ahb"]})
        with pytest.raises(ConfigError, match="no valid candidate"):
            parse_dse(bad)

    def test_dotted_axis_typo_surfaces_at_parse_time(self):
        bad = tiny_document(axes={"memory.wate_states": [1, 2]})
        with pytest.raises(ConfigError):
            parse_dse(bad)

    def test_load_dse_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="missing.json"):
            load_dse(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_dse(bad)
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_dse(bad)


class TestAxisTranslation:
    def _document(self, axes, candidate, base=None):
        spec = parse_dse(tiny_document(axes=axes,
                                       **({"base": base} if base else {})))
        return spec.space.document(candidate)

    def test_topology_axis(self):
        axes = {"topology": ["shared", "partial", "crossbar"]}
        shared = self._document(axes, (0,))
        assert (shared["topology"], shared["central_crossbar"]) == \
            ("collapsed", False)
        partial = self._document(axes, (1,))
        assert (partial["topology"], partial["central_crossbar"]) == \
            ("distributed", False)
        crossbar = self._document(axes, (2,))
        assert (crossbar["topology"], crossbar["central_crossbar"]) == \
            ("collapsed", True)

    def test_arbitration_axis(self):
        axes = {"arbitration": ["message", "packet"]}
        assert self._document(axes, (0,))["message_arbitration"] is True
        assert self._document(axes, (1,))["message_arbitration"] is False

    def test_fifo_depth_targets_memory_kind(self):
        axes = {"fifo_depth": [2, 8]}
        onchip = self._document(axes, (1,))
        assert onchip["memory"]["request_depth"] == 8
        assert onchip["memory"]["response_depth"] == 8
        lmi_base = dict(_BASE, memory={"kind": "lmi"})
        lmi = self._document(axes, (1,), base=lmi_base)
        assert lmi["memory"]["lmi"]["input_fifo_depth"] == 8
        assert lmi["memory"]["lmi"]["output_fifo_depth"] == 8
        assert "request_depth" not in lmi["memory"]

    def test_fifo_depth_follows_a_memory_kind_axis(self):
        """The depth translator must see the *final* memory kind, even
        when the kind itself is another axis applied in the same
        candidate."""
        axes = {"memory.kind": ["onchip", "lmi"], "fifo_depth": [2, 8]}
        doc = self._document(axes, (1, 1))
        assert doc["memory"]["lmi"]["input_fifo_depth"] == 8
        assert "request_depth" not in doc["memory"]

    def test_lookahead_requires_lmi(self):
        spec = parse_dse(tiny_document(
            base=dict(_BASE, memory={"kind": "lmi"}),
            axes={"lookahead": [1, 8]}))
        doc = spec.space.document((1,))
        assert doc["memory"]["lmi"]["lookahead_depth"] == 8
        with pytest.raises(ConfigError, match="no valid candidate"):
            parse_dse(tiny_document(axes={"lookahead": [1, 8]}))
        onchip_spec = parse_dse(tiny_document(
            axes={"memory.kind": ["onchip", "lmi"], "lookahead": [1, 8]}))
        conflict = onchip_spec.space.conflict((0, 0))
        assert conflict is not None and "lookahead" in conflict

    def test_crossbar_requires_stbus(self):
        spec = parse_dse(tiny_document(
            axes={"topology": ["shared", "crossbar"],
                  "protocol": ["stbus", "ahb"]}))
        labels = [spec.space.label(c) for c in spec.space.candidates()]
        assert "topology=crossbar,protocol=ahb" not in labels
        assert "topology=crossbar,protocol=stbus" in labels
        assert len(labels) == 3

    def test_every_candidate_elaborates(self):
        spec = parse_dse(tiny_document())
        for candidate in spec.space.candidates():
            config_from_dict(spec.space.document(candidate))


class TestWireCost:
    def test_crossbar_costs_more_than_shared(self):
        shared = wire_cost("stbus", 4, 2, 8)
        crossbar = wire_cost("stbus", 4, 2, 8, crossbar=True)
        assert crossbar > shared

    def test_monotone_in_ports_and_width(self):
        assert wire_cost("axi", 4, 1) > wire_cost("axi", 2, 1)
        assert wire_cost("axi", 2, 1, 8) > wire_cost("axi", 2, 1, 4)
        with pytest.raises(ValueError):
            wire_cost("axi", 0, 1)

    def test_platform_cost_orders_the_topology_axis(self):
        spec = parse_dse(tiny_document(
            axes={"topology": ["shared", "partial", "crossbar"]}))
        shared, partial, crossbar = (
            platform_cost(spec.space.config((i,))) for i in range(3))
        assert crossbar > shared   # the switch matrix costs wires
        assert partial > shared    # bridges + per-cluster nodes cost wires

    def test_fifo_depth_costs_bits(self):
        spec = parse_dse(tiny_document(axes={"fifo_depth": [1, 8]}))
        assert platform_cost(spec.space.config((1,))) > \
            platform_cost(spec.space.config((0,)))


class TestPlatformCost:
    """``platform_cost`` prices the netlist the builder builds,
    ``config.netlist or lower(config)``, one component at a time."""

    def test_crossbar_example_prices_as_before(self):
        # CPU off, on-chip STBus memory: nothing the netlist adds to the
        # reference keys, so every candidate keeps its price.
        spec = load_dse("examples/configs/dse_crossbar.json")
        costs = [platform_cost(spec.space.config(candidate))
                 for candidate in spec.space.candidates()]
        assert costs == [2624, 2624, 3008, 3008, 6036, 6036, 6420, 6420,
                         4912, 4912, 5296, 5296]

    def test_distributed_cpu_prices_its_layer_and_bridge(self):
        def config(cpu):
            return config_from_dict({"protocol": "axi",
                                     "topology": "distributed",
                                     "cpu": {"enabled": cpu}})

        with_cpu = config(True)
        width = with_cpu.central_width_bytes
        axi = spec_for_platform("axi")
        # The ST220's 32-bit layer (one initiator, one target), its bridge
        # to the central node, and the central node's extra initiator.
        extra = (wire_cost("axi", 1, 1, 4)
                 + conversion_plan(axi, axi).wire_bits(4, width)
                 + axi.wire_bits(width))
        assert platform_cost(with_cpu) == platform_cost(config(False)) + extra

    def test_non_stbus_lmi_prices_lmi_node_and_converter(self):
        config = config_from_dict({"protocol": "axi",
                                   "topology": "collapsed",
                                   "memory": {"kind": "lmi"},
                                   "cpu": {"enabled": False}})
        width = config.central_width_bytes
        initiators = sum(len(cluster.ips) for cluster in config.clusters)
        lmi = config.memory.lmi
        # The central node's one target is the to_lmi converter into the
        # 8-byte STBus lmi_node, whose one target is the LMI; the LMI's
        # FIFOs hold words of the lmi_node.
        assert platform_cost(config) == (
            wire_cost("axi", initiators, 1, width)
            + wire_cost("stbus", 1, 1, 8, stbus_type=3)
            + conversion_plan(spec_for_platform("axi"), get_spec("stbus_t3"))
            .wire_bits(width, 8)
            + 64 * (lmi.input_fifo_depth + lmi.output_fifo_depth)
            + _LOOKAHEAD_ENTRY_BITS * lmi.lookahead_depth)

    def test_netlist_config_is_priced_from_its_entries(self):
        with open("examples/configs/single_layer_netlist.json") as handle:
            config = config_from_dict(json.load(handle))
        # One 4-byte STBus T2 layer with eight IPTGs and one memory (one
        # request and two response slots).
        expected = wire_cost("stbus", 8, 1, 4, stbus_type=2) + 32 * (1 + 2)
        assert platform_cost(config) == expected
        # Reference keys the netlist does not use change nothing.
        unused = dataclasses.replace(config, central_width_bytes=16,
                                     central_crossbar=True)
        assert platform_cost(unused) == expected


class TestObjectives:
    def test_registry_names_are_stable(self):
        assert {"latency", "execution_time", "utilization", "energy",
                "edp", "cost"} <= set(OBJECTIVES)

    def test_resolve_rejects_duplicates(self):
        with pytest.raises(ValueError, match="twice"):
            resolve_objectives(["latency", "latency"])

    def test_drift_bounds_margin_must_widen(self):
        objectives = resolve_objectives(["latency", "utilization"])
        with pytest.raises(ValueError, match="margin"):
            drift_bounds(objectives, margin=0.5)
        doubled = drift_bounds(objectives, margin=2.0)
        single = drift_bounds(objectives, margin=1.0)
        assert all(d[1] == 2 * s[1] for d, s in zip(doubled, single))
        assert [kind for kind, _ in single] == ["rel", "abs"]


def _naive_grid_front(space, objectives, max_ps):
    """An independent exhaustive grid search: every valid candidate is
    simulated directly (no sweep engine, no archive) and the front is
    computed with its own n^2 scan."""
    from repro.core import Simulator
    from repro.platforms import build_platform

    rows = []
    for candidate in space.candidates():
        config = space.config(candidate)
        sim = Simulator()
        platform = build_platform(sim, config)
        result = platform.run(max_ps=max_ps)
        vector = tuple(obj.extract(result, config) for obj in objectives)
        rows.append((space.label(candidate), vector))
    front = []
    for label, vector in rows:
        if not any(dominates(other, vector) for _, other in rows):
            front.append((label, vector))
    return sorted(front, key=lambda item: (item[1], item[0]))


@pytest.mark.dse_smoke
class TestOptimizer:
    def test_exhaustive_mode_on_small_space(self):
        outcome = explore(parse_dse(tiny_document()))
        assert outcome.mode == "exhaustive"
        assert outcome.space_size == 4
        assert len(outcome.evaluated) == 4
        assert outcome.violations == ()
        assert outcome.front  # never empty for a non-empty space

    @pytest.mark.check_smoke
    def test_differential_vs_independent_grid_search(self):
        """The optimizer and a from-scratch exhaustive grid search must
        agree on the exact front for small (<= 64 point) spaces."""
        spec = parse_dse(tiny_document())
        assert spec.space.size() <= 64
        outcome = explore(spec)
        objectives = resolve_objectives(spec.objectives)
        expected = _naive_grid_front(spec.space, objectives,
                                     spec.space.max_ps)
        got = [(m.label, m.vector) for m in outcome.front]
        assert got == expected

    def test_front_is_seed_stable_and_jobs_invariant(self):
        document = tiny_document(axes={
            "topology": ["shared", "partial", "crossbar"],
            "fifo_depth": [1, 2, 4],
            "memory.wait_states": [1, 2, 4],
        }, optimizer={"seed": 11, "cache": False, "exhaustive_limit": 4,
                      "population": 4, "generations": 2})
        spec = parse_dse(document)
        serial = optimize(spec)
        assert serial.mode == "evolutionary"
        rerun = optimize(spec)
        parallel = explore(spec, jobs=2)
        baseline = [(m.label, m.vector) for m in serial.front]
        assert [(m.label, m.vector) for m in rerun.front] == baseline
        assert [(m.label, m.vector) for m in parallel.front] == baseline
        other_seed = explore(spec, seed=12)
        assert other_seed.violations == ()  # different walk, still sound

    def test_cache_warm_rerun_is_identical(self, tmp_path):
        document = tiny_document()
        document["optimizer"] = {"seed": 1,
                                 "cache": str(tmp_path / "cache")}
        spec = parse_dse(document)
        cold = optimize(spec)
        warm = optimize(spec)
        assert [(m.label, m.vector) for m in warm.front] == \
            [(m.label, m.vector) for m in cold.front]
        assert all(not p.cached for p in cold.evaluated)
        assert all(p.cached for p in warm.evaluated)

    def test_screening_prunes_soundly_on_real_simulations(self):
        """Force the evolutionary + LT-screening path on a space small
        enough to know the exact front, and check the pruned candidates
        really are off it — the docs/FAST_SIM.md drift contract doing
        real work."""
        document = tiny_document(
            axes={"topology": ["shared", "partial", "crossbar"],
                  "memory.wait_states": [1, 4]},
            optimizer={"seed": 5, "cache": False, "exhaustive_limit": 1,
                       "population": 6, "generations": 3, "screen": "lt"})
        spec = parse_dse(document)
        outcome = optimize(spec)
        assert outcome.mode == "evolutionary"
        assert outcome.violations == ()
        exact = explore(parse_dse(tiny_document(
            axes={"topology": ["shared", "partial", "crossbar"],
                  "memory.wait_states": [1, 4]})))
        exact_front_labels = {m.label for m in exact.front}
        for pruned in outcome.pruned:
            assert pruned.fidelity == "lt"
            assert pruned.label not in exact_front_labels

    def test_explore_raises_on_verifier_violations(self, monkeypatch):
        import repro.dse.optimizer as optimizer_module

        monkeypatch.setattr(optimizer_module, "verify_front",
                            lambda front, population: ["doctored"])
        with pytest.raises(RuntimeError, match="doctored"):
            explore(parse_dse(tiny_document()))


class TestReport:
    @pytest.fixture(scope="class")
    def outcome(self):
        return explore(parse_dse(tiny_document()))

    def test_rows_and_table(self, outcome):
        rows = front_rows(outcome)
        assert [row["rank"] for row in rows] == list(range(len(rows)))
        assert all(set(row["objectives"]) == set(outcome.objectives)
                   for row in rows)
        table = front_table(outcome)
        assert "configuration" in table and "latency" in table

    def test_json_roundtrip(self, outcome):
        document = json.loads(front_json(outcome))
        assert document["experiment"] == "dse"
        assert document["dse"]["verified"] is True
        assert document["dse"]["mode"] == "exhaustive"
        assert len(document["dse"]["front"]) == len(outcome.front)
        assert document["metrics"]["front.0.latency"] == \
            outcome.front[0].objectives["latency"]

    def test_csv_shape(self, outcome):
        lines = front_csv(outcome).splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == 1 + len(outcome.front) * len(outcome.objectives)

    def test_metrics_json_extra_cannot_shadow(self):
        from repro.obs.export import metrics_json

        with pytest.raises(ValueError, match="shadow"):
            metrics_json({}, extra={"metrics": 1})


@pytest.mark.dse_smoke
class TestCli:
    def test_bundled_example_spec_runs(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "front.json"
        csv_path = tmp_path / "front.csv"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(tiny_document()))
        assert main(["dse", str(spec_path), "--json", str(json_path),
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "verified non-dominated" in out
        assert "exhaustive search" in out
        document = json.loads(json_path.read_text())
        assert document["dse"]["verified"] is True
        assert csv_path.read_text().startswith("metric,value")

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tiny_document(axes={"topology": ["mesh"]})))
        assert main(["dse", str(bad)]) == 2
        assert "mesh" in capsys.readouterr().err

    def test_example_file_parses(self):
        spec = load_dse("examples/configs/dse_crossbar.json")
        assert spec.space.size() <= 64  # the bundled example is exact
        assert "topology" in [axis.name for axis in spec.space.axes]
