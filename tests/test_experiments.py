"""Smoke tests for the experiment harness (scaled-down runs).

The full-scale shape checks are ``repro run all`` (CI's smoke job); here
we verify the experiment plumbing end to end at reduced traffic so the
suite stays fast, plus the shape claims that are robust at small scale.
"""

import hashlib

import pytest

from repro.cli import registry
from repro.experiments import (
    fig3_platform_instances,
    fig4_memory_speed,
    fig5_lmi_platforms,
    fig6_lmi_statistics,
    single_layer,
)
from repro.experiments.common import normalized, run_configs
from repro.platforms import RunResult, quick_config
from repro.sweep import Run


def _result(label, execution_time_ps):
    return RunResult(label=label, execution_time_ps=execution_time_ps,
                     transactions=1, bytes_transferred=64)


class TestCommon:
    def test_run_configs_matches_a_direct_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
        config = quick_config(traffic_scale=0.1)
        direct = Run(config).finish().result
        assert direct.execution_time_ps > 0
        batched = run_configs([config])
        assert batched == [direct]

    def test_normalized_uses_first_key_by_default(self):
        a = Run(quick_config()).finish().result
        results = {"a": a, "b": a}
        norm = normalized(results)
        assert norm["a"] == 1.0

    def test_normalized_zero_baseline_does_not_divide_by_zero(self):
        # Regression: a degenerate zero-time baseline raised
        # ZeroDivisionError instead of reporting the ratio as infinite.
        norm = normalized({"base": _result("base", 0),
                           "other": _result("other", 500)})
        assert norm["base"] == 1.0
        assert norm["other"] == float("inf")

    def test_normalized_all_zero_is_all_equal(self):
        norm = normalized({"a": _result("a", 0), "b": _result("b", 0)})
        assert norm == {"a": 1.0, "b": 1.0}

    def test_normalized_to_a_named_baseline(self):
        results = {"a": _result("a", 100), "b": _result("b", 250)}
        assert normalized(results, baseline="b") == {"a": 0.4, "b": 1.0}
        assert normalized(results) == {"a": 1.0, "b": 2.5}

    def test_normalized_unknown_baseline(self):
        with pytest.raises(KeyError):
            normalized({"a": _result("a", 1)}, baseline="missing")

    def test_normalized_empty(self):
        assert normalized({}) == {}


class TestSingleLayerSmoke:
    def test_many_to_one_claims_hold(self):
        data = single_layer.run_many_to_one(initiators=4, transactions=24)
        assert single_layer.check_many_to_one(data) == []
        text = single_layer.report_many_to_one(data)
        assert "response-channel efficiency" in text

    def test_many_to_many_runs_and_reports(self):
        data = single_layer.run_many_to_many(
            initiators=4, targets=2, transactions=16, idle_sweep=[120, 0])
        text = single_layer.report_many_to_many(data)
        assert "STBus target-buffering series" in text
        # Structural integrity of the result dict.
        assert len(data["rows"]) == 2
        assert len(data["buffering_series"]) == 4


#: sha256 of ``repro run <name> --scale 0.1``'s report text, as the
#: hand-wired studies printed it before they became netlist configs.
REPORT_PINS = {
    "s411": "d873226194de8d9db5230008ecb51e056fbfb7f591942f51739ab9b8c03e7f8e",
    "s412": "9cc1f2483a24f4259ed09f858f2177f0520d3e2afdabd99fc71701f99b2c4a8f",
    "arbitration":
        "eb517d00b0c7de8974005bf77ee87702188576b592c0fbe2fb45d840fe76a2d4",
    "segmentation":
        "22bf8254bf6f6a5829733742218d6cd32c9ad0b13f663319a7beb50e3f241503",
    "io_qos": "28a25467f3422dd17415750f8b999831326f610d326fc234abd01ee6414a3f61",
}


@pytest.mark.parametrize("name", sorted(REPORT_PINS))
def test_study_report_is_pinned(name, monkeypatch, tmp_path):
    """The same report from a cold cache and from the cache hit."""
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    runner = registry()[name][1]
    for _pass in ("cold", "warm"):
        __, text, failures = runner(0.1, 1)
        assert failures == []
        assert hashlib.sha256(text.encode()).hexdigest() == REPORT_PINS[name]


class TestFig3Smoke:
    def test_runs_and_reports(self):
        data = fig3_platform_instances.run(traffic_scale=0.2)
        assert set(data["normalized"]) == set(fig3_platform_instances.BAR_ORDER)
        text = fig3_platform_instances.report(data)
        assert "Fig. 3" in text
        # The STBus group equivalences hold even at small scale.
        norm = data["normalized"]
        assert abs(norm["collapsed_stbus"] - norm["collapsed_axi"]) < 0.15


class TestFig4Smoke:
    def test_ratio_grows_with_latency(self):
        data = fig4_memory_speed.run(latencies=[0, 16], traffic_scale=0.2)
        series = data["series"]
        assert series[-1]["ratio"] > series[0]["ratio"]
        assert "Fig. 4" in fig4_memory_speed.report(data)


class TestFig5Smoke:
    def test_ordering_holds_at_small_scale(self):
        data = fig5_lmi_platforms.run(traffic_scale=0.25)
        norm = data["normalized"]
        assert norm["distributed_stbus"] == min(norm.values())
        assert norm["distributed_ahb"] == max(norm.values())
        assert norm["collapsed_axi"] > 1.3
        # The starvation mechanism is scale-independent.
        assert data["results"]["collapsed_axi"].extra["lmi_merges"] == 0
        assert data["results"]["distributed_stbus"].extra["lmi_merges"] > 0
        assert "Fig. 5" in fig5_lmi_platforms.report(data)


class TestFig6Smoke:
    def test_instrument_and_ahb_diagnosis(self):
        data = fig6_lmi_statistics.run(traffic_scale=0.5)
        assert set(data["stbus"]) == {"phase1", "phase2"}
        # The AHB diagnosis (guideline 6) is robust at any scale.
        for row in data["ahb"].values():
            assert row["fifo_full"] <= 0.02
        assert any(row["no_incoming_request"] >= 0.85
                   for row in data["ahb"].values())
        assert "Fig. 6" in fig6_lmi_statistics.report(data)
