"""Tests for the metric dumps and the run-result CSV export."""

import csv
import io
import json

import pytest

from repro.obs import results_to_csv
from repro.obs.export import metrics_csv, metrics_json, metrics_text
from repro.platforms import RunResult


class TestMetricsCsv:
    def test_header_then_sorted_paths(self):
        text = metrics_csv({"b.x": 1, "a.y": 2, "a.x": 3})
        assert text.splitlines() == ["metric,value", "a.x,3", "a.y,2", "b.x,1"]

    def test_empty_rows_write_only_the_header(self):
        assert metrics_csv({}) == "metric,value\n"

    def test_floats_round_trip_exactly(self):
        rows = {"bus.utilization": 0.4709124311083895, "tiny": 1e-17,
                "third": 1 / 3}
        parsed = {row["metric"]: float(row["value"]) for row in
                  csv.DictReader(io.StringIO(metrics_csv(rows)))}
        assert parsed == rows

    def test_large_integers_keep_every_digit(self):
        text = metrics_csv({"scanout.latency.max": 1963824})
        assert text.splitlines()[1] == "scanout.latency.max,1963824"

    def test_csv_and_json_dumps_agree(self):
        rows = {"a": 0.1 + 0.2, "b": 7, "c": 123456789.125}
        from_csv = {row["metric"]: float(row["value"]) for row in
                    csv.DictReader(io.StringIO(metrics_csv(rows)))}
        assert from_csv == json.loads(metrics_json(rows))["metrics"]


class TestMetricsJson:
    def test_header_fields_precede_sorted_metrics(self):
        document = json.loads(metrics_json({"z": 1, "a": 2},
                                           sim_time_ps=500,
                                           experiment="fig3"))
        assert list(document) == ["experiment", "sim_time_ps", "metrics"]
        assert document["experiment"] == "fig3"
        assert document["sim_time_ps"] == 500
        assert list(document["metrics"]) == ["a", "z"]

    def test_extra_fields_join_the_header(self):
        document = json.loads(metrics_json({}, extra={"seed": 7}))
        assert document["seed"] == 7
        assert list(document)[-1] == "metrics"

    @pytest.mark.parametrize("key", ["experiment", "sim_time_ps", "metrics"])
    def test_extra_cannot_shadow_a_standard_field(self, key):
        with pytest.raises(ValueError, match=key):
            metrics_json({}, extra={key: 1})

    def test_ends_with_a_newline(self):
        assert metrics_json({"a": 1}).endswith("}\n")


class TestMetricsText:
    def test_empty_rows(self):
        assert metrics_text({}) == "(no metrics)"

    def test_prefix_keeps_the_path_and_its_children_only(self):
        rows = {"bus": 1, "bus.util": 0.5, "busy.util": 0.25, "mem.util": 0.75}
        lines = metrics_text(rows, prefix="bus").splitlines()
        assert [line.split()[0] for line in lines] == ["bus", "bus.util"]

    def test_prefix_without_matches(self):
        assert metrics_text({"a.b": 1}, prefix="c") == "(no metrics)"

    def test_integers_get_thousands_separators(self):
        assert metrics_text({"n": 1963824}) == "n  1,963,824"
        assert metrics_text({"n": 2.0}) == "n  2"

    def test_fractions_get_four_decimals(self):
        assert metrics_text({"u": 0.4709124311083895}) == "u  0.4709"

    def test_values_align_after_the_longest_path(self):
        lines = metrics_text({"a": 1, "long.path": 2}).splitlines()
        assert lines == ["a          1", "long.path  2"]


def _result(label, exec_ps, **extra):
    return RunResult(label=label, execution_time_ps=exec_ps,
                     transactions=5, bytes_transferred=500,
                     utilization={"central.response": 0.5},
                     extra=extra)


class TestResultsCsv:
    def test_round_trip_fields(self, tmp_path):
        path = tmp_path / "results.csv"
        results_to_csv(path, [_result("a", 1000, merges=3.0),
                              _result("b", 2000)])
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 2
        assert rows[0]["label"] == "a"
        assert rows[0]["execution_time_ps"] == "1000"
        assert rows[0]["extra.merges"] == "3.0"
        assert rows[1]["extra.merges"] == ""  # missing cell stays empty
        assert rows[0]["util.central.response"] == "0.5"

    def test_energy_columns_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        with_energy = RunResult(
            label="e", execution_time_ps=2000, transactions=4,
            bytes_transferred=200,
            energy_pj={"central": 150.0, "mem": 350.0},
            energy_total_pj=500.0)
        results_to_csv(path, [with_energy, _result("plain", 1000)])
        rows = list(csv.DictReader(path.open()))
        assert float(rows[0]["energy_total_pj"]) == 500.0
        assert float(rows[0]["pj_per_byte"]) == pytest.approx(2.5)
        assert float(rows[0]["energy.central"]) == 150.0
        assert float(rows[0]["energy.mem"]) == 350.0
        # Energy-less results share the file; their cells stay empty/zero.
        assert rows[1]["energy.central"] == ""
        assert float(rows[1]["energy_total_pj"]) == 0.0
        assert float(rows[1]["pj_per_byte"]) == 0.0

    def test_zero_byte_result_reports_zero_pj_per_byte(self, tmp_path):
        """The pJ/byte column must not divide by a zero-traffic run."""
        path = tmp_path / "results.csv"
        empty = RunResult(label="idle", execution_time_ps=0,
                          transactions=0, bytes_transferred=0,
                          energy_total_pj=42.0)
        results_to_csv(path, [empty])
        rows = list(csv.DictReader(path.open()))
        assert float(rows[0]["pj_per_byte"]) == 0.0

    def test_exact_bytes(self, tmp_path):
        """The file layout is pinned: ``repro platform|sweep --csv`` output
        must not drift between releases."""
        path = tmp_path / "results.csv"
        result = RunResult(label="r", execution_time_ps=1234,
                           transactions=2, bytes_transferred=64,
                           utilization={"bus.request": 0.25},
                           mean_latency_ps=10.25, p95_latency_ps=12.0,
                           extra={"merges": 1.0},
                           energy_pj={"mem": 3.5}, energy_total_pj=3.5)
        results_to_csv(path, [result])
        assert path.read_bytes() == (
            b"label,execution_time_ps,transactions,bytes_transferred,"
            b"mean_latency_ps,p95_latency_ps,energy_total_pj,pj_per_byte,"
            b"util.bus.request,extra.merges,energy.mem\r\n"
            b"r,1234,2,64,10.2,12.0,3.500,0.0547,0.25,1.0,3.5\r\n")

    def test_keyed_columns_are_unioned_and_sorted(self, tmp_path):
        path = tmp_path / "results.csv"
        first = RunResult(label="a", execution_time_ps=1, transactions=1,
                          bytes_transferred=1, utilization={"z.req": 0.1})
        second = RunResult(label="b", execution_time_ps=1, transactions=1,
                           bytes_transferred=1, utilization={"a.req": 0.2})
        results_to_csv(path, [first, second])
        rows = list(csv.DictReader(path.open()))
        assert list(rows[0])[-2:] == ["util.a.req", "util.z.req"]
        assert (rows[0]["util.a.req"], rows[0]["util.z.req"]) == ("", "0.1")
        assert (rows[1]["util.a.req"], rows[1]["util.z.req"]) == ("0.2", "")

    def test_no_results_writes_the_fixed_header(self, tmp_path):
        path = tmp_path / "results.csv"
        results_to_csv(path, [])
        assert path.read_text().splitlines() == [
            "label,execution_time_ps,transactions,bytes_transferred,"
            "mean_latency_ps,p95_latency_ps,energy_total_pj,pj_per_byte"]
