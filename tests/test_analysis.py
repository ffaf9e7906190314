"""Tests for the run result and plain-text reporting."""

import pytest

from repro.obs import bar_chart, breakdown_chart, format_table
from repro.platforms import RunResult, summarize_transactions

from .helpers import add_memory, make_node, read, run_transactions


class TestRunResult:
    def _result(self, label, exec_ps):
        return RunResult(label=label, execution_time_ps=exec_ps,
                         transactions=10, bytes_transferred=1000)

    def test_derived_metrics(self):
        result = self._result("a", 2_000_000)
        assert result.execution_time_ns == 2_000
        assert result.throughput_bytes_per_ns == pytest.approx(0.5)

    def test_zero_time_run_has_zero_throughput(self):
        assert self._result("idle", 0).throughput_bytes_per_ns == 0.0

    def test_energy_delay_product(self):
        result = RunResult(label="e", execution_time_ps=4_000,
                           transactions=1, bytes_transferred=100,
                           energy_total_pj=250.0)
        assert result.pj_per_byte == pytest.approx(2.5)
        assert result.energy_delay_product == pytest.approx(1_000.0)


class TestSummarize:
    def test_from_transactions(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=2)
        txns = [read(i * 64) for i in range(5)]
        run_transactions(sim, port, txns)
        result = summarize_transactions("test", sim.now, txns)
        assert result.transactions == 5
        assert result.bytes_transferred == 5 * 32
        assert result.mean_latency_ps > 0
        assert result.p95_latency_ps >= result.mean_latency_ps * 0.5

    def test_empty_population(self):
        result = summarize_transactions("none", 0, [])
        assert (result.transactions, result.bytes_transferred) == (0, 0)
        assert (result.mean_latency_ps, result.p95_latency_ps) == (0.0, 0.0)

    def test_unfinished_transactions_are_not_counted(self, sim):
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=2)
        done = [read(i * 64) for i in range(3)]
        run_transactions(sim, port, done)
        pending = read(0x1000)
        result = summarize_transactions("mixed", sim.now, done + [pending])
        assert result.transactions == 3
        assert result.bytes_transferred == 3 * 32

    def test_mappings_are_copied(self):
        utilization = {"bus.request": 0.5}
        result = summarize_transactions("c", 0, [], utilization=utilization)
        utilization["bus.request"] = 0.9
        assert result.utilization == {"bus.request": 0.5}


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 20]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.500" in text

    def test_format_table_lines_carry_no_trailing_spaces(self):
        text = format_table(["label", "n"], [["a-long-label", 1], ["b", 2]])
        assert all(line == line.rstrip() for line in text.splitlines())
        assert text.splitlines()[0] == "label         n"

    def test_format_table_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_bar_chart(self):
        text = bar_chart({"fast": 1.0, "slow": 2.0}, width=10)
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 10  # the max value fills the bar

    def test_format_table_float_digits(self):
        text = format_table(["x"], [[1 / 3]], float_digits=5)
        assert text.splitlines()[2] == "0.33333"

    def test_format_table_without_rows(self):
        assert format_table(["a", "bb"], []) == "a  bb\n-  --"

    def test_bar_chart_max_value_clamps_overflow(self):
        text = bar_chart({"half": 1.0, "over": 3.0}, width=10, max_value=2.0)
        half, over = text.splitlines()
        assert half.count("#") == 5
        assert over.count("#") == 10
        assert over.endswith("3.000")

    def test_bar_chart_all_zero_draws_empty_bars(self):
        text = bar_chart({"a": 0.0, "b": 0.0}, width=4)
        assert text.splitlines() == ["a |    | 0.000", "b |    | 0.000"]

    def test_bar_chart_unit_and_label_alignment(self):
        text = bar_chart({"a": 1.0, "long": 1.0}, width=2, unit=" us")
        assert text.splitlines() == ["a    |##| 1.000 us",
                                     "long |##| 1.000 us"]

    def test_bar_chart_empty(self):
        assert bar_chart({}) == "(no data)"

    def test_breakdown_chart_legend(self):
        chart = breakdown_chart(
            {"phase1": {"full": 0.5, "idle": 0.5}}, states=("full", "idle"))
        assert "legend:" in chart
        assert "full=50%" in chart

    def test_breakdown_chart_missing_state_counts_as_zero(self):
        chart = breakdown_chart({"p": {"full": 1.0}}, states=("full", "idle"),
                                width=4)
        assert chart.splitlines()[0] == "p          |####| full=100% idle=0%"

    def test_breakdown_chart_bar_never_exceeds_width(self):
        chart = breakdown_chart({"p": {"a": 0.8, "b": 0.8}}, states=("a", "b"),
                                width=10)
        assert chart.splitlines()[0].split("|")[1] == "########=="

    def test_breakdown_chart_glyphs_cycle_past_seven_states(self):
        states = [f"s{i}" for i in range(8)]
        legend = breakdown_chart({}, states).splitlines()[-1]
        assert legend.startswith("legend: #=s0 ")
        assert legend.endswith(" *=s6 #=s7")
