"""Tests for the observability CLI surface (stats and --trace)."""

import csv
import json
from pathlib import Path

from repro.cli import main

LMI_CONFIG = Path(__file__).parent.parent / "examples" / "configs" / \
    "custom_platform.json"

#: ``repro stats fig6 --scale 0.1 --json`` rows of its first (LMI)
#: platform, bit for bit: the request-FIFO probe's occupancy and waits,
#: the output FIFO's occupancy and the Fig. 6 interface breakdown.
FIG6_LMI_ROWS = {
    "central.lmi.req_fifo.capacity": 6.0,
    "central.lmi.req_fifo.high_water": 6.0,
    "central.lmi.req_fifo.level": 0.0,
    "central.lmi.req_fifo.mean_occupancy": 0.46653411402435,
    "central.lmi.req_fifo.wait.count": 150.0,
    "central.lmi.req_fifo.wait.max": 496380.0,
    "central.lmi.req_fifo.wait.mean": 289227.7866666667,
    "central.lmi.req_fifo.wait.min": 0.0,
    "central.lmi.req_fifo.wait.p95": 455667.19999999995,
    "central.lmi.resp_fifo.mean_occupancy": 0.08431455237545639,
    "lmi.iface.empty.phase1.frac.empty": 0.055692076228686056,
    "lmi.iface.empty.phase1.frac.nonempty": 0.9443079237713139,
    "lmi.iface.empty.phase2.frac.empty": 0.9373954266216329,
    "lmi.iface.empty.phase2.frac.nonempty": 0.06260457337836717,
    "lmi.iface.states.phase1.frac.fifo_full": 0.2150100300902708,
    "lmi.iface.states.phase1.frac.no_incoming_request": 0.7037462387161485,
    "lmi.iface.states.phase1.frac.storing_request": 0.08124373119358075,
    "lmi.iface.states.phase2.frac.fifo_full": 0.030244182742784835,
    "lmi.iface.states.phase2.frac.no_incoming_request": 0.9634639997030262,
    "lmi.iface.states.phase2.frac.storing_request": 0.0062918175541889524,
    "lmi.served": 150.0,
}


class TestRunTraceFlag:
    def test_run_with_trace_writes_perfetto_file(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        status = main(["run", "s412", "--scale", "0.2",
                       "--trace", str(out)])
        assert status == 0
        document = json.loads(out.read_text())
        assert any(event["ph"] == "X" for event in document["traceEvents"])
        assert f"to {out}" in capsys.readouterr().out

    def test_run_trace_reports_hops(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        status = main(["run", "s412", "--scale", "0.2",
                       "--trace", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "end_to_end" in text
        assert "arbitration" in text
        document = json.loads(out.read_text())
        assert document["traceEvents"]

    def test_unknown_experiment_fails(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["run", "nope", "--trace", str(out)]) == 2
        assert not out.exists()


class TestStatsCommand:
    def test_terminal_dump_lists_metric_rows(self, capsys):
        status = main(["stats", "s412", "--scale", "0.2"])
        assert status == 0
        text = capsys.readouterr().out
        assert "metric rows" in text
        assert ".latency.mean" in text

    def test_io_and_memory_subsystem_statistics_are_listed(self, tmp_path,
                                                           capsys):
        """The paper's I/O devices, the on-chip memory and the core's
        caches keep their statistics in the registry too."""
        assert main(["stats", "io_qos", "--scale", "0.3"]) == 0
        io_rows = capsys.readouterr().out
        for row in ("display.underruns", "display.lines", "dma0.bursts",
                    "dma0.copy_latency.count"):
            assert f"sim1.{row} " in io_rows
        config = tmp_path / "platform.json"
        config.write_text(json.dumps({"traffic_scale": 0.05}))
        assert main(["stats", str(config)]) == 0
        rows = capsys.readouterr().out
        for row in ("mem.reads", "mem.writes", "mem.beats",
                    "st220.dcache.misses", "st220.icache.hits",
                    "st220.blocks", "st220.miss_latency.count",
                    ".generated"):
            assert row in rows

    def test_json_and_csv_outputs(self, tmp_path, capsys):
        json_path = tmp_path / "metrics.json"
        csv_path = tmp_path / "metrics.csv"
        status = main(["stats", "s412", "--scale", "0.2",
                       "--json", str(json_path), "--csv", str(csv_path)])
        assert status == 0
        document = json.loads(json_path.read_text())
        assert document["experiment"] == "s412"
        assert document["sim_time_ps"] > 0
        assert document["metrics"]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "metric,value"
        assert len(lines) == len(document["metrics"]) + 1

    def test_csv_values_equal_the_json_values(self, tmp_path, capsys):
        """No rounding on the CSV side: integers above a million and
        full-precision utilisations read back exactly."""
        json_path = tmp_path / "metrics.json"
        csv_path = tmp_path / "metrics.csv"
        assert main(["stats", str(LMI_CONFIG), "--json", str(json_path),
                     "--csv", str(csv_path)]) == 0
        metrics = json.loads(json_path.read_text())["metrics"]
        with csv_path.open(newline="") as handle:
            rows = {row["metric"]: float(row["value"])
                    for row in csv.DictReader(handle)}
        assert rows == metrics
        assert any(value > 1e6 and value.is_integer()
                   for value in metrics.values())

    def test_prefix_filters_terminal_output(self, capsys):
        status = main(["stats", "s412", "--scale", "0.2",
                       "--prefix", "sim1.layer"])
        assert status == 0
        body = capsys.readouterr().out.split("\n\n", 1)[1]
        lines = [line for line in body.splitlines() if line.strip()]
        assert lines
        assert all(line.startswith("sim1.layer.") for line in lines)

    def test_unknown_experiment_fails(self, capsys):
        assert main(["stats", "nope"]) == 2

    def test_lmi_probe_and_interface_rows_are_pinned(self, tmp_path, capsys):
        json_path = tmp_path / "metrics.json"
        assert main(["stats", "fig6", "--scale", "0.1",
                     "--json", str(json_path)]) == 0
        document = json.loads(json_path.read_text())
        assert document["sim_time_ps"] == 93167184
        rows = {path: document["metrics"]["sim1." + path]
                for path in FIG6_LMI_ROWS}
        assert rows == FIG6_LMI_ROWS

    def test_sweep_file_dumps_every_point(self, tmp_path, capsys):
        """A sweep file is a target, as for ``repro check``: one
        simulator, hence one ``simN.`` subtree, per point."""
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "base": {"traffic_scale": 0.05, "cpu": {"enabled": False}},
            "grid": {"memory.wait_states": [1, 4]}}))
        assert main(["stats", str(spec)]) == 0
        rows = capsys.readouterr().out
        assert "sim1.mem.reads " in rows and "sim2.mem.reads " in rows
        assert "sim3." not in rows
