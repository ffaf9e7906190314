"""CLI smoke coverage for the extension experiments (small scale)."""

from repro.cli import main, registry


class TestRegistryCompleteness:
    def test_every_paper_figure_has_an_entry(self):
        names = set(registry())
        assert {"s411", "s412", "fig3", "fig4", "fig5", "fig6",
                "ablations"} <= names

    def test_extensions_registered(self):
        names = set(registry())
        assert {"arbitration", "segmentation", "io_qos"} <= names

    def test_registry_is_the_only_runner_and_fully_documented(self):
        """No third harness, no second runner, no undocumented command."""
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        entries = {path.name for path in (root / "benchmarks").iterdir()}
        assert entries <= {"ci_gate.py", "lt_gate.py", "stack", "__pycache__"}
        for path in (root / "src" / "repro" / "experiments").glob("*.py"):
            source = path.read_text()
            assert "def main" not in source and "__main__" not in source, path
        for doc in ("DESIGN.md", "EXPERIMENTS.md"):
            text = (root / doc).read_text()
            assert [name for name in registry()
                    if f"`repro run {name}`" not in text] == [], doc


class TestExtensionRuns:
    def test_segmentation_via_cli(self, capsys):
        assert main(["run", "segmentation", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "Path segmentation" in out
        assert "all shape claims hold" in out

    def test_arbitration_via_cli(self, capsys):
        assert main(["run", "arbitration", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "Arbitration policies" in out
        assert "all shape claims hold" in out
