"""The shipped examples must run cleanly (they are documentation)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "video_pipeline.py",
    "abstraction_levels.py",
    "realtime_display.py",
    "bottleneck_analysis.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_shows_the_50_percent_bound():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=120)
    assert "50" in result.stdout


def test_bottleneck_example_tells_the_two_bottlenecks_apart():
    """The Fig. 6 instrument blames the LMI on the split-capable STBus
    platform and the interconnect on the blocking-bridge AHB one."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "bottleneck_analysis.py")],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    stbus, ahb = result.stdout.split("--- full AHB")
    assert "STBus" in stbus and "diagnosis: memory controller saturated" in stbus
    assert "diagnosis: memory controller starving" in ahb
    rates = [line.split("|")[1] for line in result.stdout.splitlines()
             if line.startswith("memory txn rate over time:")]
    assert len(rates) == 2
    assert all(len(rate) == 50 and rate.strip() for rate in rates)


def test_config_file_example_is_loadable():
    from repro.platforms.loader import load_config

    config = load_config(EXAMPLES / "configs" / "custom_platform.json")
    assert config.memory.kind == "lmi"
    assert len(config.clusters) == 2


def test_sweep_file_example_expands():
    from repro.sweep import load_sweep

    spec = load_sweep(EXAMPLES / "configs" / "quick_sweep.json")
    assert spec.jobs == 2
    assert len(spec.configs) == 4  # 2 points x 2 wait-state grid values
    assert spec.labels[0].startswith("onchip")
    kinds = {config.memory.kind for config in spec.configs}
    assert kinds == {"onchip", "lmi"}
