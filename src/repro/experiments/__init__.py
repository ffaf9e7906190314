"""Experiment harness: one module per paper figure/table.

``repro.cli.registry()`` is the one enumeration of what each module
reproduces (``python -m repro list``) and ``repro run <name>`` the one
runner.  Every module exposes ``run() -> dict``, ``report(data) -> str`` and
``check(data) -> list[str]`` (empty list = every paper shape claim holds).
"""

from . import (
    ablations,
    arbitration_study,
    crossbar_dse,
    fig3_platform_instances,
    fig4_memory_speed,
    fig5_lmi_platforms,
    fig6_lmi_statistics,
    io_qos,
    path_segmentation,
    single_layer,
)
from .common import (
    normalized,
    run_configs,
)

__all__ = [
    "ablations",
    "arbitration_study",
    "crossbar_dse",
    "fig3_platform_instances",
    "fig4_memory_speed",
    "fig5_lmi_platforms",
    "fig6_lmi_statistics",
    "io_qos",
    "normalized",
    "path_segmentation",
    "run_configs",
    "single_layer",
]
