"""Experiment harness: one module per paper figure/table.

=======================  ====================================================
Module                   Reproduces
=======================  ====================================================
``single_layer``         Section 4.1.1 (many-to-many) and 4.1.2 (many-to-one)
``fig3_platform_instances``  Fig. 3 — platform instances, on-chip memory
``fig4_memory_speed``    Fig. 4 — distributed vs centralized vs memory speed
``fig5_lmi_platforms``   Fig. 5 — platform instances with LMI + DDR SDRAM
``fig6_lmi_statistics``  Fig. 6 — LMI bus-interface cycle statistics
``ablations``            Section 6 guideline ablations
=======================  ====================================================

Every module exposes ``run() -> dict``, ``report(data) -> str`` and
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
    run_config,
    run_config_with_platform,
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
    "run_config",
    "run_config_with_platform",
    "run_configs",
    "single_layer",
]
