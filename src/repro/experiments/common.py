"""Shared experiment infrastructure.

Every experiment module exposes

``run(...) -> dict``
    Execute the simulations and return structured results (figures-as-data).
``report(results) -> str``
    Render the paper-style rows/series as text.
``check(results) -> list[str]``
    Verify the *shape* claims of the paper against the results; returns a
    list of failed-claim descriptions (empty = all claims hold).

``repro run <name>`` (:func:`repro.cli.registry`) is the one runner: it
prints ``report`` and exits non-zero unless ``check`` comes back clean.

Multi-configuration loops route through :func:`run_configs`, which hands
the independent points to the :mod:`repro.sweep` engine — parallel worker
processes when ``jobs > 1`` (or ``$REPRO_JOBS`` is set), with completed
points cached on disk so repeated runs skip already-simulated
configurations.  Results are deterministic and identical to the serial
path either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..platforms.config import PlatformConfig
from ..platforms.result import RunResult
from ..sweep import sweep


def run_configs(configs: Iterable[PlatformConfig],
                jobs: Optional[int] = None) -> List[RunResult]:
    """Run many independent configurations; results in input order.

    The parallel/caching behaviour lives in :func:`repro.sweep.sweep`;
    this is the thin map every experiment's multi-config loop goes
    through.  ``jobs=None`` reads ``$REPRO_JOBS``.
    """
    outcomes = sweep(list(configs), jobs=jobs)
    return [outcome.result for outcome in outcomes]


def normalized(results: Dict[str, RunResult],
               baseline: Optional[str] = None) -> Dict[str, float]:
    """Execution times normalised to ``baseline`` (default: first key).

    A zero-time baseline (a degenerate or failed run) yields ``inf`` for
    every non-zero entry instead of raising ``ZeroDivisionError``; a
    zero-time entry over a zero baseline is reported as ``1.0`` (equal).
    """
    if not results:
        return {}
    if baseline is None:
        baseline = next(iter(results))
    base = results[baseline].execution_time_ps
    if base == 0:
        return {label: 1.0 if r.execution_time_ps == 0 else float("inf")
                for label, r in results.items()}
    return {label: r.execution_time_ps / base for label, r in results.items()}


def claim(failures: list, condition: bool, description: str) -> None:
    """Record a shape-claim failure."""
    if not condition:
        failures.append(description)
