"""``repro.check`` — runtime protocol/timing invariant checkers.

The paper's credibility rests on the virtual platform being cycle-accurate;
this package mechanically verifies that during simulation.  It follows the
``repro.obs`` attachment pattern exactly: :func:`checked` is an ambient
context manager that registers a construction hook on the kernel, every
:class:`~repro.core.kernel.Simulator` built inside it comes up with a
:class:`~repro.check.monitors.SimChecker` in its ``sim._checks`` slot, and
model code feeds the checker through ``is not None``-guarded notification
points.  Outside a session ``sim._checks`` is ``None`` and the guards all
fail — checking costs nothing when off (``tests/test_obs_overhead.py``
pins that against the kernel benchmark baseline).

Usage::

    from repro.check import checked, format_report
    from repro.sweep import Run

    with checked() as session:
        result = Run(config).finish().result   # builds its own Simulator
    violations = session.finalize()
    print(format_report(violations))

For fast-path vs reference kernel bit-identity, use the differential
harness::

    from repro.check import CheckedRun, random_config

    outcome = CheckedRun(random_config(seed=7))
    assert outcome.ok, outcome.format()

Or from the shell: ``repro check <experiment|config.json> [--strict]``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

from ..core import kernel as _kernel
from .differential import CheckedRun, DifferentialResult, random_config
from .lt_accuracy import LtComparison, LtRun, within_bounds
from .monitors import SimChecker
from .sdram_audit import SdramCommandLog, audit_sdram
from .violations import InvariantViolation, Violation, format_report

__all__ = [
    "CheckSession",
    "CheckedRun",
    "DifferentialResult",
    "InvariantViolation",
    "LtComparison",
    "LtRun",
    "SdramCommandLog",
    "SimChecker",
    "Violation",
    "audit_sdram",
    "checked",
    "format_report",
    "random_config",
    "within_bounds",
]


class CheckSession:
    """One checking session: a checker for every simulator it saw."""

    def __init__(self) -> None:
        self.checkers: List[SimChecker] = []

    def attach(self, sim) -> SimChecker:
        """Attach invariant checking to an already-built simulator."""
        if sim._checks is not None:
            raise RuntimeError("simulator already has an invariant checker")
        # Also attach a :class:`~repro.obs.trace.SpanRecorder` (unless one
        # is already present from an enclosing ``repro.obs.capture()``) so
        # the span-tiling monitor has spans to audit.
        if sim._spans is None:
            from ..obs.trace import SpanRecorder

            sim._spans = SpanRecorder(sim)
        checker = SimChecker(sim)
        sim._checks = checker
        self.checkers.append(checker)
        return checker

    @property
    def violations(self) -> List[Violation]:
        """Violations detected live so far (beat ordering, FIFO bounds)."""
        return [v for checker in self.checkers for v in checker.violations]

    def finalize(self, expect_drained: bool = True) -> List[Violation]:
        """Run every post-run pass on every simulator; return all violations."""
        return [v for checker in self.checkers
                for v in checker.finalize(expect_drained=expect_drained)]


@contextmanager
def checked() -> Iterator[CheckSession]:
    """Ambiently check every simulator built while the context is active.

    Note on composition with :func:`repro.obs.capture`: ``capture()`` refuses
    to attach to a simulator that already has a span recorder, so when both
    are wanted, enter ``capture()`` *first* and ``checked()`` inside it (the
    session then reuses the capture's recorder instead of making its own).
    """
    session = CheckSession()
    _kernel._new_sim_hooks.append(session.attach)
    try:
        yield session
    finally:
        _kernel._new_sim_hooks.remove(session.attach)
