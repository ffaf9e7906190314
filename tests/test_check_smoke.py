"""``check_smoke`` tier: the invariant checkers in the tier-1 pytest flow.

Two cheap end-to-end checks (select with ``-m check_smoke``):

* one *checked run* of the full reference platform — every monitor attached,
  zero violations expected;
* one *seeded differential run* — a randomized configuration executed on
  both kernel loop bodies, compared bit for bit.

Both also run unmarked so the plain tier-1 invocation covers them; the
marker exists so CI can select just this tier the way it selects
``bench_smoke``.
"""

import dataclasses

import pytest

from repro.check import CheckedRun, checked, format_report, random_config
from repro.core import Simulator
from repro.platforms import build_platform
from repro.platforms.config import PlatformConfig

#: Fixed seed: the smoke tier must be deterministic run to run.
SMOKE_SEED = 20070416  # the paper's DATE 2007 session date-ish tag


@pytest.mark.check_smoke
def test_reference_platform_checked_run_is_clean():
    with checked() as session:
        sim = Simulator()
        platform = build_platform(sim, PlatformConfig())
        platform.run()
    violations = session.finalize()
    assert violations == [], format_report(violations, limit=20)
    # The run must have exercised the monitors, not skated past them.
    checker = session.checkers[0]
    assert checker.fabrics, "no fabric registered with the checker"
    assert checker.bridges, "no bridge registered with the checker"
    assert checker._grants, "no grants observed"
    assert checker._accepts, "no acceptances observed"


@pytest.mark.check_smoke
def test_energy_accounted_checked_run_is_clean_and_conserves():
    """Energy accounting rides the same hook sites the monitors watch;
    a fully instrumented run (checkers + accountant together) must stay
    violation-free and the component ledger must sum to the reported
    total exactly (integer femtojoules — no floating-point residue)."""
    base = PlatformConfig()
    config = base.scaled(
        energy=dataclasses.replace(base.energy, enabled=True))
    with checked() as session:
        sim = Simulator()
        platform = build_platform(sim, config)
        result = platform.run()
    violations = session.finalize()
    assert violations == [], format_report(violations, limit=20)
    accountant = sim._energy
    assert accountant is not None and accountant._finalized_at is not None
    assert abs(sum(accountant.component_pj().values())
               - accountant.total_pj) < 1e-6
    assert result.energy_total_pj > 0
    assert abs(sum(result.energy_pj.values())
               - result.energy_total_pj) < 1e-6


@pytest.mark.check_smoke
def test_seeded_differential_run_is_clean():
    outcome = CheckedRun(random_config(SMOKE_SEED))
    assert outcome.ok, outcome.format()
    assert outcome.fast_events == outcome.reference_events
    assert outcome.fast_now == outcome.reference_now
    assert outcome.fast == outcome.reference
