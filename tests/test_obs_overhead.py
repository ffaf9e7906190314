"""Bench guard: the instrumentation layer must cost nothing when disabled.

The observability hooks follow the kernel's select-once discipline — with no
active capture, ``sim._spans`` stays ``None``, no FIFO probe is attached
and no mark is recorded.  These tests pin that down on exact counts:

* **Disabled hooks** — runs with no capture, check session or energy
  accountant process exactly the pinned event counts and reach exactly
  the pinned simulated times.  Any hook that schedules events or perturbs
  ordering fails this immediately, on any machine.
* **Enabled hooks** — tracing, energy accounting and the invariant
  monitors observe a run without moving a single event.

A hook that schedules nothing but lands on the per-event path costs host
time instead; ``tests/test_call_budget.py`` guards that without a
stopwatch (calls per transaction within the measured figure + 3 %), and
the stack benchmark (``benchmarks/stack/run.py``) times it.
"""

import pytest

from repro.platforms import quick_config
from repro.sweep import Run

from .helpers import timeout_storm


def platform_run(resolution="ca"):
    """``(processed_events, sim_time_ps)`` of the quick reference platform."""
    done = Run(quick_config(resolution=resolution), 10**13).finish()
    return done.events, done.sim_time_ps


#: scenario -> (runner, exact (processed_events, sim_time_ps)).
PINNED = {
    "timeout_storm": (timeout_storm, (8_008, 14_000)),
    "platform_run": (platform_run, (13_737, 6_420_000)),
    "platform_run_lt": (lambda: platform_run("lt"), (2_551, 6_380_000)),
}


def _assert_pinned(scenario, culprit):
    runner, expected = PINNED[scenario]
    assert runner() == expected, (
        f"{scenario}: (events, sim_time_ps) drifted from {expected} — "
        f"{culprit} is perturbing the disabled path")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", PINNED)
def test_disabled_tracing_matches_baseline_event_counts(scenario):
    _assert_pinned(scenario, "an observability hook")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("resolution", ["ca", "lt"])
def test_capture_only_adds_observation_not_events(resolution):
    """With tracing *enabled* the simulation must still be identical —
    capture observes event timing, it never schedules events of its own."""
    from repro.obs import capture

    plain = platform_run(resolution)
    with capture() as cap:
        traced = platform_run(resolution)
    assert traced == plain
    assert cap.completed(), "capture saw no transactions"


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", PINNED)
def test_checks_disabled_matches_baseline_event_counts(scenario):
    """The ``repro.check`` hook sites (FIFO bounds guards, fabric
    grant/accept/beat notifications) must not perturb the simulation when
    no check session is active.  This is the monitors-disabled half of the
    <2% overhead claim — the guards are plain attribute tests that
    schedule nothing."""
    from repro.core import kernel as _kernel

    assert not _kernel._new_sim_hooks, "a stray session hook is installed"
    _assert_pinned(scenario, "a check guard")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", PINNED)
def test_energy_disabled_matches_baseline_event_counts(scenario):
    """The energy taps must not perturb the disabled path: with no
    accountant attached, ``sim._energy`` stays ``None`` and every tap is
    a dormant attribute test — event counts stay pinned exactly like the
    tracing and checking hooks."""
    from repro.core import kernel as _kernel

    assert not _kernel._new_sim_hooks, "a stray session hook is installed"
    _assert_pinned(scenario, "an energy tap")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("resolution", ["ca", "lt"])
def test_energy_capture_only_adds_observation_not_events(resolution):
    """With the accountant *attached* the simulation must still be
    identical — charges are integer adds on existing events, the
    accountant never schedules anything of its own."""
    from repro.obs import capture

    plain = platform_run(resolution)
    with capture(energy=True) as cap:
        accounted = platform_run(resolution)
    assert accounted == plain
    assert any(accountant is not None and accountant.total_fj > 0
               for accountant in cap.accountants), (
        "energy capture recorded no charges")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("resolution", ["ca", "lt"])
def test_checked_run_only_adds_observation_not_events(resolution):
    """With monitors *enabled* the simulation must still be identical —
    checkers record grants/accepts/beats, they never schedule events."""
    from repro.check import checked

    plain = platform_run(resolution)
    with checked() as session:
        monitored = platform_run(resolution)
    assert monitored == plain
    assert session.checkers, "checked() saw no simulators"
    assert session.finalize() == []


def _two_phase_run():
    from repro.platforms.config import TwoPhaseSpec

    return Run(quick_config(two_phase=TwoPhaseSpec(fraction=0.5,
                                                   idle_multiplier=4)),
               10**13)


def _paused_then_finished(at_ps):
    """A two-phase quick run's checkpoint at ``at_ps``, then its finish."""
    from repro.snapshot import checkpoint_here

    run = _two_phase_run()
    run.advance(at_ps)
    return checkpoint_here(run), run.finish()


def test_capture_changes_neither_checkpoint_state_nor_result():
    """The Fig. 6 interface probe exists only under a capture; the state
    a checkpoint records (the phase-2 entry count included) and the final
    result are the same with or without it."""
    from repro.obs import capture

    end_ps = _two_phase_run().finish().sim_time_ps
    plain, plain_done = _paused_then_finished(end_ps * 3 // 4)
    with capture():
        traced, traced_done = _paused_then_finished(end_ps * 3 // 4)
    assert plain.state["components"]["platform"]["phase2_entries"] > 0
    assert (traced.at_ps, traced.events) == (plain.at_ps, plain.events)
    assert traced.state == plain.state
    assert traced.state_digest == plain.state_digest
    assert traced_done == plain_done


def test_fig6_pool_workers_probe_their_own_runs():
    """A pool worker has no ambient capture: it attaches its own, so the
    fanned-out Fig. 6 report equals the serial one."""
    from repro.experiments import fig6_lmi_statistics

    serial = fig6_lmi_statistics.run(traffic_scale=0.1, jobs=1)
    assert fig6_lmi_statistics.run(traffic_scale=0.1, jobs=2) == serial
