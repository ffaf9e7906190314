"""Bench guard: the instrumentation layer must cost nothing when disabled.

The observability hooks follow the kernel's select-once discipline — with no
active capture, ``sim._spans`` stays ``None``, no FIFO watcher is attached
and no mark is recorded.  These tests pin that down against the PR 1 kernel
baseline (``BENCH_kernel.json``):

* **Hard, deterministic assertion** — disabled-tracing runs process exactly
  the baseline's event counts and reach exactly its simulated times.  Any
  hook that schedules events or perturbs ordering fails this immediately,
  on any machine.
* **Catastrophic wall-clock guard** — the smoke-scale throughput must stay
  within a generous factor of the recorded baseline.  No tighter wall-clock
  gate exists anywhere: ``benchmarks/ci_gate.py`` gates exact counts and
  prints events/sec report-only (see docs/CI.md), because a tight threshold
  flakes on busy CI boxes.
"""

import json
from pathlib import Path

import pytest

from repro import bench

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"

#: Wall-clock may legitimately wobble on shared machines; only a collapse
#: below this fraction of the recorded baseline throughput fails.
CATASTROPHIC_FACTOR = 0.3

#: Scenarios whose full-scale shape is pinned by the baseline file.
GUARDED = ("timeout_storm", "platform_run")


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE_PATH.read_text())


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", GUARDED)
def test_disabled_tracing_matches_baseline_event_counts(baseline, scenario):
    events, sim_time = bench.SCENARIOS[scenario](1.0)
    assert events == baseline[scenario]["events"], (
        f"{scenario}: event count drifted from BENCH_kernel.json — "
        "an observability hook is perturbing the simulation")
    assert sim_time == baseline[scenario]["sim_time_ps"]


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", GUARDED)
def test_disabled_tracing_throughput_not_collapsed(baseline, scenario):
    results = bench.run_benchmarks(names=[scenario], repeats=3, scale=1.0)
    measured = results[scenario]["events_per_sec"]
    floor = baseline[scenario]["events_per_sec"] * CATASTROPHIC_FACTOR
    assert measured >= floor, (
        f"{scenario}: {measured:,.0f} events/s vs baseline "
        f"{baseline[scenario]['events_per_sec']:,.0f} — tracing hooks are "
        "taxing the disabled path; run 'repro bench' to confirm")


@pytest.mark.bench_smoke
def test_capture_only_adds_observation_not_events():
    """With tracing *enabled* the simulation must still be identical —
    capture observes event timing, it never schedules events of its own."""
    from repro.obs import capture

    plain = bench.SCENARIOS["platform_run"](1.0)
    with capture() as cap:
        traced = bench.SCENARIOS["platform_run"](1.0)
    assert traced == plain
    assert cap.completed(), "capture saw no transactions"


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", GUARDED)
def test_checks_disabled_matches_baseline_event_counts(baseline, scenario):
    """The ``repro.check`` hook sites (FIFO bounds guards, fabric
    grant/accept/beat notifications) must not perturb the simulation when
    no check session is active: event counts stay pinned to the PR 1
    baseline.  This is the monitors-disabled half of the <2% overhead
    claim — the guards are plain attribute tests that schedule nothing."""
    from repro.core import kernel as _kernel

    assert not _kernel._new_sim_hooks, "a stray session hook is installed"
    events, sim_time = bench.SCENARIOS[scenario](1.0)
    assert events == baseline[scenario]["events"], (
        f"{scenario}: event count drifted from BENCH_kernel.json — "
        "a check guard is perturbing the disabled path")
    assert sim_time == baseline[scenario]["sim_time_ps"]


@pytest.mark.bench_smoke
def test_checks_disabled_throughput_not_collapsed(baseline):
    """Monitors-disabled throughput stays pinned to BENCH_kernel.json.

    The authoritative <2% regression gate is a full ``repro bench``
    against the committed baseline; here the smoke-tier catastrophic
    factor catches a guard accidentally landing on the per-event path."""
    results = bench.run_benchmarks(names=["platform_run"], repeats=3,
                                   scale=1.0)
    measured = results["platform_run"]["events_per_sec"]
    floor = baseline["platform_run"]["events_per_sec"] * CATASTROPHIC_FACTOR
    assert measured >= floor, (
        f"platform_run: {measured:,.0f} events/s vs baseline "
        f"{baseline['platform_run']['events_per_sec']:,.0f} — the invariant "
        "checkers are taxing the disabled path; run 'repro bench'")


@pytest.mark.bench_smoke
@pytest.mark.parametrize("scenario", GUARDED)
def test_energy_disabled_matches_baseline_event_counts(baseline, scenario):
    """The energy taps must not perturb the disabled path: with no
    accountant attached, ``sim._energy`` stays ``None`` and every tap is
    a dormant attribute test — event counts stay pinned to the PR 1
    baseline exactly like the tracing and checking hooks."""
    from repro.core import kernel as _kernel

    assert not _kernel._new_sim_hooks, "a stray session hook is installed"
    events, sim_time = bench.SCENARIOS[scenario](1.0)
    assert events == baseline[scenario]["events"], (
        f"{scenario}: event count drifted from BENCH_kernel.json — "
        "an energy tap is perturbing the disabled path")
    assert sim_time == baseline[scenario]["sim_time_ps"]


@pytest.mark.bench_smoke
def test_energy_capture_only_adds_observation_not_events():
    """With the accountant *attached* the simulation must still be
    identical — charges are integer adds on existing events, the
    accountant never schedules anything of its own."""
    from repro.obs import capture

    plain = bench.SCENARIOS["platform_run"](1.0)
    with capture(energy=True) as cap:
        accounted = bench.SCENARIOS["platform_run"](1.0)
    assert accounted == plain
    assert any(accountant is not None and accountant.total_fj > 0
               for accountant in cap.accountants), (
        "energy capture recorded no charges")


@pytest.mark.bench_smoke
def test_checked_run_only_adds_observation_not_events():
    """With monitors *enabled* the simulation must still be identical —
    checkers record grants/accepts/beats, they never schedule events."""
    from repro.check import checked

    plain = bench.SCENARIOS["platform_run"](1.0)
    with checked() as session:
        monitored = bench.SCENARIOS["platform_run"](1.0)
    assert monitored == plain
    assert session.checkers, "checked() saw no simulators"
    assert session.finalize() == []
