"""Machine-independent cost guard for the per-transaction hot path.

What a cycle-accurate platform run costs on the host is, to first order,
the number of Python frames it enters: every call into ``src/repro`` and
every generator resume.  That number is exact — the same at every run,
seed and hash seed — so it can be budgeted without a stopwatch, in the
spirit of ``tests/test_stall_cost.py``.  Each case profiles
``platform.run()`` of one small fixed configuration and requires

* calls + resumes per transaction within a committed budget (what this
  tree measured on Python 3.11, plus 3 %; a ``<=``, so 3.12's inlined
  comprehensions pass), and
* *zero* calls to the accessors the hot path reads as fields instead
  (``docs/PERFORMANCE.md``, "The hot path reads fields") and the helpers
  whose per-beat bookkeeping it does in place ("One frame per resume"):
  they stay public for tests, reports and ``diagnose``, but a run must not
  pay a frame to read the time, an event's state or a beat's kind, to
  divide a beat by the bus width or to add busy time.
"""

import cProfile
from pathlib import Path

import pytest

import repro
from repro.core import Clock, Event, Simulator
from repro.interconnect import Fabric, ResponseBeat
from repro.obs import InterfaceProbe
from repro.platforms import (build_platform, fig3_instances, fig5_instances,
                             instance, onchip_memory, quick_config)

SRC = str(Path(repro.__file__).resolve().parent)

#: case -> (configuration, calls + resumes per transaction as measured).
CASES = {
    "quick_ca": (lambda: quick_config(traffic_scale=0.03, seed=1), 545.17),
    "quick_lt": (lambda: quick_config(traffic_scale=0.03, seed=1,
                                      resolution="lt"), 466.78),
    "distributed_axi": (lambda: fig3_instances(0.05)["distributed_axi"],
                        786.60),
    "full_ahb": (lambda: fig3_instances(0.05)["full_ahb"], 539.75),
    # LT's two costliest fabrics: AXI's four channel processes and the
    # STBus response path, each woken only by work it can act on.
    "distributed_axi_lt": (lambda: fig3_instances(0.05)["distributed_axi"]
                           .scaled(resolution="lt"), 523.60),
    "full_stbus_lt": (lambda: fig3_instances(0.05)["full_stbus"]
                      .scaled(resolution="lt"), 652.30),
    # The engines whose LT response path takes exact runs: the AHB layer
    # and the spec-driven channel engine.
    "full_ahb_lt": (lambda: fig3_instances(0.05)["full_ahb"]
                    .scaled(resolution="lt"), 444.05),
    "generic_tilelink_lt": (lambda: instance(
        "tilelink", "distributed", onchip_memory(1), traffic_scale=0.05)
        .scaled(resolution="lt"), 489.00),
    # The LMI engine behind a collapsed AXI fabric: the one benchmarked
    # memory process the cases above do not reach.
    "lmi_collapsed_axi": (lambda: fig5_instances(0.05)["collapsed_axi"],
                          717.55),
    # The same platform loosely timed: its lightweight bridges commit
    # whole response packets and the LMI whole read groups, the LT path
    # that moves most.
    "lmi_collapsed_axi_lt": (lambda: fig5_instances(0.05)["collapsed_axi"]
                             .scaled(resolution="lt"), 472.45),
}
HEADROOM = 1.03

#: Read as fields, or done in place, on the hot path; never called during
#: a run.  ``bus_cycles_for_beat`` stays public for cold callers (AHB's
#: energy charge).
ZERO_CALLS = [
    Simulator.now.fget,
    Event.triggered.fget,
    Event.processed.fget,
    ResponseBeat.is_write_ack.fget,
    Clock.to_ps,
    Fabric.bus_cycles_for_beat,
    # The Fig. 6 probe exists only under a capture: a run without one
    # never enters its FIFO listener or its request-channel report.
    InterfaceProbe._on_level,
    InterfaceProbe.storing,
]


def _profiled_run(config):
    """``{code object: frame entries}`` under ``src/repro`` for one
    ``platform.run()``, and the transactions it completed."""
    platform = build_platform(Simulator(), config)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = platform.run()
    finally:
        profile.disable()
    entries = {entry.code: entry.callcount for entry in profile.getstats()
               if not isinstance(entry.code, str)
               and entry.code.co_filename.startswith(SRC)}
    return entries, result.transactions


@pytest.mark.parametrize("case", sorted(CASES))
def test_calls_per_transaction_stay_within_budget(case):
    make_config, measured = CASES[case]
    entries, transactions = _profiled_run(make_config())
    per_txn = sum(entries.values()) / transactions
    assert per_txn <= measured * HEADROOM, (
        f"{case}: {per_txn:.2f} calls + resumes per transaction, budget "
        f"{measured * HEADROOM:.2f}")
    called = {fn.__qualname__: entries[fn.__code__] for fn in ZERO_CALLS
              if fn.__code__ in entries}
    assert not called, f"{case}: accessors called on the hot path: {called}"
