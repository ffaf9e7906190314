"""Kernel performance scenarios and the regression harness behind them.

The paper's virtual platform earns its keep by being *fast enough* to sweep
large design spaces; this module keeps us honest about that.  It defines the
canonical kernel throughput scenarios (the ones
``tests/test_kernel_fastpath.py`` asserts determinism on), times them with
``time.perf_counter`` and emits a machine-readable ``BENCH_kernel.json`` so
every PR leaves a performance trajectory behind it.

Schema of the output file — one entry per scenario::

    {
      "timeout_storm": {
        "wall_s": 0.0081,          # best-of-N wall-clock seconds
        "events": 8008,            # kernel events processed (determinism probe)
        "events_per_sec": 988642.0,
        "sim_time_ps": 14000       # simulated time covered
      },
      ...
    }

The ``platform_run`` entry additionally records ``"energy_pj"`` — the
quick platform's total energy from a separate, untimed accountant-enabled
run (see ``docs/OBSERVABILITY.md``, "Energy accounting") — so the file
tracks the platform's energy trajectory next to its event trajectory.

Run it via ``repro bench`` (see ``docs/PERFORMANCE.md``) or programmatically
through :func:`run_benchmarks`.  Every scenario returns
``(processed_events, sim_time_ps)`` and must be deterministic: identical
event counts across runs and across kernel refactors are the regression
guard that a "faster" kernel still simulates the same platform.

Scenarios accept the simulation ``resolution`` (``"ca"`` or ``"lt"``, see
``docs/FAST_SIM.md``); each result entry records it under ``"mode"``.  The
two modes schedule *different* event populations by design, so baselines
are only comparable within the same mode — ``benchmarks/ci_gate.py`` pins
the CA counts, ``benchmarks/lt_gate.py`` owns the LT accuracy/speedup
contract.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, Optional, Tuple

from .core import Fifo, Simulator

#: A scenario callable:
#: ``fn(scale, resolution) -> (processed_events, sim_time_ps)``.
Scenario = Callable[[float, str], Tuple[int, int]]


def timeout_storm(scale: float = 1.0,
                  resolution: str = "ca") -> Tuple[int, int]:
    """Raw event churn: four processes racing through bare timeouts.

    Measures the kernel's floor cost per event — Timeout construction, heap
    traffic and process resumption, nothing else.  (Timeouts are genuine
    time advances, so the LT mode changes almost nothing here.)
    """
    rounds = max(1, int(2_000 * scale))
    sim = Simulator(resolution=resolution)

    def pinger():
        for _ in range(rounds):
            yield sim.timeout(7)

    for _ in range(4):
        sim.process(pinger())
    sim.run()
    return sim.processed_events, sim.now


def fifo_pipeline(scale: float = 1.0,
                  resolution: str = "ca") -> Tuple[int, int]:
    """Items flowing through a 4-stage bounded FIFO pipeline.

    Exercises the blocking put/get hand-off — the pattern every bus queue,
    bridge FIFO and LMI input queue in the platform is built from.  In LT
    mode the hand-offs resolve through the inline trampoline, so this is
    the scenario that shows the kernel-primitive half of the LT win.
    """
    items = max(1, int(1_000 * scale))
    sim = Simulator(resolution=resolution)
    stages = [Fifo(sim, 4, name=f"s{i}") for i in range(4)]

    def feeder():
        for i in range(items):
            yield stages[0].put(i)

    def mover(src, dst):
        while True:
            item = yield src.get()
            yield dst.put(item)

    def sink():
        for _ in range(items):
            yield stages[-1].get()

    sim.process(feeder())
    for a, b in zip(stages, stages[1:]):
        sim.process(mover(a, b))
    sim.process(sink())
    sim.run(until=10_000_000_000, max_events=10_000_000)
    return sim.processed_events, sim.now


def clock_edges(scale: float = 1.0,
                resolution: str = "ca") -> Tuple[int, int]:
    """Multi-domain clock-edge waits: the pooled-timeout fast path.

    Three processes spinning on 400/250/166 MHz edges — the steady-state
    shape of every cycle-accurate bus model in the platform.  Clock edges
    are genuine time advances, so LT leaves this scenario unchanged.
    """
    edges = max(1, int(3_000 * scale))
    sim = Simulator(resolution=resolution)
    clocks = [sim.clock(freq_mhz=mhz, name=f"clk{mhz}")
              for mhz in (400, 250, 166)]

    def spinner(clk):
        for _ in range(edges):
            yield clk.edge()

    for clk in clocks:
        sim.process(spinner(clk))
    sim.run()
    return sim.processed_events, sim.now


def platform_run(scale: float = 1.0,
                 resolution: str = "ca") -> Tuple[int, int]:
    """A full reference-platform run (quick configuration).

    End-to-end cost with the bus/memory models in the loop: the closest
    proxy for what a design-space sweep iteration costs.  ``scale`` is
    ignored — the quick configuration is already the smallest deterministic
    platform workload.  With ``resolution="lt"`` this is the headline
    dual-resolution scenario: contention-free stretches are fast-forwarded
    analytically (docs/FAST_SIM.md quotes its numbers).
    """
    from .platforms import quick_config
    from .sweep import Run

    done = Run(quick_config(resolution=resolution), 10**13).finish()
    return done.events, done.sim_time_ps


def sweep_fanout(scale: float = 1.0,
                 resolution: str = "ca") -> Tuple[int, int]:
    """A small design-space sweep fanned out over two worker processes.

    Measures the sweep engine's end-to-end cost — config serialisation,
    pool dispatch and result aggregation — on top of the simulations
    themselves.  Caching is disabled so every repeat actually simulates;
    the per-config event counts are summed, so the scenario is exactly as
    deterministic as the serial path it fans out (``tests/test_sweep.py``
    pins the 2-job/serial identity per configuration).
    """
    from .platforms import quick_config
    from .sweep import sweep as run_sweep

    points = max(2, int(4 * scale))
    configs = [quick_config(traffic_scale=0.05 + 0.02 * i,
                            resolution=resolution)
               for i in range(points)]
    outcomes = run_sweep(configs, max_ps=10**13, jobs=2, cache=False)
    events = sum(outcome.events for outcome in outcomes)
    sim_time = max(outcome.sim_time_ps for outcome in outcomes)
    return events, sim_time


SCENARIOS: Dict[str, Scenario] = {
    "timeout_storm": timeout_storm,
    "fifo_pipeline": fifo_pipeline,
    "clock_edges": clock_edges,
    "platform_run": platform_run,
    "sweep_fanout": sweep_fanout,
}


def _platform_energy_pj(resolution: str) -> float:
    """Total quick-platform energy in pJ, from a separate untimed run.

    The timed ``platform_run`` repeats stay on the uninstrumented fast
    path (the wall-clock numbers must keep measuring the disabled-path
    cost); this extra run attaches the accountant and stamps the energy
    total into the result entry so ``BENCH_kernel.json`` tracks the
    platform's energy trajectory alongside its event trajectory.  Like
    the event counts, the total is deterministic per mode.
    """
    import dataclasses

    from .platforms import quick_config
    from .sweep import Run

    config = quick_config(resolution=resolution)
    config = config.scaled(
        energy=dataclasses.replace(config.energy, enabled=True))
    return Run(config, 10**13).finish().result.energy_total_pj


def run_benchmarks(names: Optional[Iterable[str]] = None, repeats: int = 3,
                   scale: float = 1.0,
                   resolution: str = "ca") -> Dict[str, Dict[str, float]]:
    """Time the named scenarios (default: all) and return the result table.

    Each scenario gets one untimed warm-up run, then ``repeats`` timed runs;
    the best wall-clock is reported (the noise floor of a busy machine only
    ever slows a run down).  ``resolution`` selects the simulation mode the
    scenarios run at and is recorded in every entry as ``"mode"``.  Raises
    ``KeyError`` on an unknown scenario name, ``ValueError`` on an unknown
    resolution.
    """
    if resolution not in ("ca", "lt"):
        raise ValueError(f"unknown resolution {resolution!r}; "
                         f"expected 'ca' or 'lt'")
    selected = list(names) if names is not None else list(SCENARIOS)
    unknown = [name for name in selected if name not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown bench scenario(s): {unknown}; "
                       f"available: {sorted(SCENARIOS)}")
    results: Dict[str, Dict[str, float]] = {}
    for name in selected:
        fn = SCENARIOS[name]
        # Warm-up (and the determinism sample).
        events, sim_time = fn(scale, resolution)
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run_events, run_sim_time = fn(scale, resolution)
            elapsed = time.perf_counter() - start
            if (run_events, run_sim_time) != (events, sim_time):
                raise RuntimeError(
                    f"scenario {name!r} is non-deterministic: "
                    f"{(run_events, run_sim_time)} != {(events, sim_time)}")
            best = min(best, elapsed)
        results[name] = {
            "wall_s": best,
            "events": events,
            "events_per_sec": events / best if best > 0 else float("inf"),
            "sim_time_ps": sim_time,
            "mode": resolution,
        }
        if name == "platform_run":
            results[name]["energy_pj"] = _platform_energy_pj(resolution)
    return results


def write_results(path: str, results: Dict[str, Dict[str, float]]) -> None:
    """Persist a :func:`run_benchmarks` table as ``BENCH_kernel.json``."""
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_results(results: Dict[str, Dict[str, float]]) -> str:
    """Human-readable rendering of a result table."""
    lines = [f"{'scenario':<16}{'mode':<6}{'events':>10}{'wall_s':>12}"
             f"{'events/sec':>14}{'sim_time_ps':>16}"]
    for name, row in results.items():
        mode = row.get("mode", "ca")
        lines.append(f"{name:<16}{mode:<6}{row['events']:>10,.0f}"
                     f"{row['wall_s']:>12.4f}"
                     f"{row['events_per_sec']:>14,.0f}{row['sim_time_ps']:>16,.0f}")
    return "\n".join(lines)
