#!/usr/bin/env python3
"""Multi-abstraction simulation: transaction-level vs cycle-accurate.

The paper's virtual platform is explicitly multi-abstraction — traffic can
be simulated at "transaction-level [or] bus cycle-accurate" detail.  This
example runs the same collapsed platform at both tiers and reports the
accuracy/speed trade: the TLM tier should land within a few tens of
percent on execution time while processing far fewer kernel events.

Run with::

    python examples/abstraction_levels.py
"""

import time

from repro.core import Simulator
from repro.obs import format_table
from repro.platforms import build_platform, onchip_memory, instance
from repro.platforms.config import CpuConfig


def saturating_clusters():
    """Back-to-back traffic so the memory, not generation, sets the pace
    (the regime where abstraction accuracy actually matters)."""
    from dataclasses import replace

    from repro.platforms import reference_clusters

    return tuple(
        replace(cluster, ips=tuple(replace(ip, idle_cycles=0)
                                   for ip in cluster.ips))
        for cluster in reference_clusters())


def run_tier(abstraction: str):
    config = instance("stbus", "collapsed", onchip_memory(1),
                      abstraction=abstraction,
                      clusters=saturating_clusters(),
                      cpu=CpuConfig(enabled=False),
                      traffic_scale=0.5)
    sim = Simulator()
    started = time.perf_counter()
    result = build_platform(sim, config).run(max_ps=10**13)
    wall = time.perf_counter() - started
    return result, sim.processed_events, wall


def main() -> None:
    print("Multi-abstraction platform simulation\n")
    cycle, cycle_events, cycle_wall = run_tier("cycle")
    tlm, tlm_events, tlm_wall = run_tier("tlm")
    rows = [
        ["cycle-accurate", cycle.execution_time_ps / 1e6, cycle_events,
         cycle_wall * 1000],
        ["transaction-level", tlm.execution_time_ps / 1e6, tlm_events,
         tlm_wall * 1000],
    ]
    print(format_table(
        ["tier", "simulated exec (us)", "kernel events", "wall time (ms)"],
        rows, float_digits=2))
    error = abs(tlm.execution_time_ps - cycle.execution_time_ps) \
        / cycle.execution_time_ps
    speedup = cycle_events / max(1, tlm_events)
    print(f"\nTLM accuracy: {error:.1%} execution-time deviation")
    print(f"TLM event reduction: {speedup:.1f}x fewer kernel events")
    print("\nFlow: explore broadly at transaction level, confirm the "
          "short-list cycle-accurately (Section 3's multi-abstraction "
          "methodology).")


if __name__ == "__main__":
    main()
