#!/usr/bin/env python3
"""Two simulation resolutions: cycle-accurate (CA) vs loosely timed (LT).

LT fast-forwards provably contention-free stretches analytically and
falls back to the cycle-accurate engine under contention (see
docs/FAST_SIM.md).  It changes how the models execute, not what they
model, so it still ranks candidates the way CA does.  This example runs
the two Fig. 5 collapsed platforms (STBus and AXI in front of the LMI
memory controller) at both resolutions, reports execution time, kernel
events and wall time, and checks that LT keeps the CA ordering.

Run with::

    python examples/abstraction_levels.py
"""

import time

from repro.obs import format_table
from repro.platforms import fig5_instances
from repro.sweep import Run

PLATFORMS = ("collapsed_stbus", "collapsed_axi")


def run(config):
    started = time.perf_counter()
    finished = Run(config).finish()
    wall = time.perf_counter() - started
    return finished.result.execution_time_ps / 1e6, finished.events, wall


def main() -> None:
    print("Fig. 5 collapsed platforms at both simulation resolutions\n")
    instances = fig5_instances(traffic_scale=0.3)
    exec_us = {}
    rows = []
    for name in PLATFORMS:
        for mode in ("ca", "lt"):
            exec_us[name, mode], events, wall = run(
                instances[name].scaled(resolution=mode))
            rows.append([name, mode, exec_us[name, mode], events,
                         wall * 1000])
    print(format_table(
        ["platform", "mode", "simulated exec (us)", "kernel events",
         "wall time (ms)"], rows, float_digits=2))

    print()
    for name in PLATFORMS:
        ca, lt = exec_us[name, "ca"], exec_us[name, "lt"]
        print(f"{name}: LT deviates {(lt - ca) / ca:+.2%} from CA")
    orders = {mode: sorted(PLATFORMS, key=lambda name: exec_us[name, mode])
              for mode in ("ca", "lt")}
    print(f"fastest first, CA: {' < '.join(orders['ca'])}")
    print(f"fastest first, LT: {' < '.join(orders['lt'])}")
    if orders["ca"] != orders["lt"]:
        raise SystemExit("LT ranks the platforms differently from CA")
    print("LT keeps the CA ordering: explore in LT, confirm the short-list "
          "in CA.")


if __name__ == "__main__":
    main()
