#!/usr/bin/env python3
"""Bottleneck diagnosis from the memory-controller interface (Section 5).

"Should low bandwidth communication be monitored at the I/O interface,
this might be due to the actual inefficiency of the memory controller or
to the poor performance of the system interconnect" — and the cure is the
Fig. 6 instrument: classify every cycle at the LMI bus interface.

This example runs the same traffic through a split-capable STBus platform
and a blocking-bridge AHB platform and shows how the interface statistics
point at two different bottlenecks.

Run with::

    python examples/bottleneck_analysis.py
"""

from repro.obs import STATE_FULL, STATE_IDLE, STATE_STORING, breakdown_chart, capture
from repro.platforms import instance, lmi_memory
from repro.sweep import Run

SPARK_GLYPHS = " .:-=+*#%@"


def sparkline(times_ps, end_ps: int, width: int = 50) -> str:
    """One glyph per time bin, scaled to the busiest bin's event count."""
    counts = [0] * width
    for t in times_ps:
        counts[min(width - 1, t * width // end_ps)] += 1
    peak = max(counts) or 1
    steps = len(SPARK_GLYPHS) - 1
    return "".join(SPARK_GLYPHS[round(steps * count / peak)]
                   for count in counts)


def diagnose(label: str, protocol: str) -> None:
    config = instance(protocol, "distributed", lmi_memory(),
                      traffic_scale=0.4)
    with capture() as cap:
        run = Run(config, max_ps=20_000_000_000_000)
        result = run.finish().result
    # Section 5 instrument #2: memory bandwidth over time, from the
    # capture's per-request mark at the moment the LMI dequeues it.
    recorder = cap.recorders[0]
    dequeues = [t for txn in recorder.transactions
                for stage, t in recorder.marks(txn) if stage == "lmi.engine"]
    report = run.platform.monitor.report()
    print(f"\n--- {label} ---")
    print(breakdown_chart(report, (STATE_FULL, STATE_STORING, STATE_IDLE)))
    print(f"memory txn rate over time: "
          f"|{sparkline(dequeues, result.execution_time_ps)}|")
    row = next(iter(report.values()))
    if row[STATE_FULL] > 0.25:
        verdict = ("memory controller saturated: the interconnect delivers "
                   "more than the LMI can drain -> optimise the memory/IO "
                   "architecture")
    elif row[STATE_IDLE] > 0.85:
        verdict = ("memory controller starving: requests are stuck in the "
                   "interconnect -> the system interconnect is the "
                   "bottleneck (blocking bridges, no split transactions)")
    else:
        verdict = "balanced operation"
    print(f"execution time: {result.execution_time_ps / 1_000_000:.1f} us")
    print(f"diagnosis: {verdict}")


def main() -> None:
    print("Bottleneck analysis via LMI bus-interface statistics")
    diagnose("full STBus platform (split GenConv bridges)", "stbus")
    diagnose("full AHB platform (blocking bridges)", "ahb")


if __name__ == "__main__":
    main()
