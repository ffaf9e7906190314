"""Fig. 6 — cycle-state statistics at the LMI bus interface.

The paper dissects two working regimes of the full STBus platform:

* phase 1 (intensive): "the FIFO of the bus interface is full for 47% of
  the time ... for 29% of the time there are no incoming requests ... and
  for remaining 24% the bus interface is storing new memory access
  requests.  The FIFO is empty only for a marginal time fraction."
* phase 2 (bursty, lower average intensity): "the time percentage during
  which the FIFO is full remains unaltered, while the FIFO is empty for a
  longer time."

And for the full AHB platform: "the FIFO is never full (since our AHB
implementation does not support split transactions) and ... for 98% of the
time there are no incoming requests.  This clearly indicates that the
system interconnect is the performance bottleneck, and not the memory
controller."
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional

from ..obs import STATE_FULL, STATE_IDLE, STATE_STORING, capture
from ..obs.export import breakdown_chart
from ..platforms.config import TwoPhaseSpec, reference_clusters
from ..platforms.loader import config_from_dict, config_to_dict
from ..platforms.variants import instance, lmi_memory
from ..sweep import Run, _pool_map, capture_active, default_jobs
from .common import claim


def _moderated_clusters(idle_scale: int, phase_time_ns: int = 60_000):
    """The reference clusters, re-paced for the Fig. 6 instrument.

    Two adjustments relative to the Fig. 3/5 stress programs:

    * idle gaps are scaled up so phase 1 is *intensive but not saturating*
      (the FIFO is full ~47% of the time, not ~90%);
    * per-IP transaction counts are rebalanced so every generator's phase 1
      lasts about ``phase_time_ns`` — the working regimes are then platform
      -wide phases, not a blur of per-IP transitions.
    """
    clusters = []
    for cluster in reference_clusters():
        ips = []
        for ip in cluster.ips:
            idle = max(1, ip.idle_cycles) * idle_scale
            per_txn_cycles = idle + ip.burst_beats + 6
            cycles_available = phase_time_ns * cluster.freq_mhz / 1000.0
            transactions = max(8, int(cycles_available / per_txn_cycles))
            ips.append(replace(ip, idle_cycles=idle,
                               transactions=transactions))
        clusters.append(replace(cluster, ips=tuple(ips)))
    return tuple(clusters)


def _interface_report(document: Dict) -> Dict:
    """One config's per-phase LMI interface report.  The probe exists
    only under a capture: the ambient one of ``repro stats``, or one
    opened here (a pool worker has none)."""
    with nullcontext() if capture_active() else capture():
        point = Run(config_from_dict(document))
    point.finish()
    return point.platform.monitor.report()


def run(traffic_scale: float = 1.0, idle_scale: int = 26,
        jobs: Optional[int] = None) -> Dict:
    """Run the two-phase full STBus platform and the full AHB comparison,
    on the sweep pool when ``jobs`` > 1 and no capture is active."""
    memory = lmi_memory()
    two_phase = TwoPhaseSpec(fraction=0.7, idle_multiplier=1.2, burst_run=40)
    clusters = _moderated_clusters(idle_scale)
    protocols = ("stbus", "ahb")
    documents = [config_to_dict(instance(
        protocol, "distributed", memory, clusters=clusters,
        traffic_scale=traffic_scale, two_phase=two_phase))
        for protocol in protocols]
    jobs = default_jobs() if jobs is None else jobs
    reports = None
    if jobs > 1 and not capture_active():
        reports = _pool_map(_interface_report, documents, jobs,
                            timeout_s=None)
    if reports is None:
        reports = [_interface_report(document) for document in documents]
    return dict(zip(protocols, reports))


def report(data: Dict) -> str:
    states = (STATE_FULL, STATE_STORING, STATE_IDLE)
    lines = ["Fig. 6 — LMI bus-interface statistics, full STBus platform"]
    lines.append(breakdown_chart(data["stbus"], states))
    for phase, row in data["stbus"].items():
        lines.append(f"  {phase}: fifo empty {row['fifo_empty']:.0%}")
    lines.append("")
    lines.append("Full AHB platform (same instrument):")
    lines.append(breakdown_chart(data["ahb"], states))
    return "\n".join(lines)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    stbus = data["stbus"]
    phases = list(stbus)
    claim(failures, len(phases) == 2, "two working regimes observed")
    if len(phases) == 2:
        p1, p2 = stbus[phases[0]], stbus[phases[1]]
        claim(failures, 0.35 <= p1[STATE_FULL] <= 0.70,
              f"phase 1: FIFO full a large fraction (~47%), got "
              f"{p1[STATE_FULL]:.0%}")
        claim(failures, 0.05 <= p1[STATE_STORING] <= 0.40,
              f"phase 1: storing a sizeable fraction (~24%), got "
              f"{p1[STATE_STORING]:.0%}")
        claim(failures, 0.10 <= p1[STATE_IDLE] <= 0.50,
              f"phase 1: no-incoming-request ~29%, got {p1[STATE_IDLE]:.0%}")
        claim(failures, p1["fifo_empty"] <= 0.10,
              f"phase 1: FIFO empty only marginally, got "
              f"{p1['fifo_empty']:.0%}")
        claim(failures, p2["fifo_empty"] > 3 * max(p1["fifo_empty"], 0.02),
              "phase 2: FIFO empty for a clearly longer time (burstier)")
        claim(failures, p2[STATE_FULL] >= 0.02,
              "phase 2: the FIFO still fills during transients")
    ahb_phases = list(data["ahb"].values())
    claim(failures, all(row[STATE_FULL] <= 0.02 for row in ahb_phases),
          "AHB: the LMI input FIFO is (practically) never full")
    claim(failures, any(row[STATE_IDLE] >= 0.90 for row in ahb_phases),
          "AHB: ~no incoming requests (interconnect is the bottleneck)")
    return failures
