"""Arbitration-policy study (extension).

The related-work section surveys resource-sharing mechanisms —
priority-based policies, token/TDMA schemes and lottery-style bandwidth
allocation — and cites the authors' earlier analysis of arbitration
policies [13].  This experiment reruns that comparison on our single-layer
memory-centric setup: same traffic, four arbiters, measuring execution
time (efficiency) and the per-initiator mean-latency spread (fairness).

Expected shape: under a saturated many-to-one pattern, throughput is
memory-bound and near-identical across policies, but *fairness* is not —
fixed priority starves the low-priority initiators (large latency spread)
while round-robin/LRU keep the spread tight; the lottery sits in between,
steering bandwidth by ticket share.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import format_table
from ..platforms.config import PlatformConfig
from ..platforms.netlist import NetEntry
from .common import claim, run_configs

_REGION = 1 << 16

#: The compared arbiters, by their netlist names.
POLICIES = ("fixed_priority", "round_robin", "lru", "lottery")


def policy_config(policy: str, initiators: int,
                  transactions: int) -> PlatformConfig:
    """``initiators`` back-to-back burst readers on one STBus Type-2 node
    arbitrated by ``policy``, all reading one 1-wait-state memory.  A
    higher initiator index carries a higher hard-wired priority."""
    return PlatformConfig(netlist=(
        NetEntry.of("fabric", "node", arbiter=policy,
                    message_arbitration=False),
        NetEntry.of("onchip", "mem", fabric="node", base=0,
                    span=_REGION * initiators, request_depth=2,
                    response_depth=4),
        *(NetEntry.of("iptg", f"ip{i}", fabric="node", base=i * _REGION,
                      span=_REGION, transactions=transactions, seed=20 + i,
                      priority=i, max_outstanding=2)
          for i in range(initiators))))


def run(initiators: int = 6, transactions: int = 40,
        jobs: Optional[int] = None) -> Dict:
    """Run every policy on the same saturated many-to-one workload."""
    results = run_configs([policy_config(policy, initiators, transactions)
                           for policy in POLICIES], jobs=jobs)
    data = {}
    for policy, result in zip(POLICIES, results):
        latencies = [result.extra[f"ip{i}.mean_latency_ps"]
                     for i in range(initiators)]
        data[policy] = {
            "execution_ps": result.execution_time_ps,
            "mean_latency_per_ip": latencies,
            "spread": max(latencies) / max(1.0, min(latencies)),
        }
    return data


def report(data: Dict) -> str:
    headers = ["policy", "exec (ns)", "latency spread (max/min)",
               "worst-ip latency (ns)"]
    rows = []
    for name, entry in data.items():
        rows.append([name, entry["execution_ps"] / 1000, entry["spread"],
                     max(entry["mean_latency_per_ip"]) / 1000])
    header = ("Arbitration policies on a saturated many-to-one layer "
              "(efficiency vs fairness)\n")
    return header + format_table(headers, rows, float_digits=2)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    exec_times = [entry["execution_ps"] for entry in data.values()]
    claim(failures, max(exec_times) / min(exec_times) < 1.15,
          "throughput is memory-bound: policies within 15% on execution time")
    claim(failures,
          data["fixed_priority"]["spread"] > 2 * data["round_robin"]["spread"],
          "fixed priority starves low-priority initiators "
          "(latency spread >> round robin's)")
    claim(failures, data["round_robin"]["spread"] < 1.5,
          "round robin is fair (spread < 1.5)")
    claim(failures, data["lru"]["spread"] < 1.5,
          "LRU is fair (spread < 1.5)")
    return failures
