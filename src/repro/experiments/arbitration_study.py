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

from typing import Dict, List, Optional, Tuple

from ..core.kernel import Simulator
from ..interconnect.arbiter import (
    FixedPriority,
    LeastRecentlyGranted,
    RoundRobin,
    WeightedLottery,
)
from ..interconnect.stbus import StbusNode
from ..interconnect.types import AddressRange, StbusType
from ..memory.onchip import OnChipMemory
from ..obs.export import format_table
from ..sweep import parallel_map
from ..traffic.iptg import Iptg, IptgPhase
from ..traffic.patterns import Fixed, Sequential
from .common import claim

_REGION = 1 << 16


def _make_arbiters():
    return {
        "fixed_priority": FixedPriority(),
        "round_robin": RoundRobin(),
        "lru": LeastRecentlyGranted(),
        "lottery": WeightedLottery(seed=7),
    }


def _run_policy(arbiter, initiators: int, transactions: int) -> Dict:
    sim = Simulator()
    clk = sim.clock(freq_mhz=200, name="clk")
    node = StbusNode(sim, "node", clk, data_width_bytes=4,
                     bus_type=StbusType.T2, arbiter=arbiter,
                     message_arbitration=False)
    port = node.add_target("mem", AddressRange(0, _REGION * initiators),
                           request_depth=2, response_depth=4)
    OnChipMemory(sim, "mem", port, clk, wait_states=1, width_bytes=4)
    iptgs = []
    for i in range(initiators):
        phase = IptgPhase(
            transactions=transactions,
            burst_beats=Fixed(8), beat_bytes=4,
            idle_cycles=Fixed(0), read_fraction=1.0,
            # Higher index = higher hard-wired priority.
            priority=i,
            address_pattern=Sequential(i * _REGION, _REGION))
        ip = node.connect_initiator(f"ip{i}", max_outstanding=2)
        iptgs.append(Iptg(sim, f"ip{i}", ip, [phase], seed=20 + i))
    finish = {}
    sim.all_of([ip.done for ip in iptgs]).add_callback(
        lambda _e: finish.update(ps=sim.now))
    sim.run(until=1_000_000_000_000)
    if "ps" not in finish:
        raise RuntimeError("arbitration study run did not finish")
    latencies = [ip.mean_latency_ps() for ip in iptgs]
    return {
        "execution_ps": finish["ps"],
        "mean_latency_per_ip": latencies,
        "spread": max(latencies) / max(1.0, min(latencies)),
    }


def _policy_job(payload: Tuple[str, int, int]) -> Dict:
    """Picklable worker: the arbiter is rebuilt by name inside the job."""
    name, initiators, transactions = payload
    return _run_policy(_make_arbiters()[name], initiators, transactions)


def run(initiators: int = 6, transactions: int = 40,
        jobs: Optional[int] = None) -> Dict:
    """Run every policy on the same saturated many-to-one workload."""
    names = list(_make_arbiters())
    results = parallel_map(
        _policy_job, [(name, initiators, transactions) for name in names],
        jobs=jobs)
    return dict(zip(names, results))


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
