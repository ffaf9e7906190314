"""Section 4.1 — single-layer shared-bus experiments.

Two traffic patterns on one interconnect layer:

* **many-to-many** (§4.1.1): several initiators, several memory cores.
  Advanced protocols (STBus, AXI) mask slave wait states by serving
  parallel flows; AHB cannot.  "the two schemes perform similarly with bus
  utilizations up to 80% ... above that threshold AXI proves more robust
  ... however STBus was showed to bridge the performance gap by adding
  more buffering resources at the target interfaces."

* **many-to-one** (§4.1.2): one slave with 1 wait state.  Every protocol
  has a zero-handover mechanism, so all sustain the 50% response-channel
  efficiency bound and "simulations did not show significant differences".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import format_table
from ..platforms.config import PlatformConfig
from ..platforms.netlist import NetEntry
from ..platforms.result import RunResult
from .common import claim, run_configs

_REGION = 1 << 16


def layer_config(protocol: str, initiators: int, targets: int,
                 wait_states: int = 1, response_depth: int = 2,
                 request_depth: int = 1, transactions: int = 60,
                 idle_cycles: int = 0, read_fraction: float = 0.7,
                 max_outstanding: int = 4) -> PlatformConfig:
    """One shared 200 MHz, 32-bit ``layer`` with ``initiators`` IPTGs and
    ``targets`` memories.  The STBus node is Type 2: split and pipelined,
    but packet-atomic responses make target-side prefetch buffering
    matter (Type 3's shaped packets interleave and need it less)."""
    netlist = [NetEntry.of("fabric", "layer", protocol=protocol)]
    for t in range(targets):
        netlist.append(NetEntry.of(
            "onchip", f"mem{t}", fabric="layer",
            base=t * (_REGION * initiators),
            span=_REGION * initiators, wait_states=wait_states,
            request_depth=request_depth, response_depth=response_depth))
    for i in range(initiators):
        # Initiator i streams through "its" region of target i % targets.
        base = (i % targets) * (_REGION * initiators) + \
            (i // targets) * _REGION
        netlist.append(NetEntry.of(
            "iptg", f"ip{i}", fabric="layer", base=base, span=_REGION,
            transactions=transactions, seed=3 + i, idle_cycles=idle_cycles,
            read_fraction=read_fraction, max_outstanding=max_outstanding))
    return PlatformConfig(netlist=tuple(netlist))


# ----------------------------------------------------------------------
# §4.1.1 many-to-many
# ----------------------------------------------------------------------
def run_many_to_many(initiators: int = 8, targets: int = 4,
                     transactions: int = 50,
                     idle_sweep: Optional[List[int]] = None,
                     wait_states: int = 2, read_fraction: float = 0.9,
                     max_outstanding: int = 6,
                     jobs: Optional[int] = None) -> Dict:
    """Offered-load sweep (idle cycles down = load up) across protocols,
    plus the STBus target-buffering remedy at saturation.

    Minimum buffer stages everywhere for the load sweep (the [20] setup);
    the buffering series then grows the STBus target interfaces' prefetch
    and request FIFOs at the congested operating point.
    """
    if idle_sweep is None:
        idle_sweep = [200, 60, 20, 0]
    common = dict(initiators=initiators, targets=targets,
                  transactions=transactions, wait_states=wait_states,
                  read_fraction=read_fraction,
                  max_outstanding=max_outstanding)
    # Every independent layer run in one flat fan-out, regrouped below.
    plan = [layer_config(protocol, idle_cycles=idle, **common)
            for idle in idle_sweep for protocol in ("ahb", "stbus", "axi")]
    depths = ((1, 1), (2, 2), (4, 4), (8, 8))
    plan.extend(layer_config("stbus", idle_cycles=idle_sweep[-1],
                             response_depth=response_depth,
                             request_depth=request_depth, **common)
                for request_depth, response_depth in depths)
    # The crossbar instance of the same node: per-flow physical paths
    # remove the shared-channel contention altogether.
    plan.append(layer_config("stbus-xbar", idle_cycles=idle_sweep[-1],
                             **common))
    results = run_configs(plan, jobs=jobs)
    rows = []
    cursor = iter(results)
    for idle in idle_sweep:
        entry = {"idle_cycles": idle}
        for protocol in ("ahb", "stbus", "axi"):
            entry[protocol] = next(cursor)
        rows.append(entry)
    buffering_series = [(depth_pair, next(cursor)) for depth_pair in depths]
    crossbar = next(cursor)
    return {"rows": rows, "buffering_series": buffering_series,
            "crossbar": crossbar,
            "initiators": initiators, "targets": targets}


def report_many_to_many(results: Dict) -> str:
    headers = ["idle", "AHB (ns)", "STBus (ns)", "AXI (ns)",
               "STBus/AXI", "AHB/AXI"]
    body = []
    for row in results["rows"]:
        axi = row["axi"].execution_time_ns
        body.append([
            row["idle_cycles"],
            row["ahb"].execution_time_ns,
            row["stbus"].execution_time_ns,
            axi,
            row["stbus"].execution_time_ns / axi,
            row["ahb"].execution_time_ns / axi,
        ])
    table = format_table(headers, body, float_digits=2)
    congested = results["rows"][-1]
    axi = congested["axi"].execution_time_ns
    series = "\nSTBus target-buffering series at saturation (AXI = " \
             f"{axi:.0f} ns):"
    for (req_d, resp_d), result in results["buffering_series"]:
        series += (f"\n  req/resp FIFO {req_d}/{resp_d}: "
                   f"{result.execution_time_ns:.0f} ns "
                   f"({result.execution_time_ns / axi:.2f}x AXI)")
    xbar = results["crossbar"]
    series += (f"\nSTBus crossbar instance: {xbar.execution_time_ns:.0f} ns "
               f"({xbar.execution_time_ns / axi:.2f}x AXI)")
    return table + series


def check_many_to_many(results: Dict) -> List[str]:
    failures: List[str] = []
    light = results["rows"][0]
    congested = results["rows"][-1]
    axi_l = light["axi"].execution_time_ps
    stbus_l = light["stbus"].execution_time_ps
    claim(failures, abs(stbus_l - axi_l) / axi_l < 0.10,
          "STBus ~ AXI at light/moderate load (within 10%)")
    claim(failures,
          congested["ahb"].execution_time_ps
          > 1.5 * congested["axi"].execution_time_ps,
          "AHB clearly worse than AXI under many-to-many congestion")
    claim(failures,
          congested["stbus"].execution_time_ps
          >= congested["axi"].execution_time_ps,
          "AXI at least as good as minimum-buffer STBus at saturation")
    series = results["buffering_series"]
    shallow = series[0][1].execution_time_ps
    deep = series[-1][1].execution_time_ps
    axi_c = congested["axi"].execution_time_ps
    claim(failures, deep < shallow,
          "deeper target buffering speeds STBus up")
    claim(failures, abs(deep - axi_c) < abs(shallow - axi_c),
          "deeper target buffering closes the STBus-AXI gap")
    claim(failures,
          all(series[i][1].execution_time_ps >= series[i + 1][1].execution_time_ps
              for i in range(len(series) - 1)),
          "the buffering series improves monotonically")
    claim(failures,
          results["crossbar"].execution_time_ps
          <= 1.3 * congested["axi"].execution_time_ps,
          "the crossbar STBus instance is competitive with AXI")
    return failures


# ----------------------------------------------------------------------
# §4.1.2 many-to-one
# ----------------------------------------------------------------------
def run_many_to_one(initiators: int = 8, transactions: int = 60,
                    jobs: Optional[int] = None) -> Dict:
    """All initiators hammer one 1-wait-state memory with burst reads."""
    protocols = ("ahb", "stbus", "axi")
    runs = run_configs(
        [layer_config(protocol, initiators, targets=1,
                      transactions=transactions, read_fraction=1.0)
         for protocol in protocols],
        jobs=jobs)
    return {"results": dict(zip(protocols, runs))}


def _response_efficiency(result: RunResult) -> float:
    """Utilisation of the read-data return channel."""
    for key in ("layer.response", "layer.r", "layer.bus"):
        if key in result.utilization:
            return result.utilization[key]
    raise KeyError(f"no response channel in {sorted(result.utilization)}")


def report_many_to_one(results: Dict) -> str:
    headers = ["protocol", "exec (ns)", "response-channel efficiency"]
    body = [[p, r.execution_time_ns, _response_efficiency(r)]
            for p, r in results["results"].items()]
    return format_table(headers, body, float_digits=3)


def check_many_to_one(results: Dict) -> List[str]:
    failures: List[str] = []
    times = {p: r.execution_time_ps for p, r in results["results"].items()}
    fastest, slowest = min(times.values()), max(times.values())
    claim(failures, slowest / fastest < 1.10,
          "no significant protocol differences in many-to-one (within 10%)")
    for protocol, result in results["results"].items():
        eff = _response_efficiency(result)
        claim(failures, 0.40 <= eff <= 0.60,
              f"{protocol}: response-channel efficiency ~50% (got {eff:.2f})")
    return failures
