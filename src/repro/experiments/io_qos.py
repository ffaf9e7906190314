"""I/O quality-of-service study (extension; guideline 4).

"On the other hand, this calls for optimizations of the I/O architecture
to remove the system bottleneck." (guideline 4)

A real-time display controller scans frame-buffer lines out of the LMI +
DDR memory on a hard periodic schedule while DMA engines hog the same
controller.  We compare two I/O architectures:

* **round-robin** arbitration — the display is just another initiator and
  its lines arrive late under load (underruns);
* **priority** arbitration — the display's requests carry a high priority
  label (an STBus Type-2+ feature) and win arbitration, trading a little
  DMA throughput for clean scan-out.

The measured quantities are the paper's: who is the bottleneck, and what
architectural knob removes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.export import format_table
from ..platforms.config import PlatformConfig
from ..platforms.netlist import NetEntry
from ..sweep import sweep
from .common import claim

_SPAN = 1 << 24
_FRAMEBUFFER = 0x0010_0000
_DMA_REGION = 0x0040_0000
_HOG_BYTES = 24 * 1024

#: I/O architecture -> the node's arbiter.
_ARCHITECTURES = {"round_robin": "round_robin", "priority": "fixed_priority"}


def variant_config(policy: str, lines: int) -> PlatformConfig:
    """The display (priority 5, a line every 330 cycles) and two DMA hogs
    on one STBus node in front of the LMI, arbitrated by ``policy``
    (``round_robin`` or ``priority``)."""
    return PlatformConfig(netlist=(
        NetEntry.of("fabric", "node", width_bytes=8, stbus_type=3,
                    arbiter=_ARCHITECTURES[policy],
                    message_arbitration=False),
        NetEntry.of("lmi", "lmi", fabric="node", base=0, span=_SPAN),
        NetEntry.of("display", "display", fabric="node",
                    framebuffer_base=_FRAMEBUFFER, lines=lines),
        *(NetEntry.of("dma", f"dma{i}", fabric="node",
                      src=_DMA_REGION + i * 0x10_0000,
                      dst=_DMA_REGION + i * 0x10_0000 + 0x8_0000,
                      length=_HOG_BYTES)
          for i in range(2))))


def run(lines: int = 40, jobs: Optional[int] = None) -> Dict:
    """Both I/O architectures under the same contention.  ``finish_ns``
    is the last event: the memory draining the DMA's posted writes."""
    outcomes = sweep([variant_config(policy, lines)
                      for policy in _ARCHITECTURES], jobs=jobs)
    data = {}
    for policy, outcome in zip(_ARCHITECTURES, outcomes):
        result = outcome.result
        underruns = int(result.extra["display.underruns"])
        data[policy] = {
            "underruns": underruns,
            "underrun_rate": underruns / lines,
            "worst_margin_ns": result.extra["display.worst_margin_ps"] / 1000,
            "dma_bytes": sum(int(result.extra[f"dma{i}.bytes_moved"])
                             for i in range(2)),
            "finish_ns": outcome.sim_time_ps / 1000,
        }
    return data


def report(data: Dict) -> str:
    headers = ["I/O architecture", "underruns", "underrun rate",
               "worst margin (ns)", "DMA bytes", "finish (ns)"]
    rows = []
    for name, entry in data.items():
        rows.append([name, entry["underruns"], entry["underrun_rate"],
                     entry["worst_margin_ns"], entry["dma_bytes"],
                     entry["finish_ns"]])
    header = ("I/O QoS under memory contention: display scan-out vs DMA "
              "hogs (guideline 4)\n")
    return header + format_table(headers, rows, float_digits=2)


def check(data: Dict) -> List[str]:
    failures: List[str] = []
    rr, prio = data["round_robin"], data["priority"]
    claim(failures, rr["underruns"] > 0,
          "round-robin arbitration lets the display underrun under load")
    claim(failures, prio["underruns"] < rr["underruns"],
          "priority arbitration reduces underruns")
    claim(failures, prio["worst_margin_ns"] > rr["worst_margin_ns"],
          "priority arbitration improves the worst-case deadline margin")
    claim(failures, prio["dma_bytes"] == rr["dma_bytes"],
          "the DMA work still completes in full (work conservation)")
    return failures
