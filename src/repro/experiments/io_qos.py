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

from typing import Dict, List, Optional, Tuple

from ..core.kernel import Simulator
from ..devices.display import DisplayController
from ..devices.dma import DmaDescriptor, DmaEngine
from ..interconnect.arbiter import FixedPriority, RoundRobin
from ..interconnect.stbus import StbusNode
from ..interconnect.types import StbusType
from ..memory.lmi import LmiConfig, LmiController
from ..obs.export import format_table
from ..sweep import parallel_map
from .common import claim

_SPAN = 1 << 24
_FRAMEBUFFER = 0x0010_0000
_DMA_REGION = 0x0040_0000


def _run_variant(policy: str, line_period_cycles: int = 330,
                 lines: int = 40, hog_bytes: int = 24 * 1024) -> Dict:
    sim = Simulator()
    clock = sim.clock(freq_mhz=200, name="clk")
    arbiter = FixedPriority() if policy == "priority" else RoundRobin()
    node = StbusNode(sim, "node", clock, data_width_bytes=8,
                     bus_type=StbusType.T3, arbiter=arbiter,
                     message_arbitration=False)
    LmiController.attach(sim, node, "lmi", 0, _SPAN,
                         sim.clock(freq_mhz=166, name="lmi_clk"),
                         config=LmiConfig(read_priority=False))
    display_port = node.connect_initiator("display", max_outstanding=4)
    display = DisplayController(
        sim, "display", display_port, framebuffer_base=_FRAMEBUFFER,
        line_bytes=512, lines=lines, line_period_cycles=line_period_cycles,
        burst_bytes=64, beat_bytes=8, line_buffer_lines=2, priority=5)
    engines = []
    for i in range(2):
        port = node.connect_initiator(f"dma{i}", max_outstanding=4)
        engine = DmaEngine(sim, f"dma{i}", port, beat_bytes=8)
        engine.program([DmaDescriptor(
            _DMA_REGION + i * 0x10_0000,
            _DMA_REGION + i * 0x10_0000 + 0x8_0000,
            hog_bytes, burst_bytes=128)])
        engine.start()
        engines.append(engine)
    sim.run(until=1_000_000_000_000)
    if not display.done.triggered:
        raise RuntimeError(f"display did not finish under {policy}")
    return {
        "underruns": display.underruns.value,
        "underrun_rate": display.underrun_rate,
        "worst_margin_ns": display.worst_margin_ps / 1000,
        "dma_bytes": sum(e.total_bytes_moved for e in engines),
        "finish_ns": sim.now / 1000,
    }


def _variant_job(payload: Tuple[str, int, int]) -> Dict:
    policy, line_period_cycles, lines = payload
    return _run_variant(policy, line_period_cycles, lines)


def run(line_period_cycles: int = 330, lines: int = 40,
        jobs: Optional[int] = None) -> Dict:
    """Both I/O architectures under the same contention."""
    policies = ("round_robin", "priority")
    results = parallel_map(
        _variant_job,
        [(policy, line_period_cycles, lines) for policy in policies],
        jobs=jobs)
    return dict(zip(policies, results))


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
