"""Elaboration of platform instances from a :class:`PlatformConfig`.

:class:`PlatformInstance` builds the whole system — interconnect layers,
bridges, traffic generators, CPU subsystem, memory subsystem, devices —
from one netlist: the configuration's own, or the reference topology
lowered by :func:`~repro.platforms.netlist.lower`.  It runs the system to
completion.  *Execution time* is the instant the last traffic program
(and the CPU benchmark) finished, the metric behind the bars of Figs. 3
and 5 and the curves of Fig. 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bridge.matrix import make_bridge
from ..core.component import Component
from ..core.debug import diagnose
from ..core.kernel import Simulator
from ..cpu.benchmark import BenchmarkConfig, SyntheticBenchmark
from ..cpu.st220 import St220Core
from ..devices.display import DisplayController
from ..devices.dma import DmaDescriptor, DmaEngine
from ..interconnect.ahb import AhbLayer
from ..interconnect.axi import AxiFabric
from ..interconnect.base import Fabric, TargetPort
from ..interconnect.crossbar import StbusCrossbar
from ..interconnect.generic import GenericFabric
from ..interconnect.protocols import PROTOCOLS
from ..interconnect.stbus import StbusNode
from ..interconnect.types import AddressRange, StbusType
from ..memory.lmi import LmiConfig, LmiController
from ..memory.onchip import OnChipMemory
from ..memory.timing import DDR_SDRAM, SdramTiming
from ..obs.registry import InterfaceProbe
from ..traffic.iptg import Iptg, IptgPhase
from ..traffic.patterns import Choice, Fixed, Geometric
from .config import PlatformConfig, TwoPhaseSpec
from .netlist import ARBITERS, CPU_CODE_OFFSET, PATTERNS, _LINE_BYTES, lower
from .result import RunResult, summarize_transactions


class RunIncomplete(RuntimeError):
    """The platform had traffic outstanding when its run bound was reached.

    ``str()`` is the one-line message; ``diagnosis`` is the stall report
    of :func:`repro.core.debug.diagnose`.  Both survive pickling.
    """

    def __init__(self, message: str, diagnosis: str = "") -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class PlatformInstance(Component):
    """A fully elaborated MPSoC platform, ready to simulate."""

    def __init__(self, sim: Simulator, config: PlatformConfig,
                 name: str = "platform") -> None:
        super().__init__(sim, name)
        # The resolution must be announced before any component captures
        # it (select-once discipline); set_resolution refuses on a
        # simulator that already ran.
        if config.resolution != sim.resolution:
            sim.set_resolution(config.resolution)
        # Energy accounting attaches before _build() so every component
        # captures the accountant at construction (select-once discipline).
        # A capture()-installed accountant takes the platform's coefficient
        # block; otherwise the config decides whether one exists at all.
        if config.energy.enabled or sim._energy is not None:
            from ..obs.energy import attach_energy
            attach_energy(sim, config.energy if config.energy.enabled
                          else None)
        self.config = config
        self.fabrics: Dict[str, Fabric] = {}
        self.iptgs: List[Iptg] = []
        self.cpu: Optional[St220Core] = None
        self.lmi: Optional[LmiController] = None
        self.displays: List[DisplayController] = []
        self.dmas: List[DmaEngine] = []
        #: The Fig. 6 probe on the first memory's port (capture only).
        self.monitor: Optional[InterfaceProbe] = None
        self._finish_ps: Optional[int] = None
        self._phase2_entries = 0
        self._prepared = False
        self._build()

    def _on_ip_phase(self, index: int) -> None:
        """Advance the interface probe once the platform's second traffic
        regime is established (half the generators have switched).  The
        count is kept with or without a probe: checkpoint state does not
        depend on observation."""
        if index != 1:
            return
        self._phase2_entries += 1
        if self._phase2_entries == max(1, len(self.iptgs) // 2) \
                and self.monitor is not None:
            self.monitor.begin_phase("phase2")

    # ------------------------------------------------------------------
    # construction: one builder per netlist kind, keywords = its schema
    # ------------------------------------------------------------------
    def _build(self) -> None:
        builders = {"fabric": self._fabric, "onchip": self._onchip,
                    "lmi": self._lmi, "bridge": self._bridge,
                    "iptg": self._iptg, "cpu": self._cpu, "dma": self._dma,
                    "display": self._display}
        for entry in self.config.netlist or lower(self.config):
            builders[entry.kind](entry.name, **entry.filled())

    def _fabric(self, name, protocol, freq_mhz, width_bytes, stbus_type,
                arbiter, message_arbitration) -> None:
        sim = self.sim
        clock = sim.clock(freq_mhz=freq_mhz, name=f"{name}.clk")
        if protocol in ("stbus", "stbus-xbar"):  # -xbar: a full crossbar
            node = StbusCrossbar if protocol == "stbus-xbar" else StbusNode
            fabric = node(sim, name, clock, data_width_bytes=width_bytes,
                          bus_type=StbusType(stbus_type),
                          arbiter=ARBITERS[arbiter]() if arbiter else None,
                          message_arbitration=message_arbitration,
                          parent=self)
        elif protocol in ("ahb", "axi"):
            layer = AhbLayer if protocol == "ahb" else AxiFabric
            fabric = layer(sim, name, clock, data_width_bytes=width_bytes,
                           parent=self)
        else:
            # Registry-served protocols (Wishbone, APB, AXI4-Lite, Avalon,
            # TileLink-UL) share one spec-driven engine.
            fabric = GenericFabric(sim, name, clock, PROTOCOLS[protocol],
                                   data_width_bytes=width_bytes, parent=self)
        self.fabrics[name] = fabric

    def _memory(self, port: TargetPort) -> None:
        # Same gate as the port's FIFO probes: observation only.
        if self.monitor is None and self.sim._spans is not None:
            self.monitor = InterfaceProbe(port)

    def _onchip(self, name, fabric, base, span, wait_states, request_depth,
                response_depth, access_latency_cycles,
                pipeline_depth) -> None:
        layer = self.fabrics[fabric]
        port = layer.add_target(name, AddressRange(base, span),
                                request_depth=request_depth,
                                response_depth=response_depth)
        clock = self.sim.clock(period_ps=layer.clock.period_ps,
                               name=f"{name}.clk")
        OnChipMemory(self.sim, name, port, clock, wait_states=wait_states,
                     width_bytes=layer.data_width_bytes,
                     access_latency_cycles=access_latency_cycles,
                     pipeline_depth=pipeline_depth, parent=self)
        self._memory(port)

    def _lmi(self, name, fabric, base, span, freq_mhz, config, sdram) -> None:
        self.lmi = LmiController.attach(
            self.sim, self.fabrics[fabric], name, base, span,
            self.sim.clock(freq_mhz=freq_mhz, name=f"{name}.clk"),
            config=LmiConfig(**(config or {})),
            timing=SdramTiming(**sdram) if sdram else DDR_SDRAM, parent=self)
        self._memory(self.lmi.port)

    def _bridge(self, name, source, dest, base, span, split, crossing_cycles,
                child_outstanding) -> None:
        make_bridge(self.sim, name, self.fabrics[source], self.fabrics[dest],
                    AddressRange(base, span), split=split,
                    crossing_cycles=crossing_cycles,
                    child_outstanding=child_outstanding, parent=self)

    def _iptg(self, name, fabric, base, span, transactions, seed,
              idle_cycles, read_fraction, priority, max_outstanding,
              burst_beats, message_packets, pattern, clock_mhz, beat_bytes,
              two_phase) -> None:
        layer = self.fabrics[fabric]
        phase = IptgPhase(
            transactions=transactions, burst_beats=Fixed(burst_beats),
            beat_bytes=beat_bytes or layer.data_width_bytes,
            idle_cycles=Fixed(idle_cycles), read_fraction=read_fraction,
            message_packets=message_packets, priority=priority,
            address_pattern=PATTERNS[pattern](base, span))
        phases = [phase]
        if two_phase is not None:
            spec = TwoPhaseSpec(**two_phase)
            run = spec.burst_run
            gap = max(1, int(idle_cycles * spec.idle_multiplier))
            # With run > 1, bimodal: mostly back-to-back, occasionally a
            # long silence whose length keeps the same mean gap.
            gaps = Choice([0, gap * run], weights=[run - 1, 1]) if run > 1 \
                else Geometric(p=1.0 / gap, cap=8 * gap)
            phases.append(phase.scaled(
                transactions=max(1, int(transactions * spec.fraction)),
                idle_cycles=gaps))
        port = layer.connect_initiator(name, max_outstanding=max_outstanding)
        clock = None if clock_mhz is None else self.sim.clock(
            freq_mhz=clock_mhz, name=f"{name}.clk")
        self.iptgs.append(Iptg(
            self.sim, name, port, phases, address_base=base,
            address_span=span, seed=seed, clock=clock,
            on_phase=self._on_ip_phase, parent=self))

    def _cpu(self, name, fabric, base, blocks, working_set, seed) -> None:
        bench = SyntheticBenchmark(BenchmarkConfig(
            blocks=blocks, working_set=working_set, data_base=base,
            code_base=base + CPU_CODE_OFFSET, seed=seed))
        port = self.fabrics[fabric].connect_initiator(name, max_outstanding=2)
        self.cpu = St220Core(self.sim, name, port, bench, parent=self)

    def _dma(self, name, fabric, src, dst, length) -> None:
        layer = self.fabrics[fabric]
        port = layer.connect_initiator(name, max_outstanding=4)
        engine = DmaEngine(self.sim, name, port,
                           beat_bytes=layer.data_width_bytes, parent=self)
        engine.program([DmaDescriptor(src, dst, length, burst_bytes=128)])
        engine.start()
        self.dmas.append(engine)

    def _display(self, name, fabric, framebuffer_base, lines) -> None:
        layer = self.fabrics[fabric]
        port = layer.connect_initiator(name, max_outstanding=4)
        self.displays.append(DisplayController(
            self.sim, name, port, framebuffer_base=framebuffer_base,
            line_bytes=_LINE_BYTES, lines=lines, line_period_cycles=330,
            burst_bytes=64, beat_bytes=layer.data_width_bytes,
            line_buffer_lines=2, priority=5, parent=self))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Arm the finish detector without advancing the simulation.

        Normally :meth:`run` does this implicitly; the checkpoint runner
        calls it directly so it can interleave ``sim.run(until=...)`` steps
        with state capture before finally draining the platform.
        Idempotent.
        """
        if self._prepared:
            return
        self._prepared = True
        finish = self.sim.all_of(self.done_events())
        finish.add_callback(self._record_finish)

    def done_events(self) -> List:
        """The events whose conjunction is the platform's finish."""
        done_events = [iptg.done for iptg in self.iptgs]
        if self.cpu is not None:
            done_events.append(self.cpu.done)
        return done_events + [display.done for display in self.displays] \
            + [engine.all_done for engine in self.dmas]

    def run(self, max_ps: Optional[int] = None) -> RunResult:
        """Simulate to completion and summarise.

        ``max_ps`` bounds runaway configurations; a platform that fails to
        drain by then raises, because a silently truncated run would
        corrupt execution-time comparisons.
        """
        self.prepare()
        self.sim.run(until=max_ps)
        if self._finish_ps is None:
            raise RunIncomplete(
                f"{self.config.label()}: platform did not finish "
                f"within {max_ps} ps", diagnose(self))
        return self.result()

    def _record_finish(self, _event) -> None:
        self._finish_ps = self.sim._now

    def snapshot_state(self, encoder) -> Dict[str, object]:
        return {
            "finish_ps": self._finish_ps,
            "phase2_entries": self._phase2_entries,
        }

    def result(self) -> RunResult:
        """Summarise the completed run, plus the ``cpu_*`` and ``lmi_*``
        rows of a reference platform or the ``<component>.<metric>`` rows
        of a netlist one (IPTG mean latency, display underruns and worst
        margin, DMA bytes moved)."""
        transactions = []
        for iptg in self.iptgs:
            transactions.extend(iptg.transactions)
        utilization = {}
        for fname, fabric in self.fabrics.items():
            for cname, value in fabric.utilization_report().items():
                utilization[f"{fname}.{cname}"] = value
        extra = {}
        if self.config.netlist:
            extra = {f"{iptg.name}.mean_latency_ps": iptg.mean_latency_ps()
                     for iptg in self.iptgs}
            for display in self.displays:
                extra[f"{display.name}.underruns"] = float(
                    display.underruns.value)
                extra[f"{display.name}.worst_margin_ps"] = float(
                    display.worst_margin_ps)
            for engine in self.dmas:
                extra[f"{engine.name}.bytes_moved"] = float(
                    engine.total_bytes_moved)
        else:
            if self.cpu is not None:
                extra["cpu_blocks"] = float(self.cpu.blocks_retired.value)
                extra["cpu_dcache_miss_rate"] = self.cpu.dcache.miss_rate
            if self.lmi is not None:
                device = self.lmi.device
                extra["lmi_row_hit_rate"] = device.row_hit_rate
                extra["lmi_merges"] = float(self.lmi.merges.value)
                extra["lmi_served"] = float(self.lmi.served.value)
                extra["lmi_activates"] = float(device.activates.value)
                extra["lmi_rw_commands"] = float(device.reads.value
                                                 + device.writes.value)
        finish_ps = (self._finish_ps if self._finish_ps is not None
                     else self.sim.now)
        energy_pj: Dict[str, float] = {}
        energy_total_pj = 0.0
        accountant = self.sim._energy
        if accountant is not None:
            # Close open-row intervals and integrate background power up
            # to the finish instant (idempotent: safe to call result()
            # twice, or after metrics_snapshot already finalised).
            accountant.finalize(finish_ps)
            energy_pj = accountant.component_pj()
            energy_total_pj = accountant.total_pj
        return summarize_transactions(
            self.config.label(), finish_ps,
            transactions, utilization=utilization, extra=extra,
            energy_pj=energy_pj, energy_total_pj=energy_total_pj)


def build_platform(sim: Simulator, config: PlatformConfig) -> PlatformInstance:
    """Convenience constructor mirroring the paper's flow: configure,
    elaborate, simulate."""
    return PlatformInstance(sim, config)
