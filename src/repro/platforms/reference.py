"""Elaboration of platform instances from a :class:`PlatformConfig`.

:class:`PlatformInstance` builds the whole system — interconnect layers,
bridges, traffic generators, CPU subsystem, memory subsystem, statistics —
and runs it to completion.  *Execution time* is the instant the last
traffic program (and the CPU benchmark) finished, the metric behind the
bars of Figs. 3 and 5 and the curves of Fig. 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..bridge.matrix import make_bridge
from ..core.component import Component
from ..core.debug import diagnose
from ..core.kernel import Simulator
from ..cpu.benchmark import BenchmarkConfig, SyntheticBenchmark
from ..cpu.st220 import St220Core
from ..interconnect.ahb import AhbLayer
from ..interconnect.arbiter import Arbiter
from ..interconnect.axi import AxiFabric
from ..interconnect.base import Fabric, TargetPort
from ..interconnect.crossbar import StbusCrossbar
from ..interconnect.generic import GenericFabric
from ..interconnect.protocols import PROTOCOLS
from ..interconnect.stbus import StbusNode
from ..interconnect.types import AddressRange, StbusType
from ..memory.lmi import LmiController
from ..memory.onchip import OnChipMemory
from ..obs.registry import InterfaceProbe
from ..traffic.iptg import Iptg, IptgPhase
from ..traffic.patterns import (
    Choice,
    Fixed,
    Geometric,
    RandomUniform,
    Sequential,
    Strided,
)
from .config import (
    MEMORY_BASE,
    MEMORY_SPAN,
    ClusterSpec,
    IpSpec,
    PlatformConfig,
)
from .result import RunResult, summarize_transactions

#: Bytes of unified memory assigned to each IP's private working region.
_IP_REGION = 1 << 20


def make_fabric(sim: Simulator, name: str, protocol: str, freq_mhz: float,
                width_bytes: int, stbus_type: StbusType,
                message_arbitration: bool = True,
                parent: Optional[Component] = None,
                arbiter: Optional[Arbiter] = None) -> Fabric:
    """Instantiate one interconnect layer of the requested protocol
    (``stbus-xbar``: the crossbar instance of the STBus node)."""
    clock = sim.clock(freq_mhz=freq_mhz, name=f"{name}.clk")
    if protocol in ("stbus", "stbus-xbar"):
        node = StbusCrossbar if protocol == "stbus-xbar" else StbusNode
        return node(sim, name, clock, data_width_bytes=width_bytes,
                    bus_type=stbus_type, arbiter=arbiter,
                    message_arbitration=message_arbitration, parent=parent)
    if protocol == "ahb":
        return AhbLayer(sim, name, clock, data_width_bytes=width_bytes,
                        parent=parent)
    if protocol == "axi":
        return AxiFabric(sim, name, clock, data_width_bytes=width_bytes,
                         parent=parent)
    spec = PROTOCOLS.get(protocol)
    if spec is not None and spec.engine == "generic":
        # Registry-served protocols (Wishbone, APB, AXI4-Lite, Avalon,
        # TileLink-UL) share one spec-driven engine.
        return GenericFabric(sim, name, clock, spec,
                             data_width_bytes=width_bytes, parent=parent)
    raise ValueError(f"unknown protocol {protocol!r}")


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
        self.bridges: List = []
        self.iptgs: List[Iptg] = []
        self.cpu: Optional[St220Core] = None
        self.memory_port: Optional[TargetPort] = None
        self.lmi: Optional[LmiController] = None
        #: The Fig. 6 interface probe on the memory port (capture only).
        self.monitor: Optional[InterfaceProbe] = None
        self._finish_ps: Optional[int] = None
        self._ip_index = 0
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
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        cfg = self.config
        crossbar = cfg.central_crossbar and cfg.protocol == "stbus"
        self.central = make_fabric(
            self.sim, "central", "stbus-xbar" if crossbar else cfg.protocol,
            cfg.central_freq_mhz, cfg.central_width_bytes,
            cfg.central_stbus_type,
            message_arbitration=cfg.message_arbitration, parent=self)
        self.fabrics["central"] = self.central
        self._build_memory()
        for cluster in cfg.clusters:
            self._build_cluster(cluster)
        if cfg.cpu.enabled:
            self._build_cpu()

    def _build_memory(self) -> None:
        cfg = self.config
        mem_range = AddressRange(MEMORY_BASE, MEMORY_SPAN)
        if cfg.memory.kind == "onchip":
            # Default single-slot request buffering: "the target interface
            # has a single-slot buffering here.  Therefore, each transaction
            # is blocking" (Section 4.2).
            port = self.central.add_target(
                "mem", mem_range,
                request_depth=cfg.memory.request_depth,
                response_depth=cfg.memory.response_depth)
            clock = self.sim.clock(freq_mhz=cfg.central_freq_mhz,
                                   name="mem.clk")
            OnChipMemory(self.sim, "mem", port, clock,
                         wait_states=cfg.memory.wait_states,
                         width_bytes=cfg.central_width_bytes,
                         access_latency_cycles=cfg.memory.access_latency_cycles,
                         pipeline_depth=cfg.memory.pipeline_depth,
                         parent=self)
            self.memory_port = port
        else:
            lmi_clock = self.sim.clock(freq_mhz=cfg.memory.lmi_freq_mhz,
                                       name="lmi.clk")
            if cfg.protocol == "stbus":
                # The LMI natively exposes an STBus target interface: no
                # bridge is needed on STBus platforms (Section 4.2).
                self.lmi = LmiController.attach(
                    self.sim, self.central, "lmi", MEMORY_BASE, MEMORY_SPAN,
                    lmi_clock, config=cfg.memory.lmi,
                    timing=cfg.memory.sdram, parent=self)
            else:
                # Non-STBus platforms reach the LMI through a protocol
                # converter; the paper's converters cannot perform split
                # transactions (the collapsed-AXI penalty of Fig. 5).
                lmi_node = StbusNode(
                    self.sim, "lmi_node",
                    self.sim.clock(freq_mhz=cfg.memory.lmi_freq_mhz,
                                   name="lmi_node.clk"),
                    data_width_bytes=8, bus_type=StbusType.T3, parent=self)
                self.fabrics["lmi_node"] = lmi_node
                self.lmi = LmiController.attach(
                    self.sim, lmi_node, "lmi", MEMORY_BASE, MEMORY_SPAN,
                    lmi_clock, config=cfg.memory.lmi,
                    timing=cfg.memory.sdram, parent=self)
                self.bridges.append(make_bridge(
                    self.sim, "to_lmi", self.central, lmi_node, mem_range,
                    split=cfg.lmi_bridge_split,
                    crossing_cycles=cfg.bridge_crossing_cycles, parent=self))
            self.memory_port = self.lmi.port
        if self.sim._spans is not None:
            # Same gate as the port's FIFO probes: observation only.
            self.monitor = InterfaceProbe(self.memory_port)

    def _build_cluster(self, cluster: ClusterSpec) -> None:
        cfg = self.config
        if cfg.topology == "collapsed":
            fabric = self.central
            width = cluster.data_width_bytes
        else:
            fabric = make_fabric(self.sim, cluster.name, cfg.protocol,
                                 cluster.freq_mhz, cluster.data_width_bytes,
                                 cluster.stbus_type,
                                 message_arbitration=cfg.message_arbitration,
                                 parent=self)
            self.fabrics[cluster.name] = fabric
            self._bridge_to_central(cluster.name, fabric)
            width = cluster.data_width_bytes
        for spec in cluster.ips:
            self._build_ip(fabric, cluster, spec, width)

    def _bridge_to_central(self, name: str, fabric: Fabric) -> None:
        """Bridge a cluster layer to the central node via the derived
        matrix: the registry validates the pairing, the config's split
        knobs pick between the GenConv and lightweight machinery."""
        cfg = self.config
        mem_range = AddressRange(MEMORY_BASE, MEMORY_SPAN)
        if cfg.bridges_split:
            bridge = make_bridge(
                self.sim, f"{name}_conv", fabric, self.central, mem_range,
                split=True, crossing_cycles=cfg.genconv_crossing_cycles,
                child_outstanding=cfg.genconv_outstanding, parent=self)
        else:
            bridge = make_bridge(
                self.sim, f"{name}_br", fabric, self.central, mem_range,
                split=False, crossing_cycles=cfg.bridge_crossing_cycles,
                parent=self)
        self.bridges.append(bridge)

    def _build_ip(self, fabric: Fabric, cluster: ClusterSpec, spec: IpSpec,
                  width: int) -> None:
        cfg = self.config
        base = MEMORY_BASE + 0x0100_0000 + self._ip_index * _IP_REGION
        self._ip_index += 1
        pattern = self._make_pattern(spec, base)
        phase = IptgPhase(
            transactions=max(1, int(spec.transactions * cfg.traffic_scale)),
            burst_beats=Fixed(spec.burst_beats),
            beat_bytes=width,
            idle_cycles=Fixed(spec.idle_cycles),
            read_fraction=spec.read_fraction,
            message_packets=spec.message_packets,
            priority=spec.priority,
            address_pattern=pattern,
        )
        phases = [phase]
        if cfg.two_phase is not None:
            spec2 = cfg.two_phase
            mean_gap = max(1, int(spec.idle_cycles * spec2.idle_multiplier))
            if spec2.burst_run > 1:
                # Bimodal: mostly back-to-back, occasionally a long silence
                # whose length keeps the same mean gap.
                gaps = Choice([0, mean_gap * spec2.burst_run],
                              weights=[spec2.burst_run - 1, 1])
            else:
                gaps = Geometric(p=1.0 / mean_gap, cap=8 * mean_gap)
            phases.append(phase.scaled(
                transactions=max(1, int(phase.transactions * spec2.fraction)),
                idle_cycles=gaps))
        port = fabric.connect_initiator(f"{cluster.name}.{spec.name}",
                                        max_outstanding=spec.max_outstanding)
        ip_clock = self.sim.clock(freq_mhz=cluster.freq_mhz,
                                  name=f"{cluster.name}.{spec.name}.clk")
        iptg = Iptg(self.sim, f"{cluster.name}.{spec.name}", port, phases,
                    address_base=base, address_span=_IP_REGION,
                    seed=cfg.seed * 1000 + self._ip_index, clock=ip_clock,
                    on_phase=self._on_ip_phase, parent=self)
        self.iptgs.append(iptg)

    @staticmethod
    def _make_pattern(spec: IpSpec, base: int):
        if spec.pattern == "seq":
            return Sequential(base, _IP_REGION)
        if spec.pattern == "random":
            return RandomUniform(base, _IP_REGION, align=64)
        return Strided(base, block=2048, stride=16384,
                       blocks=_IP_REGION // 16384)

    def _build_cpu(self) -> None:
        cfg = self.config
        bench = SyntheticBenchmark(BenchmarkConfig(
            blocks=max(1, int(cfg.cpu.blocks * cfg.traffic_scale)),
            working_set=cfg.cpu.working_set,
            data_base=MEMORY_BASE + 0x0800_0000,
            code_base=MEMORY_BASE + 0x0900_0000,
            seed=cfg.cpu.seed))
        if cfg.topology == "collapsed":
            port = self.central.connect_initiator("st220", max_outstanding=2)
        else:
            # The ST220 sits on its own 32-bit, 400 MHz layer behind an
            # upsize + frequency converter towards the central node.
            cpu_fabric = make_fabric(self.sim, "cpu_node", cfg.protocol,
                                     cfg.cpu.freq_mhz, 4, StbusType.T2,
                                     parent=self)
            self.fabrics["cpu_node"] = cpu_fabric
            self._bridge_to_central("cpu_node", cpu_fabric)
            port = cpu_fabric.connect_initiator("st220", max_outstanding=2)
        self.cpu = St220Core(self.sim, "st220", port, bench, parent=self)

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
        return done_events

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
        """Summarise the completed run."""
        transactions = []
        for iptg in self.iptgs:
            transactions.extend(iptg.transactions)
        utilization = {}
        for fname, fabric in self.fabrics.items():
            for cname, value in fabric.utilization_report().items():
                utilization[f"{fname}.{cname}"] = value
        extra = {}
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
    elaborate, simulate.  A netlist configuration is elaborated entry by
    entry (:mod:`repro.platforms.netlist`)."""
    if config.netlist:
        from .netlist import NetlistPlatform

        return NetlistPlatform(sim, config)
    return PlatformInstance(sim, config)
