"""Shared builders for interconnect/memory tests, and the kernel scenarios."""

from typing import Tuple

from repro.core import Fifo, Simulator
from repro.interconnect import (
    AddressRange,
    AhbLayer,
    AxiFabric,
    GenericFabric,
    Opcode,
    StbusNode,
    StbusType,
    Transaction,
    get_spec,
)
from repro.interconnect.crossbar import StbusCrossbar
from repro.memory import OnChipMemory

MEM_SPAN = 1 << 20


def make_node(sim, protocol="stbus", freq_mhz=200, width=4,
              bus_type=StbusType.T3, name="node", **kwargs):
    clk = sim.clock(freq_mhz=freq_mhz, name=f"{name}_clk")
    if protocol == "stbus":
        return StbusNode(sim, name, clk, data_width_bytes=width,
                         bus_type=bus_type, **kwargs)
    if protocol == "ahb":
        return AhbLayer(sim, name, clk, data_width_bytes=width, **kwargs)
    if protocol == "axi":
        return AxiFabric(sim, name, clk, data_width_bytes=width, **kwargs)
    # Registry-served generic fabrics (wishbone, apb, axi4lite, ...).
    return GenericFabric(sim, name, clk, get_spec(protocol),
                         data_width_bytes=width, **kwargs)


def make_spec_node(sim, spec_name, freq_mhz=200, width=4, name=None,
                   **kwargs):
    """A fabric for any registry entry, legacy engines included."""
    spec = get_spec(spec_name)
    name = name or spec_name
    if spec.engine == "stbus":
        bus_type = StbusType(int(spec_name[-1])) \
            if spec_name.startswith("stbus_t") else StbusType.T3
        return make_node(sim, "stbus", freq_mhz, width, bus_type, name=name,
                         **kwargs)
    if spec.engine in ("ahb", "axi"):
        return make_node(sim, spec.engine, freq_mhz, width, name=name,
                         **kwargs)
    return make_node(sim, spec_name, freq_mhz, width, name=name, **kwargs)


def make_registered_fabric(sim, name):
    """A fabric for registry entry ``name``, or for ``"stbus-xbar"`` the
    STBus Type 3 crossbar: every fabric the registry describes."""
    if name == "stbus-xbar":
        clk = sim.clock(freq_mhz=200, name="xbar_clk")
        return StbusCrossbar(sim, "xbar", clk, bus_type=StbusType.T3)
    return make_spec_node(sim, name)


def add_memory(sim, fabric, base=0, wait_states=1, request_depth=2,
               response_depth=4, width=None, **kwargs):
    port = fabric.add_target(f"mem@{base:x}", AddressRange(base, MEM_SPAN),
                             request_depth=request_depth,
                             response_depth=response_depth)
    memory = OnChipMemory(sim, f"mem{base:x}", port, fabric.clock,
                          wait_states=wait_states,
                          width_bytes=width or fabric.data_width_bytes,
                          **kwargs)
    return port, memory


def read(address, beats=8, beat_bytes=4, initiator="ip0", **kw):
    return Transaction(initiator=initiator, opcode=Opcode.READ,
                       address=address, beats=beats, beat_bytes=beat_bytes,
                       **kw)


def write(address, beats=8, beat_bytes=4, initiator="ip0", posted=True, **kw):
    return Transaction(initiator=initiator, opcode=Opcode.WRITE,
                       address=address, beats=beats, beat_bytes=beat_bytes,
                       posted=posted, **kw)


def drive(sim, port, transactions, gap_ps=0):
    """Issue transactions back to back (bounded by port credits)."""
    def body():
        for txn in transactions:
            yield port.issue(txn)
            if gap_ps:
                yield sim.timeout(gap_ps)
        for txn in transactions:
            if not txn.ev_done.triggered:
                yield txn.ev_done
    return sim.process(body(), name="driver")


def run_transactions(sim, port, transactions, until=2_000_000_000):
    """Drive and run to completion; returns the end time (ps)."""
    proc = drive(sim, port, transactions)
    sim.run(until=until)
    incomplete = [t for t in transactions if t.t_done is None]
    if incomplete:
        raise AssertionError(f"{len(incomplete)} transactions never "
                             f"completed: {incomplete[:3]}")
    return sim.now


# ----------------------------------------------------------------------
# kernel scenarios: ``fn(scale, resolution) -> (processed_events,
# sim_time_ps)``, deterministic per resolution
# ----------------------------------------------------------------------
def timeout_storm(scale: float = 1.0,
                  resolution: str = "ca") -> Tuple[int, int]:
    """Raw event churn: four processes racing through bare timeouts.

    Measures the kernel's floor cost per event — Timeout construction, heap
    traffic and process resumption, nothing else.  (Timeouts are genuine
    time advances, so the LT mode changes almost nothing here.)
    """
    rounds = max(1, int(2_000 * scale))
    sim = Simulator(resolution=resolution)

    def pinger():
        for _ in range(rounds):
            yield sim.timeout(7)

    for _ in range(4):
        sim.process(pinger())
    sim.run()
    return sim.processed_events, sim.now


def fifo_pipeline(scale: float = 1.0,
                  resolution: str = "ca") -> Tuple[int, int]:
    """Items flowing through a 4-stage bounded FIFO pipeline.

    Exercises the blocking put/get hand-off — the pattern every bus queue,
    bridge FIFO and LMI input queue in the platform is built from.  In LT
    mode the hand-offs resolve through the inline trampoline, so this is
    the scenario that shows the kernel-primitive half of the LT win.
    """
    items = max(1, int(1_000 * scale))
    sim = Simulator(resolution=resolution)
    stages = [Fifo(sim, 4, name=f"s{i}") for i in range(4)]

    def feeder():
        for i in range(items):
            yield stages[0].put(i)

    def mover(src, dst):
        while True:
            item = yield src.get()
            yield dst.put(item)

    def sink():
        for _ in range(items):
            yield stages[-1].get()

    sim.process(feeder())
    for a, b in zip(stages, stages[1:]):
        sim.process(mover(a, b))
    sim.process(sink())
    sim.run(until=10_000_000_000)
    return sim.processed_events, sim.now


def clock_edges(scale: float = 1.0,
                resolution: str = "ca") -> Tuple[int, int]:
    """Multi-domain clock-edge waits: the edge-timeout fast path.

    Three processes spinning on 400/250/166 MHz edges — the steady-state
    shape of every cycle-accurate bus model in the platform.  Clock edges
    are genuine time advances, so LT leaves this scenario unchanged.
    """
    edges = max(1, int(3_000 * scale))
    sim = Simulator(resolution=resolution)
    clocks = [sim.clock(freq_mhz=mhz, name=f"clk{mhz}")
              for mhz in (400, 250, 166)]

    def spinner(clk):
        for _ in range(edges):
            yield clk.edge()

    for clk in clocks:
        sim.process(spinner(clk))
    sim.run()
    return sim.processed_events, sim.now
