"""The derived N x N bridge matrix, exercised pair by pair.

Every registry pairing gets the same mixed read/write
workload pushed across a ``source fabric -> bridge -> dest fabric ->
memory`` system under the full invariant checkers and span recording.
The suite asserts the matrix contract end to end: transaction and byte
conservation across the bridge, clean span tiling, and zero monitor
violations (``repro check`` clean) for each of the pairs.

The full matrix is ``check_smoke``-tier (CI selects it the way it
selects ``bench_smoke``); it also runs unmarked in plain tier 1.
"""

import pytest

from repro.bridge import (
    bridge_matrix,
    conversion_plan,
    make_bridge,
    validate_bridge_pair,
)
from repro.check import checked, format_report
from repro.core import Simulator
from repro.interconnect import AddressRange
from repro.platforms.loader import ConfigError

from .helpers import MEM_SPAN, add_memory, drive, make_spec_node, read, write

MATRIX = bridge_matrix()
PAIRS = sorted(MATRIX)


def bridged_pair(sim, src_name, dst_name, wait_states=1):
    """source fabric --derived bridge--> dest fabric --> memory."""
    source = make_spec_node(sim, src_name, freq_mhz=200, width=4, name="src")
    dest = make_spec_node(sim, dst_name, freq_mhz=250, width=8, name="dst")
    port, memory = add_memory(sim, dest, wait_states=wait_states,
                              request_depth=4, response_depth=8)
    bridge = make_bridge(sim, "br", source, dest, AddressRange(0, MEM_SPAN))
    return source, dest, bridge, memory


def matrix_workload():
    """Mixed reads and posted/non-posted writes, single and multi beat."""
    return [
        read(0x100, beats=1, beat_bytes=4),
        write(0x200, beats=4, beat_bytes=4, posted=True),
        read(0x400, beats=8, beat_bytes=4),
        write(0x800, beats=1, beat_bytes=4, posted=False),
        read(0x1000, beats=4, beat_bytes=4),
        write(0x2000, beats=8, beat_bytes=4, posted=True),
    ]


@pytest.mark.check_smoke
@pytest.mark.parametrize("src,dst", PAIRS, ids=[f"{a}-to-{b}"
                                                for a, b in PAIRS])
def test_pair_conserves_and_checks_clean(src, dst):
    with checked() as session:
        # checked() attaches a span recorder to every simulator built
        # inside it, so span tiling is audited in finalize() as well.
        sim = Simulator()
        source, dest, bridge, memory = bridged_pair(sim, src, dst)
        port = source.connect_initiator("ip0", max_outstanding=2)
        txns = matrix_workload()
        drive(sim, port, txns)
        sim.run(until=2_000_000_000)

    undone = [t for t in txns if t.t_done is None]
    assert not undone, f"{src}->{dst}: {len(undone)} txns never completed"
    violations = session.finalize()
    assert violations == [], (f"{src}->{dst}:\n"
                              + format_report(violations, limit=10))

    # Transaction and byte conservation across the bridge: every parent
    # forwards exactly once, and each child carries the parent's payload
    # re-beaten to the destination width (rounded up to whole beats).
    checker = session.checkers[0]
    children = checker._issued.get(bridge.init_port, [])
    assert bridge.forwarded.value == len(txns)
    assert len(children) == len(txns)
    width = dest.data_width_bytes
    for child in children:
        parent = child.meta["parent"]
        expected = max(1, -(-parent.total_bytes // width)) * width
        assert child.total_bytes == expected, (
            f"{src}->{dst}: child {child.tid} carries {child.total_bytes}B "
            f"for a {parent.total_bytes}B parent (width {width})")
    assert memory.reads.value + memory.writes.value == len(txns)


def test_matrix_covers_every_registered_pair():
    from repro.interconnect import PROTOCOLS

    names = list(PROTOCOLS)
    assert set(MATRIX) == {(a, b) for a in names for b in names}
    # 10 registered protocols -> the full 10 x 10 matrix.
    assert len(MATRIX) == len(names) ** 2 == 100


def test_plan_class_selection_matches_capabilities():
    # Split source + multi-outstanding dest -> GenConv machinery.
    assert conversion_plan("axi", "stbus_t3").split_capable
    assert conversion_plan("stbus_t2", "axi").split_capable
    # Non-split source (or single-outstanding dest) -> blocking bridge.
    assert not conversion_plan("ahb", "stbus_t3").split_capable
    assert not conversion_plan("axi", "apb").split_capable
    assert not conversion_plan("wishbone", "axi").split_capable
    # The ablation override forces the machinery either way.
    assert conversion_plan("ahb", "stbus_t3",
                           split=True).split_capable
    assert not conversion_plan("axi", "stbus_t3",
                               split=False).split_capable


def test_plan_steps_reflect_spec_diff():
    plan = conversion_plan("axi", "apb")
    kinds = [s.kind for s in plan.steps]
    assert "burst" in kinds        # APB is single-beat
    assert "split" in kinds        # split AXI onto non-split APB
    assert "interleave" in kinds   # AXI interleaves, APB is packet-atomic
    same = conversion_plan("stbus_t3", "stbus_t3")
    assert same.steps == ()        # same protocol: pure width/clock crossing
    assert "direct store-and-forward" in same.describe()


class TestPlanProperties:
    """Registry-derived plan facts, over pairs sampled from the shared
    :mod:`tests.strategies` pool (the same pool the DSE cost model and
    the pairwise conservation suite draw from)."""

    def test_sampled_pairs_have_stable_positive_wire_cost(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given

        from .strategies import FAST_SETTINGS, bridge_pairs

        @FAST_SETTINGS
        @given(pair=bridge_pairs())
        def run_one(pair):
            src, dst = pair
            plan = conversion_plan(src, dst)
            again = conversion_plan(src, dst)
            assert plan == again  # derivation is a pure function
            # The DSE cost model's bridge term: one full port per side,
            # monotone in data width.
            assert plan.wire_bits() > 0
            assert plan.wire_bits(8, 8) >= plan.wire_bits(4, 4)

        run_one()


class TestPairValidation:
    """A pairing resolves against the registry: an unregistered protocol
    name fails loudly at build time, on either end."""

    def test_tlm_dest_rejected_by_name(self):
        # The retired transaction-level tier is no longer a protocol.
        with pytest.raises(ConfigError, match="'tlm'"):
            validate_bridge_pair("stbus_t3", "tlm")

    def test_tlm_source_rejected_by_name(self):
        with pytest.raises(ConfigError, match="'tlm'"):
            validate_bridge_pair("tlm", "axi")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError, match="pcie"):
            validate_bridge_pair("pcie", "axi")
        with pytest.raises(ConfigError, match="pcie"):
            validate_bridge_pair("axi", "pcie")
