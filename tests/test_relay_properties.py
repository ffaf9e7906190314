"""Property tests for the bridge width-conversion relay and report helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bridge.base import BridgeBase
from repro.core import Simulator
from repro.interconnect import AddressRange, ResponseBeat
from repro.obs import bar_chart

from .helpers import make_node, read


def make_bridge(sim, src_width=4, dst_width=8):
    source = make_node(sim, width=src_width)
    dest_clk = sim.clock(freq_mhz=250, name="dclk")
    from repro.interconnect import StbusNode

    dest = StbusNode(sim, "dest", dest_clk, data_width_bytes=dst_width)
    return BridgeBase(sim, "br", source, dest, AddressRange(0, 1 << 20))


WIDTHS = st.sampled_from([1, 2, 4, 8])


class TestChildConversion:
    @given(beats=st.integers(1, 32), beat_bytes=WIDTHS, dst_width=WIDTHS)
    @settings(max_examples=80, deadline=None)
    def test_child_preserves_bytes(self, beats, beat_bytes, dst_width):
        sim = Simulator()
        bridge = make_bridge(sim, dst_width=dst_width)
        txn = read(0x100, beats=beats, beat_bytes=beat_bytes)
        child = bridge.make_child(txn)
        assert child.beat_bytes == dst_width
        # The child covers at least the parent's bytes, padded to at most
        # one extra destination beat.
        assert child.total_bytes >= txn.total_bytes
        assert child.total_bytes - txn.total_bytes < dst_width


class TestRelayProperties:
    @given(beats=st.integers(1, 16), beat_bytes=WIDTHS, dst_width=WIDTHS)
    @settings(max_examples=80, deadline=None)
    def test_relay_emits_exactly_parent_beats(self, beats, beat_bytes,
                                              dst_width):
        """Feeding all child beats always yields exactly the parent's beat
        count, never more (over-emission raises)."""
        sim = Simulator()
        bridge = make_bridge(sim, dst_width=dst_width)
        txn = read(0x0, beats=beats, beat_bytes=beat_bytes)
        child = bridge.make_child(txn)
        relay = bridge.make_relay(txn)
        emitted = []
        for i in range(child.beats):
            beat = ResponseBeat(child, index=i,
                                is_last=i == child.beats - 1)
            for _ in range(relay.arrived(beat)):
                emitted.append(relay.emit())
        assert len(emitted) == txn.beats
        assert relay.done
        assert emitted[-1].is_last
        assert all(not b.is_last for b in emitted[:-1])
        assert [b.index for b in emitted] == list(range(txn.beats))
        with pytest.raises(RuntimeError):
            relay.emit()

    @given(beats=st.integers(1, 16), beat_bytes=WIDTHS, dst_width=WIDTHS,
           error_at=st.integers(0, 15))
    @settings(max_examples=60, deadline=None)
    def test_error_taints_all_later_beats(self, beats, beat_bytes,
                                          dst_width, error_at):
        sim = Simulator()
        bridge = make_bridge(sim, dst_width=dst_width)
        txn = read(0x0, beats=beats, beat_bytes=beat_bytes)
        child = bridge.make_child(txn)
        relay = bridge.make_relay(txn)
        error_index = error_at % child.beats
        emitted = []
        for i in range(child.beats):
            beat = ResponseBeat(child, index=i,
                                is_last=i == child.beats - 1,
                                error=(i == error_index))
            fresh = relay.arrived(beat)
            emitted.extend(relay.emit() for _ in range(fresh))
        # Every beat emitted after the error arrived carries the flag.
        seen_error = False
        for beat in emitted:
            if beat.error:
                seen_error = True
            if seen_error:
                assert beat.error
        assert emitted[-1].error  # the error always reaches the last beat

    @given(beats=st.integers(1, 16), beat_bytes=WIDTHS, dst_width=WIDTHS)
    @settings(max_examples=60, deadline=None)
    def test_incremental_emission_never_overruns_arrival(self, beats,
                                                         beat_bytes,
                                                         dst_width):
        """At every point, emitted source bytes <= arrived child bytes."""
        sim = Simulator()
        bridge = make_bridge(sim, dst_width=dst_width)
        txn = read(0x0, beats=beats, beat_bytes=beat_bytes)
        child = bridge.make_child(txn)
        relay = bridge.make_relay(txn)
        for i in range(child.beats):
            beat = ResponseBeat(child, index=i,
                                is_last=i == child.beats - 1)
            for _ in range(relay.arrived(beat)):
                relay.emit()
            emitted_bytes = relay.beats_emitted * txn.beat_bytes
            assert emitted_bytes <= relay.bytes_arrived


class TestBarChartMaxValue:
    def test_explicit_scale(self):
        chart = bar_chart({"a": 1.0}, width=10, max_value=2.0)
        assert chart.count("#") == 5

    def test_values_clamped_to_scale(self):
        chart = bar_chart({"a": 5.0}, width=10, max_value=2.0)
        assert chart.count("#") == 10
