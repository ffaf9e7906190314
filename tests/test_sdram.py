"""Unit tests for the SDRAM device model and its timing checker."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Simulator
from repro.memory import (
    DDR_SDRAM,
    SDR_SDRAM,
    SdramDevice,
    SdramGeometry,
    SdramTiming,
    SdramTimingError,
)


@pytest.fixture
def device(sim):
    clk = sim.clock(freq_mhz=166, name="mem_clk")
    return SdramDevice(sim, "sdram", clk, DDR_SDRAM, SdramGeometry())


def cycles(device, n):
    return n * device.clock.period_ps


class TestTimingParameters:
    def test_presets_are_consistent(self):
        for timing in (DDR_SDRAM, SDR_SDRAM):
            assert timing.t_rc >= timing.t_ras + timing.t_rp

    def test_ddr_flag(self):
        assert DDR_SDRAM.beats_per_clock == 2
        assert SDR_SDRAM.beats_per_clock == 1

    def test_inconsistent_timing_rejected(self):
        with pytest.raises(ValueError):
            SdramTiming(t_rc=5, t_ras=7, t_rp=3)

    def test_scaled_override(self):
        slow = DDR_SDRAM.scaled(cl=5)
        assert slow.cl == 5 and slow.t_rcd == DDR_SDRAM.t_rcd


class TestGeometry:
    def test_decode_round_trip_fields(self):
        geom = SdramGeometry(banks=4, row_bits=13, col_bits=10, width_bytes=8)
        bank, row, col = geom.decode(0x0)
        assert (bank, row, col) == (0, 0, 0)

    def test_sequential_addresses_share_row(self):
        geom = SdramGeometry()
        decode = geom.decode
        first = decode(0x1000)
        second = decode(0x1000 + geom.width_bytes)
        assert first[:2] == second[:2]
        assert second[2] == first[2] + 1

    def test_row_bytes_and_capacity(self):
        # A row holds 2**col_bits beats; the next row's worth of data goes
        # to the next bank, and the address space wraps at the capacity.
        geom = SdramGeometry(banks=4, row_bits=13, col_bits=10, width_bytes=8)
        row_bytes, capacity = 8192, 4 * (1 << 13) * 8192
        assert geom.decode(row_bytes - 8) == (0, 0, 1023)
        assert geom.decode(row_bytes) == (1, 0, 0)
        assert geom.decode(4 * row_bytes) == (0, 1, 0)
        assert geom.decode(capacity - 8) == (3, (1 << 13) - 1, 1023)
        assert geom.decode(capacity) == (0, 0, 0)

    def test_invalid_banks(self):
        with pytest.raises(ValueError):
            SdramGeometry(banks=3)

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=80, deadline=None)
    def test_decode_in_bounds(self, address):
        geom = SdramGeometry()
        bank, row, col = geom.decode(address)
        assert 0 <= bank < geom.banks
        assert 0 <= row < (1 << geom.row_bits)
        assert 0 <= col < (1 << geom.col_bits)


class TestCommandRules:
    def test_read_requires_open_row(self, device):
        with pytest.raises(SdramTimingError):
            device.read(0, row=5, beats=8, not_before_ps=0)

    def test_activate_on_open_bank_rejected(self, device):
        device.activate(0, row=5, not_before_ps=0)
        with pytest.raises(SdramTimingError):
            device.activate(0, row=6, not_before_ps=0)

    def test_trcd_enforced(self, device):
        when = device.activate(0, row=5, not_before_ps=0)
        first, __ = device.read(0, row=5, beats=4, not_before_ps=when)
        assert first >= when + cycles(device, device.timing.t_rcd)

    def test_tras_enforced_before_precharge(self, device):
        when = device.activate(0, row=5, not_before_ps=0)
        pre = device.precharge(0, not_before_ps=when)
        assert pre >= when + cycles(device, device.timing.t_ras)

    def test_trp_enforced_before_activate(self, device):
        act = device.activate(0, row=5, not_before_ps=0)
        pre = device.precharge(0, not_before_ps=act)
        act2 = device.activate(0, row=6, not_before_ps=pre)
        assert act2 >= pre + cycles(device, device.timing.t_rp)

    def test_trc_same_bank(self, device):
        act = device.activate(0, row=5, not_before_ps=0)
        device.precharge(0, not_before_ps=act)
        act2 = device.activate(0, row=6, not_before_ps=0)
        assert act2 - act >= cycles(device, device.timing.t_rc)

    def test_trrd_across_banks(self, device):
        act0 = device.activate(0, row=5, not_before_ps=0)
        act1 = device.activate(1, row=5, not_before_ps=0)
        assert act1 - act0 >= cycles(device, device.timing.t_rrd)

    def test_write_to_read_turnaround(self, device):
        device.activate(0, row=1, not_before_ps=0)
        __, wlast = device.write(0, row=1, beats=4, not_before_ps=0)
        rfirst, __ = device.read(0, row=1, beats=4, not_before_ps=wlast)
        assert rfirst >= wlast + cycles(device, device.timing.t_wtr)

    def test_ddr_transfers_two_beats_per_clock(self, device):
        device.activate(0, row=1, not_before_ps=0)
        first, last = device.read(0, row=1, beats=8, not_before_ps=0)
        assert last - first == cycles(device, 4)  # 8 beats / 2 per clock

    def test_data_bus_serialised(self, device):
        device.activate(0, row=1, not_before_ps=0)
        device.activate(1, row=1, not_before_ps=0)
        f0, l0 = device.read(0, row=1, beats=8, not_before_ps=0)
        f1, __ = device.read(1, row=1, beats=8, not_before_ps=0)
        assert f1 >= l0  # second burst waits for the data bus


class TestRefresh:
    def test_refresh_closes_all_rows(self, device):
        device.activate(0, row=1, not_before_ps=0)
        device.activate(1, row=2, not_before_ps=0)
        done = device.refresh(not_before_ps=0)
        assert all(bank.open_row is None for bank in device.banks)
        for bank in device.banks:
            assert bank.ready_activate_ps >= done
        assert device.refreshes.value == 1


class TestAccessHelper:
    def test_row_hit_fast_path(self, device):
        f1, l1, hit1 = device.access(False, 0x1000, beats=8, not_before_ps=0)
        f2, l2, hit2 = device.access(False, 0x1040, beats=8, not_before_ps=l1)
        assert not hit1 and hit2
        assert device.row_hits.value == 1
        assert device.row_misses.value == 1
        # The row hit needs no activate: much shorter command overhead.
        assert (f2 - l1) < (f1 - 0)

    def test_row_conflict_precharges(self, device):
        geom = device.geometry
        # Same bank, next row.
        row_stride = (1 << geom.col_bits) * geom.width_bytes * geom.banks
        device.access(False, 0x0, beats=4, not_before_ps=0)
        pre_before = device.precharges.value
        device.access(False, row_stride, beats=4, not_before_ps=10**9)
        assert device.precharges.value == pre_before + 1

    def test_is_row_hit_probe(self, device):
        assert not device.is_row_hit(0x2000)
        device.access(False, 0x2000, beats=4, not_before_ps=0)
        assert device.is_row_hit(0x2000)

    def test_row_hit_rate(self, device):
        assert device.row_hit_rate == 0.0
        device.access(False, 0x0, beats=4, not_before_ps=0)
        device.access(False, 0x40, beats=4, not_before_ps=10**8)
        assert device.row_hit_rate == 0.5


class TestTimingProperty:
    @given(st.lists(st.tuples(st.integers(0, 2**24), st.booleans()),
                    min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_access_sequences_respect_data_ordering(self, accesses):
        """For any access stream: data windows never overlap (the data bus
        is serialised) and time never goes backwards."""
        sim = Simulator()
        clk = sim.clock(freq_mhz=166)
        device = SdramDevice(sim, "d", clk, DDR_SDRAM, SdramGeometry())
        now = 0
        last_end = 0
        for address, is_write in accesses:
            first, last, _hit = device.access(is_write, address, beats=4,
                                              not_before_ps=now)
            assert first >= now
            assert first >= last_end
            assert last > first
            last_end = last
            now = first
