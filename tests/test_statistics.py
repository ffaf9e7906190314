"""Unit tests for the statistics collection system."""

import math

import pytest

from repro.core import (
    ChannelUtilization,
    Counter,
    LatencySummary,
    PhasedStates,
    TimeWeightedStates,
)


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_cannot_decrease(self):
        counter = Counter("c")
        with pytest.raises(ValueError):
            counter.add(-1)


class TestTimeWeightedStates:
    def test_breakdown_fractions(self, sim):
        tws = TimeWeightedStates(sim, initial="idle")

        def body():
            yield sim.timeout(300)
            tws.set_state("busy")
            yield sim.timeout(700)

        sim.process(body())
        sim.run()
        breakdown = tws.breakdown()
        assert breakdown["idle"] == pytest.approx(0.3)
        assert breakdown["busy"] == pytest.approx(0.7)

    def test_same_state_noop(self, sim):
        tws = TimeWeightedStates(sim, initial="a")
        tws.set_state("a")
        sim.timeout(100)
        sim.run()
        assert tws.breakdown() == {"a": 1.0}

    def test_empty_window(self, sim):
        tws = TimeWeightedStates(sim)
        assert tws.breakdown() == {}

    def test_durations_absolute(self, sim):
        tws = TimeWeightedStates(sim, initial="x")

        def body():
            yield sim.timeout(250)
            tws.set_state("y")
            yield sim.timeout(150)

        sim.process(body())
        sim.run()
        assert tws.durations() == {"x": 250, "y": 150}


class TestPhasedStates:
    def test_phase_breakdowns(self, sim):
        phased = PhasedStates(sim, initial="idle", first_phase="p1")

        def body():
            tws_set = phased.set_state
            yield sim.timeout(100)
            tws_set("busy")
            yield sim.timeout(100)
            phased.begin_phase("p2")
            yield sim.timeout(50)
            tws_set("idle")
            yield sim.timeout(150)

        sim.process(body())
        sim.run()
        result = phased.breakdowns()
        assert set(result) == {"p1", "p2"}
        assert result["p1"]["idle"] == pytest.approx(0.5)
        assert result["p1"]["busy"] == pytest.approx(0.5)
        assert result["p2"]["busy"] == pytest.approx(0.25)
        assert result["p2"]["idle"] == pytest.approx(0.75)

    def test_state_carries_across_phases(self, sim):
        phased = PhasedStates(sim, initial="busy", first_phase="p1")

        def body():
            yield sim.timeout(10)
            phased.begin_phase("p2")
            yield sim.timeout(90)

        sim.process(body())
        sim.run()
        assert phased.breakdowns()["p2"] == {"busy": 1.0}


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary()
        assert summary.count == 0
        assert math.isnan(summary.mean)
        assert math.isnan(summary.percentile(50))

    def test_stats(self):
        summary = LatencySummary()
        for value in (10, 20, 30, 40):
            summary.add(value)
        assert summary.count == 4
        assert summary.mean == 25
        assert summary.minimum == 10
        assert summary.maximum == 40
        assert summary.percentile(0) == 10
        assert summary.percentile(100) == 40
        assert summary.percentile(50) == pytest.approx(25)

    def test_negative_rejected(self):
        summary = LatencySummary()
        with pytest.raises(ValueError):
            summary.add(-1)

    def test_percentile_range_checked(self):
        summary = LatencySummary()
        summary.add(1)
        with pytest.raises(ValueError):
            summary.percentile(101)

    def test_single_sample(self):
        summary = LatencySummary()
        summary.add(42)
        assert summary.percentile(37) == 42.0


class TestChannelUtilization:
    def test_utilization_fraction(self, sim):
        channel = ChannelUtilization(sim)

        def body():
            yield sim.timeout(1_000)

        sim.process(body())
        channel.busy_ps += 400
        channel.transfers += 4
        sim.run()
        assert channel.utilization() == pytest.approx(0.4)
        assert channel.transfers == 4

    def test_zero_elapsed(self, sim):
        channel = ChannelUtilization(sim)
        assert channel.utilization() == 0.0
