"""Tests for per-transaction energy accounting (``repro.obs.energy``).

Three layers, mirroring how the accountant is wired in:

* unit behaviour of :class:`EnergyAccountant` / :func:`attach_energy`
  (integer-fJ conservation, idempotent attachment, the disabled default);
* end-to-end conservation — every committed example configuration and
  every registry experiment must report per-component energies that sum
  to the total *exactly* at the fJ grain;
* the surfaces: loader round-trip of the coefficient block, RunResult
  derived quantities, the LT energy clause, the zero-traffic edge and
  the ``repro stats --energy`` CLI.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.check.lt_accuracy import ENERGY_DRIFT, LtRun
from repro.cli import _energy_report, main, registry
from repro.core import Simulator
from repro.obs import capture
from repro.obs.energy import (
    EnergyAccountant,
    EnergyConfig,
    attach_energy,
    fj_from_pj,
)
from repro.platforms import build_platform, quick_config
from repro.platforms.loader import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    load_config,
)
from repro.sweep import Run

from .helpers import add_memory, make_node

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "configs"


def _enabled(config):
    """A copy of ``config`` with energy accounting switched on."""
    return config.scaled(
        energy=dataclasses.replace(config.energy, enabled=True))


def _example_configs():
    """Every platform config reachable from the committed examples.

    Sweep spec files contribute each of their expanded points and DSE
    spec files the extremes of their candidate enumeration, so new
    example files are covered automatically whichever schema they use.
    """
    cases = []
    for path in sorted(EXAMPLES.glob("*.json")):
        document = json.loads(path.read_text())
        if "points" in document or "grid" in document:
            from repro.sweep import load_sweep

            spec = load_sweep(str(path))
            cases.extend((f"{path.name}:{label}", config)
                         for label, config in zip(spec.labels, spec.configs))
        elif "axes" in document:
            from repro.dse import load_dse

            space = load_dse(str(path)).space
            candidates = list(space.candidates())
            for candidate in {candidates[0], candidates[-1]}:
                cases.append((f"{path.name}:{space.label(candidate)}",
                              space.config(candidate)))
        else:
            cases.append((path.name, load_config(str(path))))
    return cases


class TestAccountantUnit:
    def test_simulator_default_has_no_accountant(self):
        assert Simulator()._energy is None

    def test_charge_conserves_exactly_in_fj(self):
        accountant = EnergyAccountant()
        for index in range(100):
            accountant.charge(f"c{index % 7}", 13 * index + 1, index)
        assert accountant.total_fj == sum(13 * index + 1
                                          for index in range(100))
        assert accountant.total_pj == accountant.total_fj / 1000

    def test_non_positive_charges_are_ignored(self):
        accountant = EnergyAccountant()
        accountant.charge("c", 0)
        accountant.charge("c", -5)
        assert accountant.total_fj == 0
        assert accountant.component_pj() == {}

    def test_conversion_identities(self):
        assert fj_from_pj(1.0) == 1000
        assert fj_from_pj(4.2) == 4200

    def test_attach_is_idempotent_and_configure_repoints(self):
        sim = Simulator()
        first = attach_energy(sim)
        config = EnergyConfig(enabled=True, ahb_pj_per_beat=1.25)
        second = attach_energy(sim, config)
        assert second is first
        assert first.config.ahb_pj_per_beat == 1.25
        assert "energy" in sim.metrics

    def test_finalize_is_idempotent(self):
        sim = Simulator()
        accountant = attach_energy(sim)
        calls = []
        accountant.add_finalizer(calls.append)
        accountant.finalize(100)
        accountant.finalize(200)
        assert calls == [100]
        assert accountant._finalized_at is not None

    def test_txn_energy_requires_per_transaction_mode(self):
        plain = EnergyAccountant()
        plain.charge("c", 10, tid=7)
        assert plain.txn_pj(7) is None
        tracking = EnergyAccountant(per_transaction=True)
        tracking.charge("c", 10, tid=7)
        assert tracking.txn_pj(7) == 0.01
        assert tracking.txn_pj(999) is None


class TestPlatformConservation:
    def test_quick_platform_conserves_and_reports(self):
        sim = Simulator()
        platform = build_platform(sim, _enabled(quick_config()))
        result = platform.run(max_ps=10**13)
        accountant = sim._energy
        assert accountant is not None and accountant._finalized_at is not None
        assert accountant.total_fj > 0
        assert sum(accountant.component_pj().values()) == \
            pytest.approx(accountant.total_pj)
        assert result.energy_total_pj == pytest.approx(accountant.total_pj)
        assert sum(result.energy_pj.values()) == \
            pytest.approx(result.energy_total_pj)
        # The initiator view only covers requester-attributable charges.
        assert sum(accountant.initiator_pj().values()) <= \
            accountant.total_pj + 1e-9

    def test_disabled_config_attaches_nothing_and_matches_timing(self):
        config = quick_config()
        sim_plain = Simulator()
        result_plain = build_platform(sim_plain, config).run(max_ps=10**13)
        assert sim_plain._energy is None
        assert result_plain.energy_total_pj == 0.0
        assert result_plain.energy_pj == {}
        sim_energy = Simulator()
        result_energy = build_platform(
            sim_energy, _enabled(config)).run(max_ps=10**13)
        # Accounting observes; it must not move a single event.
        assert result_energy.execution_time_ps == \
            result_plain.execution_time_ps
        assert sim_energy.processed_events == sim_plain.processed_events

    @pytest.mark.parametrize("resolution", ["ca", "lt"])
    def test_quick_platform_energy_total_is_pinned(self, resolution):
        """The quick platform's exact energy total: the same figure in
        both resolutions."""
        config = _enabled(quick_config(resolution=resolution))
        result = Run(config, 10**13).finish().result
        assert result.energy_total_pj == 22_511.6

    @pytest.mark.parametrize(
        "label,config",
        _example_configs(),
        ids=[label for label, _ in _example_configs()])
    def test_committed_example_configs_conserve(self, label, config):
        sim = Simulator()
        platform = build_platform(sim, _enabled(config))
        result = platform.run(max_ps=20_000 * 1_000_000)
        accountant = sim._energy
        assert accountant is not None
        assert accountant.total_fj > 0, f"{label}: no energy recorded"
        assert sum(accountant.component_pj().values()) == \
            pytest.approx(accountant.total_pj)
        assert sum(result.energy_pj.values()) == \
            pytest.approx(result.energy_total_pj)
        assert result.pj_per_byte > 0


class TestExperimentConservation:
    @pytest.mark.parametrize("name", sorted(registry()))
    def test_experiment_energy_conserves(self, name):
        _description, runner = registry()[name]
        with capture(energy=True) as cap:
            runner(0.2, None)
        rows = cap.metrics_snapshot()  # finalizes every accountant
        accountants = [a for a in cap.accountants if a is not None]
        assert accountants, f"{name}: capture attached no accountants"
        assert any(a.total_fj > 0 for a in accountants), (
            f"{name}: no energy recorded")
        for accountant in accountants:
            assert sum(accountant.component_pj().values()) == \
                pytest.approx(accountant.total_pj)
        # The registry surfaces the same ledger as flat metric rows.
        totals = [value for path, value in rows.items()
                  if path.endswith("energy.total.pj")]
        assert sum(totals) == pytest.approx(
            sum(a.total_pj for a in accountants))


class TestLtEnergyClause:
    def test_quick_platform_within_energy_drift(self):
        comparison = LtRun(quick_config(), max_ps=10**13)
        assert comparison.ca.energy_total_pj > 0
        assert comparison.lt.energy_total_pj > 0
        assert comparison.energy_drift <= ENERGY_DRIFT
        assert comparison.ok, comparison.describe()
        assert "energy drift" in comparison.describe()


class TestZeroTraffic:
    def _idle_capture(self):
        with capture(energy=True) as cap:
            sim = Simulator()
            node = make_node(sim)
            add_memory(sim, node)
            sim.run()
        return cap

    def test_empty_capture_reports_without_division(self):
        cap = self._idle_capture()
        assert cap.completed() == []
        report = _energy_report(cap)
        assert "pJ per byte:   0.000" in report
        assert "payload bytes: 0" in report

    def test_empty_capture_snapshot_and_trace_are_valid(self):
        cap = self._idle_capture()
        rows = cap.metrics_snapshot()
        assert rows.get("energy.total.pj", 0.0) == 0.0
        document = cap.to_trace_json()
        text = json.dumps(document)
        assert json.loads(text) == document
        assert not [event for event in document["traceEvents"]
                    if event["ph"] in ("X", "C")]
        assert cap.format_summary()  # renders, no division by zero

    def test_zero_byte_run_result_properties(self):
        from repro.platforms import RunResult

        result = RunResult(label="idle", execution_time_ps=0,
                           transactions=0, bytes_transferred=0,
                           energy_total_pj=5.0)
        assert result.pj_per_byte == 0.0
        assert result.energy_delay_product == 0.0


class TestLoaderRoundTrip:
    def test_energy_block_round_trips(self):
        config = _enabled(quick_config()).scaled(
            energy=dataclasses.replace(
                quick_config().energy, enabled=True,
                stbus_t3_pj_per_beat=8.25))
        document = config_to_dict(config)
        assert document["energy"]["enabled"] is True
        restored = config_from_dict(document)
        assert restored.energy == config.energy

    def test_sdram_preset_string(self):
        document = config_to_dict(quick_config())
        document["energy"] = {"enabled": True, "sdram": "sdr"}
        config = config_from_dict(document)
        assert config.energy.sdram.act_pj > 0

    def test_unknown_sdram_preset_rejected(self):
        document = config_to_dict(quick_config())
        document["energy"] = {"enabled": True, "sdram": "nope"}
        with pytest.raises(ConfigError, match="unknown preset"):
            config_from_dict(document)

    @pytest.mark.parametrize("name", [
        item.name for item in dataclasses.fields(EnergyConfig)
        if item.name.endswith(("_pj_per_beat", "_pj"))])
    def test_negative_coefficient_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            EnergyConfig(**{name: -0.5})
        document = config_to_dict(quick_config())
        document["energy"] = {name: -1}  # an int, as JSON carries it
        with pytest.raises(ConfigError, match=name):
            config_from_dict(document)

    def test_unknown_energy_key_rejected(self):
        document = config_to_dict(quick_config())
        document["energy"] = {"enabled": True, "watts": 9000}
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict(document)


class TestStatsCli:
    def test_experiment_energy_breakdown(self, capsys):
        status = main(["stats", "s412", "--scale", "0.2", "--energy"])
        assert status == 0
        text = capsys.readouterr().out
        assert "### energy breakdown" in text
        assert "total energy:" in text
        assert "pJ per byte:" in text
        assert "energy.total.pj" in text

    def test_config_target_energy_breakdown(self, capsys):
        status = main(["stats", str(EXAMPLES / "custom_platform.json"),
                       "--energy", "--max-us", "20000"])
        assert status == 0
        text = capsys.readouterr().out
        assert "### energy breakdown" in text
        assert "lmi.sdram" in text

    def test_unreadable_target_fails(self, capsys):
        assert main(["stats", "no_such_file.json"]) == 2
        assert "neither an experiment" in capsys.readouterr().err
