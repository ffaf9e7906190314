"""Loosely-timed runs pinned bit for bit.

``benchmarks/lt_gate.py`` bounds how far LT may drift from cycle-accurate
runs; nothing there notices an LT run that moved *within* those bounds.
This test does: every golden-corpus configuration re-run at
``resolution="lt"``, plus ``quick_config(resolution="lt")``, must
reproduce the committed sha256 of its ``result_to_dict`` document and
its exact ``processed_events`` count.  So must ``random_config(seed)``
for seeds 0-399, in LT (``lt_pin_seeds.txt``, a 16-hex-digit digest
prefix per seed) and in CA (``ca_pin_seeds.txt``, same format): the
seeds draw all eight protocols, and a broken rule often shows on only
one or two of them.

A host-side optimisation of LT (fewer wake-ups, fewer frames) must pass
this unchanged.  A change that *means* to move LT timing refreshes the
tables together with the golden corpus; print the rows that changed,
each marked *events only* or *result changed*, with::

    PYTHONPATH=src python -c "from tests.test_lt_pin import current; current()"
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.check import random_config
from repro.core import Simulator
from repro.platforms import build_platform, quick_config
from repro.snapshot import golden_configs
from repro.sweep import result_to_dict

#: Run bound of the ``quick_config`` case (the golden entries carry theirs).
QUICK_MAX_PS = 10**13

#: Run bound of the ``random_config`` seeds (their generous drain bound).
SEED_MAX_PS = 10**9

#: Resolution -> its ``seed digest-prefix processed_events`` lines.
SEEDS_FILES = {resolution: Path(__file__).with_name(
    f"{resolution}_pin_seeds.txt") for resolution in ("lt", "ca")}

#: Its "Measured effect" table quotes pinned LT event counts.
FAST_SIM = Path(__file__).resolve().parent.parent / "docs" / "FAST_SIM.md"

#: The table rows that name a pinned configuration without a figure.
QUICK_ROWS = {
    "quick (stbus/distributed, on-chip)": "quick_config",
    "quick + two-phase IPs": "quick_two_phase",
    "quick + central crossbar": "quick_crossbar",
}

#: name -> (sha256 of the sorted-key JSON of ``result_to_dict``,
#: ``processed_events``).
PINNED = {
    "example_custom_platform": (
        "a2a5b92d3cdec65a3c555cfb5aa3f80029380f59dbaba51447c13c3eeead85c2",
        321),
    "example_single_layer_netlist": (
        "ad08eef37304207b9daf714676cb569eee80b393682e24a07c6bbc7f6275a1a5",
        7218),
    "example_sweep_onchip_memory_wait_states1": (
        "2a38d2438e7154269023f1bfeb49fa336b6349e940699846710d3d38f42fcac9",
        2877),
    "example_sweep_onchip_memory_wait_states4": (
        "a6d2562c1dd039d5e905a42a20cfb1b594839bac06631663e1456ca1296ccbea",
        2765),
    "fig3_collapsed_axi": (
        "7c3b414db5de2e343c1ce4f6eb8acaf8914edff7880a0b5f16483c210b11fa90",
        4400),
    "fig3_collapsed_stbus": (
        "096a01f53842de7e6ccae23c8e11035b2ab4bee50b43b76b5c2964774b3534ec",
        3895),
    "fig3_distributed_axi": (
        "8ee2f2c37d0f9d817f6e7f1ff8d6d71c1311c3f69152f723d3d6c47eb770061f",
        5078),
    "fig3_full_ahb": (
        "dedf43b996900e907dc3448d0e3d40426d01d358bbd9de05d7188ce522f1628d",
        3748),
    "fig3_full_stbus": (
        "d9a6e11ebd3c600ffffa22bfa0bd3969e41b6b9111c01196e2bbc911980cc464",
        4569),
    "fig4_collapsed": (
        "c4202098ff407a9210c8f4e67fe214c63f1b690c4a2546a5bd3cb5dc87ac894d",
        3909),
    "fig4_distributed": (
        "6eefbdf6fbf609b60754d3888d0000010e41748746c978eed96ce5a07618cc7f",
        4805),
    "fig5_collapsed_axi": (
        "fcf8fed43ad78c339b95e9dbfe931fa9f3e91cf5ce7c9bf82165d15014e3fe0c",
        3188),
    "fig5_distributed_stbus": (
        "111b9d22499a6b3a44e523ea29f8b43c3589bb2adb9d7857326b1ca68970908e",
        4217),
    "quick_config": (
        "4ba022236c38454be27ad4d144de054078380f4aff0bd39725730bc7d3c706d2",
        2551),
    "quick_cpu": (
        "53ab5d6ebdd40f108910425c819e8a4decd963b85c8526ff22f47b3dc714977e",
        2585),
    "quick_crossbar": (
        "3c6ee1898445fab1cee6f993a5f1b5d2629a9ed870a5a26d1c04b52c9fe5f4b9",
        2661),
    "quick_fixed_priority": (
        "bd039b082db0402456d83df0c85c6cec6c540f259d730e0b3150a85639ca9f5e",
        2541),
    "quick_two_phase": (
        "30648e0f1c8369d6770078cf9803ff319bb52e68831ece484fd7978f9502de9a",
        3766),
}


def _cases():
    cases = {name: (config.scaled(resolution="lt"), bound)
             for name, (config, bound) in golden_configs().items()}
    cases["quick_config"] = (quick_config(resolution="lt"), QUICK_MAX_PS)
    return cases


def _pin(config, bound):
    sim = Simulator()
    result = build_platform(sim, config).run(max_ps=bound)
    document = json.dumps(result_to_dict(result), sort_keys=True)
    return (hashlib.sha256(document.encode()).hexdigest(),
            sim.processed_events)


def _pinned_seeds(resolution="lt"):
    """seed -> (digest prefix, processed_events), from the resolution's
    :data:`SEEDS_FILES` entry."""
    rows = {}
    for line in SEEDS_FILES[resolution].read_text().splitlines():
        fields = line.split("#")[0].split()
        if fields:
            seed, digest, events = fields
            rows[int(seed)] = (digest, int(events))
    return rows


def _seed_pin(seed, resolution="lt"):
    digest, events = _pin(random_config(seed).scaled(resolution=resolution),
                          SEED_MAX_PS)
    return digest[:16], events


def _change(old, new):
    """How a pinned ``(digest, events)`` row moved; ``None`` if it did not."""
    if old == new:
        return None
    if old is None:
        return "not pinned"
    return "events only" if old[0] == new[0] else "result changed"


def _changed_seeds(resolution="lt"):
    """``(seed, old row, new row, change)`` for every seed whose run at
    ``resolution`` moved."""
    moved = []
    for seed, old in sorted(_pinned_seeds(resolution).items()):
        new = _seed_pin(seed, resolution)
        change = _change(old, new)
        if change is not None:
            moved.append((seed, old, new, change))
    return moved


def current():
    """Print the pinned rows this tree changes, each marked by what moved
    (for an intended refresh: paste them over the old rows), then one
    summary line: rows moved by kind, and their events before -> after."""
    moved = []
    for name, (config, bound) in sorted(_cases().items()):
        old = PINNED.get(name)
        new = _pin(config, bound)
        change = _change(old, new)
        if change is not None:
            print(f"    {name!r}: {new!r},  # {change}")
            moved.append((old, new, change))
    for resolution in SEEDS_FILES:
        for seed, old, (digest, events), change in \
                _changed_seeds(resolution):
            print(f"{seed} {digest} {events}  # {resolution}: {change}")
            moved.append((old, (digest, events), change))
    kinds = [change for _old, _new, change in moved]
    before = sum(old[1] for old, _new, _change in moved if old is not None)
    after = sum(new[1] for old, new, _change in moved if old is not None)
    print(f"# {len(moved)} rows moved: {kinds.count('events only')} events "
          f"only, {kinds.count('result changed')} result changed, "
          f"{kinds.count('not pinned')} not pinned; events {before} -> "
          f"{after}")


def test_every_case_is_pinned():
    assert set(PINNED) == set(_cases())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lt_run_is_bit_identical(name):
    config, bound = _cases()[name]
    digest, events = _pin(config, bound)
    assert events == PINNED[name][1], (
        f"{name}: LT processed {events} events, pinned {PINNED[name][1]}")
    assert digest == PINNED[name][0], (
        f"{name}: LT result changed (events unchanged)")


@pytest.mark.parametrize("resolution", sorted(SEEDS_FILES))
def test_random_seeds_are_bit_identical(resolution):
    moved = _changed_seeds(resolution)
    assert not moved, f"{resolution} runs moved on seeds: " + ", ".join(
        f"{seed} ({change})" for seed, _old, _new, change in moved)


def _measured_effect():
    """``{pinned name: LT events}`` of the rows of FAST_SIM.md's
    "Measured effect" table that name a pinned configuration."""
    section = FAST_SIM.read_text().split("\n## Measured effect", 1)[1]
    section = section.split("\n## ", 1)[0]
    quoted = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[2].replace(" ", "").isdigit():
            continue
        figure = re.fullmatch(r"(fig\d) `(\w+)` \(scale [\d.]+\)", cells[0])
        name = (f"{figure[1]}_{figure[2]}" if figure
                else QUICK_ROWS.get(cells[0]))
        if name in PINNED:
            quoted[name] = int(cells[2].replace(" ", ""))
    return quoted


def test_fast_sim_quotes_the_pinned_lt_events():
    quoted = _measured_effect()
    assert len(quoted) == 10, sorted(quoted)
    assert quoted == {name: PINNED[name][1] for name in quoted}


@pytest.mark.parametrize("resolution", sorted(SEEDS_FILES))
def test_pinned_seeds_cover_every_protocol(resolution):
    seeds = _pinned_seeds(resolution)
    assert sorted(seeds) == list(range(400))
    assert len({random_config(seed).protocol for seed in seeds}) == 8


def _transfers(config, bound):
    sim = Simulator()
    build_platform(sim, config).run(max_ps=bound)
    return {path: value for path, value in sim.metrics.snapshot().items()
            if path.endswith(".transfers")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lt_counts_every_transfer_ca_does(name):
    # A response run that crosses the channel in one LT step still
    # carries each of its beats: the channel counts them all.
    config, bound = _cases()[name]
    assert _transfers(config, bound) == _transfers(
        config.scaled(resolution="ca"), bound)
