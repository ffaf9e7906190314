"""The golden regression corpus: committed checkpoints CI replays.

``tests/golden/`` holds one checkpoint per corpus entry — small, scaled
platform configurations spanning every experiment family (Fig. 3/4/5
instance shapes, arbitration/two-phase/crossbar/CPU variations) plus the
example configurations shipped under ``examples/configs/``.  Each file
records a mid-run state tree *and* the run's final ``RunResult`` digest,
so a replay (:func:`verify_golden`, the CI golden job and
``tests/test_golden.py``) catches any behavioural drift twice: once at
the checkpoint instant (state tree, bit for bit) and once at completion
(result digest, bit for bit).

When a change *intentionally* alters simulation behaviour, regenerate the
corpus with ``repro snapshot --refresh-golden`` and commit the updated
files alongside the change (see ``docs/CI.md``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..platforms.config import CpuConfig, PlatformConfig, TwoPhaseSpec
from ..platforms.loader import load_config
from ..platforms.variants import (
    fig3_instances,
    fig4_pair,
    fig5_instances,
    quick_config,
)
from ..sweep import DEFAULT_MAX_PS, load_sweep
from .checkpoint import (
    SnapshotError,
    load_checkpoint,
    resume_checkpoint,
    save_checkpoint,
    take_checkpoint,
)

#: Traffic scale for the figure-derived corpus entries: small enough that
#: the whole corpus replays in CI seconds, large enough that every
#: subsystem (bridges, LMI lookahead, message arbitration) is exercised.
_CORPUS_SCALE = 0.2


def golden_dir() -> Path:
    """Corpus location: ``$REPRO_GOLDEN_DIR`` or ``tests/golden/``."""
    override = os.environ.get("REPRO_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def golden_configs() -> Dict[str, Tuple[PlatformConfig, int]]:
    """The corpus manifest: entry name -> (configuration, run bound).

    Names are stable — they become the committed file names — and the set
    deliberately spans the experiment config space: the five Fig. 3
    platform instances, the Fig. 4 topology pair, two Fig. 5 LMI
    instances (native STBus and the collapsed-AXI converter path), the
    arbitration/two-phase/crossbar/CPU variations the satellite
    experiments exercise, and the shipped example configurations.
    """
    entries: Dict[str, Tuple[PlatformConfig, int]] = {}
    for name, config in fig3_instances(traffic_scale=_CORPUS_SCALE).items():
        entries[f"fig3_{name}"] = (config, DEFAULT_MAX_PS)
    for name, config in fig4_pair(
            access_latency_cycles=8,
            traffic_scale=_CORPUS_SCALE).items():
        entries[f"fig4_{name}"] = (config, DEFAULT_MAX_PS)
    fig5 = fig5_instances(traffic_scale=_CORPUS_SCALE)
    entries["fig5_distributed_stbus"] = (fig5["distributed_stbus"],
                                         DEFAULT_MAX_PS)
    entries["fig5_collapsed_axi"] = (fig5["collapsed_axi"], DEFAULT_MAX_PS)
    entries["quick_fixed_priority"] = (
        quick_config(message_arbitration=False), DEFAULT_MAX_PS)
    entries["quick_two_phase"] = (
        quick_config(two_phase=TwoPhaseSpec(fraction=0.5,
                                            idle_multiplier=4.0)),
        DEFAULT_MAX_PS)
    entries["quick_crossbar"] = (
        quick_config(central_crossbar=True), DEFAULT_MAX_PS)
    entries["quick_cpu"] = (
        quick_config(cpu=CpuConfig(enabled=True, blocks=6,
                                   working_set=1 << 12)),
        DEFAULT_MAX_PS)

    examples = _repo_root() / "examples" / "configs"
    custom = examples / "custom_platform.json"
    if custom.is_file():
        config = load_config(custom)
        # The shipped example is sized for a demo run; scale it down so
        # the corpus replay stays fast.
        config = _scaled(config, 0.1)
        entries["example_custom_platform"] = (config, DEFAULT_MAX_PS)
    netlist = examples / "single_layer_netlist.json"
    if netlist.is_file():
        entries["example_single_layer_netlist"] = (load_config(netlist),
                                                   DEFAULT_MAX_PS)
    sweep_file = examples / "quick_sweep.json"
    if sweep_file.is_file():
        spec = load_sweep(sweep_file)
        for label, config in list(zip(spec.labels, spec.configs))[:2]:
            slug = label.replace(",", "_").replace(".", "_").replace("=", "")
            entries[f"example_sweep_{slug}"] = (config, spec.max_ps)
    return entries


def _scaled(config: PlatformConfig, scale: float) -> PlatformConfig:
    import dataclasses

    cpu = config.cpu
    if cpu.enabled:
        cpu = dataclasses.replace(cpu, blocks=max(1, int(cpu.blocks * scale)))
    return dataclasses.replace(config, traffic_scale=config.traffic_scale
                               * scale, cpu=cpu)


def golden_entries(directory: Union[str, Path, None] = None) -> List[Path]:
    """The committed checkpoint files, sorted by name."""
    root = Path(directory) if directory is not None else golden_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("*.ckpt.json"))


def refresh_golden(directory: Union[str, Path, None] = None,
                   names: Optional[List[str]] = None) -> List[Path]:
    """Regenerate the corpus; returns the files written.

    Stale files (entries dropped from the manifest) are removed unless a
    ``names`` subset was requested.  Every entry is checkpointed at half
    its execution time with the final result recorded.
    """
    root = Path(directory) if directory is not None else golden_dir()
    manifest = golden_configs()
    if names:
        unknown = sorted(set(names) - set(manifest))
        if unknown:
            raise SnapshotError(
                f"unknown golden entries {unknown}; "
                f"known: {sorted(manifest)}")
        manifest = {name: manifest[name] for name in names}
    root.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, (config, max_ps) in sorted(manifest.items()):
        outcome = take_checkpoint(config, fraction=0.5, max_ps=max_ps)
        written.append(save_checkpoint(outcome.checkpoint,
                                       root / f"{name}.ckpt.json"))
    if not names:
        expected = {f"{name}.ckpt.json" for name in golden_configs()}
        for path in golden_entries(root):
            if path.name not in expected:
                path.unlink()
    return written


def verify_golden(directory: Union[str, Path, None] = None) -> List[str]:
    """Replay every committed checkpoint; returns failure descriptions.

    An empty list means the whole corpus resumed bit-identically — both
    the mid-run state trees and the recorded final results.  Used by the
    CI golden job and ``repro snapshot --verify-golden``.
    """
    failures: List[str] = []
    entries = golden_entries(directory)
    if not entries:
        return [f"no golden checkpoints found under "
                f"{Path(directory) if directory else golden_dir()} — "
                f"run `repro snapshot --refresh-golden`"]
    for path in entries:
        try:
            checkpoint = load_checkpoint(path)
            outcome = resume_checkpoint(checkpoint)
        except SnapshotError as exc:
            failures.append(f"{path.name}: {exc}")
            continue
        for mismatch in outcome.mismatches:
            failures.append(f"{path.name}: {mismatch}")
    return failures


def corpus_summary(directory: Union[str, Path, None] = None) -> str:
    """One line per committed entry (name, instant, size) for the CLI."""
    lines = []
    for path in golden_entries(directory):
        try:
            document = json.loads(path.read_text())
            lines.append(f"{path.name}: at={document.get('at_ps')}ps "
                         f"events={document.get('events')} "
                         f"({path.stat().st_size // 1024} KiB)")
        except (OSError, ValueError):
            lines.append(f"{path.name}: unreadable")
    return "\n".join(lines) if lines else "no golden checkpoints committed"


__all__ = [
    "corpus_summary",
    "golden_configs",
    "golden_dir",
    "golden_entries",
    "refresh_golden",
    "verify_golden",
]
