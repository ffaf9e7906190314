"""Registry-completeness lint: no protocol ships half-wired.

A :class:`~repro.interconnect.protocols.ProtocolSpec` entry is only the
*declaration* of a fabric; being simulatable also needs the rest of the
stack to know about it.  This lint cross-references every registry entry
against the four places a protocol must be covered:

* an energy coefficient field on
  :class:`~repro.obs.energy.EnergyConfig` (per-beat accounting),
* a beat-ordering rule in the checker's catalogue
  (:func:`repro.check.monitors.covered_protocols`) matching the spec's
  declared ``beat_rule``,
* snapshot coverage — the engine class serialises protocol state
  (overrides ``snapshot_state``),
* a derivable bridge plan to **every** other protocol (the N x N
  matrix has no holes).

Run standalone (CI lint job)::

    python -m repro.check.registry_lint

Exit status 1 with one line per missing cell; silent success otherwise.
"""

from __future__ import annotations

from typing import List

from ..interconnect.protocols import PROTOCOLS, ProtocolSpec


def _engine_class(spec: ProtocolSpec) -> type:
    """The class serving ``spec``.  Channel-engine classes declare the
    ``engine`` value they accept (and refuse every other spec); AHB is a
    model of its own."""
    from ..interconnect.ahb import AhbLayer
    from ..interconnect.axi import AxiFabric
    from ..interconnect.generic import GenericFabric
    from ..interconnect.stbus import StbusNode

    served = {cls.engine: cls
              for cls in (GenericFabric, StbusNode, AxiFabric)}
    served.update(ahb=AhbLayer)
    return served[spec.engine]


def lint_registry() -> List[str]:
    """Every missing cell in the protocol coverage matrix (empty = clean)."""
    from ..interconnect.base import Fabric
    from ..obs.energy import EnergyConfig
    from .monitors import _BEAT_RULE, covered_protocols

    problems: List[str] = []
    energy_defaults = EnergyConfig()
    covered = covered_protocols()
    for name, spec in sorted(PROTOCOLS.items()):
        if not hasattr(energy_defaults, spec.energy_coefficient):
            problems.append(
                f"{name}: EnergyConfig has no coefficient "
                f"{spec.energy_coefficient!r}")
        label = spec.fabric_label
        if label not in covered:
            problems.append(
                f"{name}: checker has no beat rule for protocol label "
                f"{label!r} (repro.check.monitors._BEAT_RULE)")
        elif _BEAT_RULE[label] != spec.beat_rule:
            problems.append(
                f"{name}: checker beat rule {_BEAT_RULE[label]!r} does not "
                f"match the spec's declared {spec.beat_rule!r}")
        engine = _engine_class(spec)
        if engine.snapshot_state is Fabric.snapshot_state:
            problems.append(
                f"{name}: engine {engine.__name__} does not serialise "
                "protocol state (snapshot_state not overridden)")
    problems.extend(_lint_bridge_matrix())
    return problems


def _lint_bridge_matrix() -> List[str]:
    from ..bridge.matrix import conversion_plan

    problems: List[str] = []
    specs = PROTOCOLS.values()
    for a in specs:
        for b in specs:
            try:
                conversion_plan(a, b)
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                problems.append(
                    f"bridge matrix hole {a.name} -> {b.name}: {exc}")
    return problems


def main() -> int:
    problems = lint_registry()
    for line in problems:
        print(f"registry-lint: {line}")
    if problems:
        print(f"registry-lint: {len(problems)} missing cell(s)")
        return 1
    print(f"registry-lint: {len(PROTOCOLS)} protocols fully covered "
          f"({len(PROTOCOLS)}^2 bridge matrix, energy, monitors, "
          "snapshot)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
