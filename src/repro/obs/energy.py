"""Per-transaction, per-component energy accounting.

The paper's platform is judged on how communication, memory and I/O
*interact* — and in a memory-centric MPSoC those interactions dominate
energy as much as latency: every bus beat toggles a data path, every
row miss costs an ACTIVATE/PRECHARGE pair, every refresh burns charge
whether or not the platform is busy.  This module adds that dimension
to the observability stack without touching its cost model:

* :class:`EnergyConfig` — the coefficient block (per-beat bus energy per
  fabric protocol, SDRAM command energies + standby power from
  :mod:`repro.memory.timing`, on-chip memory and cache access energies).
  It is a field of ``PlatformConfig``, so coefficients travel with the
  configuration document through sweeps, checkpoints and cache keys.
* :class:`EnergyAccountant` — the per-simulator sink.  It lives in the
  ``Simulator._energy`` slot next to ``_spans`` and ``_checks`` and
  follows the same select-once discipline: components capture the slot
  once at construction and guard every charge with a single
  ``is not None`` test per transaction hop.  With the slot at ``None``
  (the default) a run executes exactly the uninstrumented fast path.

Accounting is **integer femtojoules**.  Coefficients are configured in
picojoules (datasheet units) and converted once, at tap resolution, so
hot-path charges are plain integer adds — deterministic, exactly
associative, and conserving by construction: the per-component totals
sum to the reported total with no floating-point residue.  The handy
identity ``1 mW x 1 ps = 1 fJ`` makes power integration exact too, and
is what the Perfetto counter export uses in reverse (``fJ / ps = mW``).

The loosely-timed mode charges through the *same* taps: LT batches
event scheduling, never beats (``docs/FAST_SIM.md``), so per-beat
charge counts are identical between resolutions and only the
time-integrated standby terms drift with execution time — which is what
keeps the LT energy-drift clause of the accuracy contract at <=1%.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..interconnect.protocols import spec_for_fabric
from ..memory.timing import DDR_ENERGY, SdramEnergy

#: Accounting grain: coefficients are configured in pJ, accumulated in fJ.
FJ_PER_PJ = 1000


def fj_from_pj(pj: float) -> int:
    """One-time conversion of a configured coefficient to the fJ grain."""
    return int(round(pj * FJ_PER_PJ))


@dataclass(frozen=True)
class EnergyConfig:
    """The energy model's coefficient block.

    Bus coefficients are picojoules per (width-adjusted) bus cell — one
    request cell or one response beat on the fabric data path.  They are
    representative 130 nm-class numbers ordered by protocol capability
    (a T3 shaped-packet node switches more control logic per cell than a
    T1 node; AXI's five channels cost more than AHB's two); like the
    SDRAM timing tables they are *tunable model parameters*, not
    measurements — calibrate them per technology before drawing absolute
    conclusions.  Relative comparisons (topology A vs topology B under
    one coefficient set) are the intended use, exactly as for the
    latency results.
    """

    #: Master switch: when ``False`` (the default) no accountant is
    #: attached and every tap stays a dormant ``None`` check.
    enabled: bool = False

    # -- interconnect (pJ per request cell / response beat) ------------
    stbus_t1_pj_per_beat: float = 4.2
    stbus_t2_pj_per_beat: float = 5.6
    stbus_t3_pj_per_beat: float = 6.8
    ahb_pj_per_beat: float = 5.0
    axi_pj_per_beat: float = 7.5
    #: Registry-served generic fabrics (docs/PROTOCOLS.md): simpler
    #: handshakes switch less control logic per cell than the
    #: full-featured buses above.
    wishbone_pj_per_beat: float = 3.8
    apb_pj_per_beat: float = 2.4
    axi4lite_pj_per_beat: float = 4.6
    avalon_pj_per_beat: float = 4.0
    tilelink_pj_per_beat: float = 4.4
    #: Per far-side beat of a bridge-converted child transaction
    #: (re-timing FIFOs + width conversion datapath).
    bridge_pj_per_beat: float = 3.4

    # -- memories (pJ per beat / access) -------------------------------
    onchip_pj_per_beat: float = 9.0
    cache_hit_pj: float = 6.0
    cache_miss_pj: float = 14.0
    #: Off-chip SDRAM command/standby model (paired with the timing
    #: preset via ``ENERGY_PRESETS`` in :mod:`repro.memory.timing`).
    sdram: SdramEnergy = DDR_ENERGY

    def __post_init__(self) -> None:
        # Every coefficient is a float-annotated field; the check goes by
        # annotation, not by value type, so an int from JSON is checked too.
        for item in fields(self):
            if item.type == "float" and getattr(self, item.name) < 0:
                raise ValueError(f"energy coefficient {item.name} cannot be "
                                 f"negative")

    def scaled(self, **overrides: Any) -> "EnergyConfig":
        """A copy with selected coefficients replaced (for sweeps)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    def fabric_pj_per_beat(self, fabric) -> float:
        """Coefficient for one bus cell on ``fabric``: the field
        ``<spec.name>_pj_per_beat`` of its registry spec
        (``spec_for_fabric``), or the STBus Type 2 coefficient for a
        fabric no spec describes."""
        try:
            spec = spec_for_fabric(fabric)
        except ValueError:
            return self.stbus_t2_pj_per_beat
        return float(getattr(self, f"{spec.name}_pj_per_beat"))


class EnergyAccountant:
    """Integer-fJ energy sink for one simulator.

    Hot-path contract: :meth:`bus_request` / :meth:`bus_beat` /
    :meth:`charge` are only ever called behind an ``is not None`` guard
    on a captured ``Simulator._energy`` slot, so the disabled path costs
    one attribute test per transaction hop and nothing per event.

    ``timeline=True`` additionally records every charge as a
    ``(time_ps, fj)`` delta per component — the raw material for the
    Perfetto power counter tracks.  ``per_transaction=True`` keeps a
    per-transaction-id total for span-level attribution.  Both are
    capture-time options (like FIFO probes): plain platform runs
    accumulate totals only.
    """

    def __init__(self, config: Optional[EnergyConfig] = None, *,
                 timeline: bool = False,
                 per_transaction: bool = False) -> None:
        self.config = config if config is not None \
            else EnergyConfig(enabled=True)
        #: fJ per component path — the conservation ledger.
        self._totals: Dict[str, int] = {}
        self._by_initiator: Dict[str, int] = {}
        self._txn_fj: Optional[Dict[int, int]] = \
            {} if per_transaction else None
        self._timeline: Optional[Dict[str, List[Tuple[int, int]]]] = \
            {} if timeline else None
        #: Lazily resolved ``id(fabric) -> (component path, fJ/cell)``.
        #: Lazy because the channel engine assigns its ``spec`` *after*
        #: the base ``Fabric.__init__`` captured this accountant.
        self._fabric_cache: Dict[int, Tuple[str, int]] = {}
        #: End-of-run integrators (SDRAM background power, open rows).
        self._finalizers: List[Callable[[int], None]] = []
        self._finalized_at: Optional[int] = None

    # ------------------------------------------------------------------
    def configure(self, config: EnergyConfig) -> None:
        """Adopt a platform's coefficient block (pre-elaboration only)."""
        self.config = config
        self._fabric_cache.clear()

    # ------------------------------------------------------------------
    # hot-path charging
    # ------------------------------------------------------------------
    def charge(self, component: str, fj: int, t_ps: int = 0,
               initiator: Optional[str] = None,
               tid: Optional[int] = None) -> None:
        """Attribute ``fj`` femtojoules to ``component`` at ``t_ps``."""
        if fj <= 0:
            return
        totals = self._totals
        totals[component] = totals.get(component, 0) + fj
        if initiator is not None:
            by_init = self._by_initiator
            by_init[initiator] = by_init.get(initiator, 0) + fj
        if tid is not None and self._txn_fj is not None:
            self._txn_fj[tid] = self._txn_fj.get(tid, 0) + fj
        if self._timeline is not None:
            self._timeline.setdefault(component, []).append((t_ps, fj))

    def bus_request(self, fabric, txn) -> None:
        """Request-channel charge: one cell per occupied request cycle."""
        entry = self._fabric_cache.get(id(fabric))
        if entry is None:
            entry = self._resolve_fabric(fabric)
        path, fj = entry
        self.charge(path, fj * fabric.request_cycles(txn), fabric.sim.now,
                    txn.initiator, txn.tid)

    def bus_beat(self, fabric, txn) -> None:
        """Response-channel charge: one beat (or write ack) delivered."""
        entry = self._fabric_cache.get(id(fabric))
        if entry is None:
            entry = self._resolve_fabric(fabric)
        path, fj = entry
        self.charge(path, fj, fabric.sim.now, txn.initiator, txn.tid)

    def _resolve_fabric(self, fabric) -> Tuple[str, int]:
        entry = (fabric.name,
                 fj_from_pj(self.config.fabric_pj_per_beat(fabric)))
        self._fabric_cache[id(fabric)] = entry
        return entry

    # ------------------------------------------------------------------
    # end-of-run integration
    # ------------------------------------------------------------------
    def add_finalizer(self, fn: Callable[[int], None]) -> None:
        """Register an end-of-run integrator (called once, at finalize)."""
        self._finalizers.append(fn)

    def finalize(self, now_ps: int) -> None:
        """Integrate the time-based terms up to ``now_ps`` (idempotent)."""
        if self._finalized_at is not None:
            return
        self._finalized_at = now_ps
        for fn in self._finalizers:
            fn(now_ps)

    # ------------------------------------------------------------------
    # queries (reporting grain: pJ floats)
    # ------------------------------------------------------------------
    @property
    def total_fj(self) -> int:
        return sum(self._totals.values())

    @property
    def total_pj(self) -> float:
        return self.total_fj / FJ_PER_PJ

    def component_pj(self) -> Dict[str, float]:
        return {name: fj / FJ_PER_PJ
                for name, fj in sorted(self._totals.items())}

    def initiator_pj(self) -> Dict[str, float]:
        """Initiator-attributable energy (bus, cache and on-chip beats).

        Shared memory-system work (SDRAM commands, standby power) has no
        single requester and is deliberately absent here; the component
        breakdown is the conserving one.
        """
        return {name: fj / FJ_PER_PJ
                for name, fj in sorted(self._by_initiator.items())}

    def txn_pj(self, tid: int) -> Optional[float]:
        """Per-transaction energy (``per_transaction`` captures only)."""
        if self._txn_fj is None:
            return None
        fj = self._txn_fj.get(tid)
        return None if fj is None else fj / FJ_PER_PJ

    def timeline_deltas(self) -> Dict[str, List[Tuple[int, int]]]:
        """Per-component ``(time_ps, fj)`` charge deltas (timeline mode)."""
        return self._timeline or {}

    def rows(self) -> Dict[str, float]:
        """Flat ``path -> pJ`` rows for the metric exporters."""
        out: Dict[str, float] = {}
        for name, fj in sorted(self._totals.items()):
            out[f"energy.{name}.pj"] = fj / FJ_PER_PJ
        for name, fj in sorted(self._by_initiator.items()):
            out[f"energy.initiator.{name}.pj"] = fj / FJ_PER_PJ
        out["energy.total.pj"] = self.total_fj / FJ_PER_PJ
        return out


def attach_energy(sim, config: Optional[EnergyConfig] = None, *,
                  timeline: bool = False,
                  per_transaction: bool = False) -> EnergyAccountant:
    """Install an accountant on ``sim`` (pre-elaboration).

    Components capture ``sim._energy`` at construction, so this must run
    before the platform is built — ``PlatformInstance`` does it from the
    configuration, ``repro.obs.capture(energy=True)`` from the ambient
    construction hook.  If an accountant is already installed it is
    returned unchanged (the capture hook wins; a platform configuration
    then merely re-points the coefficients via :meth:`configure`).
    """
    accountant = sim._energy
    if accountant is None:
        accountant = EnergyAccountant(config, timeline=timeline,
                                      per_transaction=per_transaction)
        sim._energy = accountant
        registry = sim.metrics
        if "energy" not in registry:
            registry.register("energy", accountant)
    elif config is not None:
        accountant.configure(config)
    return accountant


__all__ = [
    "EnergyAccountant",
    "EnergyConfig",
    "FJ_PER_PJ",
    "attach_energy",
    "fj_from_pj",
]
