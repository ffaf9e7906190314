"""SDRAM device model (SDR / DDR) with bank state and timing enforcement.

The device is *passive*: the LMI controller drives it by asking for command
schedules.  Every JEDEC-style constraint from
:class:`~repro.memory.timing.SdramTiming` is enforced by per-bank and global
readiness times; violating call orders raise, so the controller model is
checked against the spec on every run (the paper validated its controller
"with RTL signal waveforms on a cycle-by-cycle basis" — our equivalent is
this always-on timing checker).

Command set, as listed in the paper: PRECHARGE, AUTOREFRESH, ACTIVE (we use
the common name ACTIVATE), READ, WRITE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.clock import Clock
from ..core.kernel import Simulator
from .timing import SdramGeometry, SdramTiming


class SdramTimingError(RuntimeError):
    """A command was issued before the device was ready for it."""


@dataclass
class BankState:
    """Dynamic state of one SDRAM bank."""

    open_row: Optional[int] = None
    #: Earliest time an ACTIVATE may be issued (tRP / tRC bounded).
    ready_activate_ps: int = 0
    #: Earliest time a READ/WRITE may be issued (tRCD bounded).
    ready_rw_ps: int = 0
    #: Earliest time a PRECHARGE may be issued (tRAS / tWR bounded).
    ready_precharge_ps: int = 0
    #: Time of the last ACTIVATE (for tRC).
    last_activate_ps: int = -10**15


class SdramDevice:
    """One SDR/DDR SDRAM device on a dedicated memory clock."""

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 timing: SdramTiming, geometry: SdramGeometry) -> None:
        self.sim = sim
        self.name = name
        self.clock = clock
        self.timing = timing
        self.geometry = geometry
        self.banks: List[BankState] = [BankState() for _ in range(geometry.banks)]
        self._cmdbus_free_ps = 0
        self._databus_free_ps = 0
        self._last_write_data_end_ps = -10**15
        self._last_activate_any_ps = -10**15
        # -- statistics (registry-backed, addressable as "<name>.*") ------
        metrics = sim.metrics
        self.activates = metrics.counter(f"{name}.activates")
        self.precharges = metrics.counter(f"{name}.precharges")
        self.reads = metrics.counter(f"{name}.reads")
        self.writes = metrics.counter(f"{name}.writes")
        self.refreshes = metrics.counter(f"{name}.refreshes")
        self.row_hits = metrics.counter(f"{name}.row_hits")
        self.row_misses = metrics.counter(f"{name}.row_misses")
        #: Command log for the independent timing auditor, or ``None``.
        #: The auditor replays this stream against the timing parameters
        #: from scratch — the constructive enforcement above cannot witness
        #: its own bugs (see ``repro.check.sdram_audit``).
        checks = getattr(sim, "_checks", None)
        self.cmd_log = checks.sdram_log(self) if checks is not None else None
        #: Energy accounting (``None`` unless an accountant is attached).
        #: Command energies are pre-resolved to integer femtojoules so the
        #: command paths below stay plain integer adds; power terms use the
        #: identity 1 mW x 1 ps = 1 fJ.
        energy = getattr(sim, "_energy", None)
        self._energy = energy
        if energy is not None:
            # Deferred import: repro.memory must not import repro.obs at
            # module scope (repro.obs.energy imports the timing tables).
            from ..obs.energy import fj_from_pj
            coeff = energy.config.sdram
            self._e_act = fj_from_pj(coeff.act_pj)
            self._e_pre = fj_from_pj(coeff.pre_pj)
            self._e_rd = fj_from_pj(coeff.rd_pj_per_beat)
            self._e_wr = fj_from_pj(coeff.wr_pj_per_beat)
            self._e_ref = fj_from_pj(coeff.ref_pj)
            self._e_background_mw = coeff.background_mw
            #: Active-standby energy per ACTIVATE: the JEDEC-minimum
            #: row-open window (tRAS) at ``active_standby_mw``.  This is
            #: deliberately count-based, not residency-based — every
            #: ACTIVATE must keep its row open at least tRAS, while
            #: open-but-idle residency beyond that is the power-down
            #: regime folded into ``background_mw``.  Residency-based
            #: standby would inherit the LT mode's event-reordering
            #: sensitivity (measured ~5% interval drift where commands
            #: drift <1%), breaking the energy clause of the accuracy
            #: contract for a second-order term.
            self._e_standby = int(round(coeff.active_standby_mw
                                        * timing.t_ras * clock.period_ps))
            energy.add_finalizer(self._finalize_energy)

    # ------------------------------------------------------------------
    def _cycles(self, n: int) -> int:
        return n * self.clock.period_ps

    def _command_slot(self, earliest_ps: int) -> int:
        """Reserve the next command-bus cycle at or after ``earliest_ps``."""
        slot = max(earliest_ps, self._cmdbus_free_ps)
        self._cmdbus_free_ps = slot + self._cycles(1)
        return slot

    # ------------------------------------------------------------------
    # individual commands (used by tests and by the high-level access path)
    # ------------------------------------------------------------------
    def precharge(self, bank_index: int, not_before_ps: int) -> int:
        """Issue PRECHARGE; returns the issue time."""
        bank = self.banks[bank_index]
        when = self._command_slot(max(not_before_ps, bank.ready_precharge_ps))
        if self.cmd_log is not None:
            self.cmd_log.record(when, "PRE", bank_index)
        if self._energy is not None:
            self._energy.charge(self.name, self._e_pre, when)
        bank.open_row = None
        bank.ready_activate_ps = max(bank.ready_activate_ps,
                                     when + self._cycles(self.timing.t_rp))
        self.precharges.add()
        return when

    def activate(self, bank_index: int, row: int, not_before_ps: int) -> int:
        """Issue ACTIVATE (the paper's "active"); returns the issue time."""
        bank = self.banks[bank_index]
        if bank.open_row is not None:
            raise SdramTimingError(
                f"{self.name}: ACTIVATE bank {bank_index} with row "
                f"{bank.open_row} still open")
        earliest = max(
            not_before_ps,
            bank.ready_activate_ps,
            bank.last_activate_ps + self._cycles(self.timing.t_rc),
            self._last_activate_any_ps + self._cycles(self.timing.t_rrd),
        )
        when = self._command_slot(earliest)
        if self.cmd_log is not None:
            self.cmd_log.record(when, "ACT", bank_index, row)
        if self._energy is not None:
            # ACT charge plus the tRAS active-standby window it commits to.
            self._energy.charge(self.name, self._e_act + self._e_standby,
                                when)
        bank.open_row = row
        bank.last_activate_ps = when
        self._last_activate_any_ps = when
        bank.ready_rw_ps = when + self._cycles(self.timing.t_rcd)
        bank.ready_precharge_ps = when + self._cycles(self.timing.t_ras)
        self.activates.add()
        return when

    def read(self, bank_index: int, row: int, beats: int,
             not_before_ps: int) -> Tuple[int, int]:
        """Issue READ; returns ``(first_data_ps, last_data_ps)``."""
        first, last = self._data_command(bank_index, row, beats,
                                         not_before_ps, is_write=False)
        self.reads.add()
        return first, last

    def write(self, bank_index: int, row: int, beats: int,
              not_before_ps: int) -> Tuple[int, int]:
        """Issue WRITE; returns ``(first_data_ps, last_data_ps)``."""
        first, last = self._data_command(bank_index, row, beats,
                                         not_before_ps, is_write=True)
        self.writes.add()
        return first, last

    def refresh(self, not_before_ps: int) -> int:
        """AUTOREFRESH: precharge-all then tRFC; returns completion time."""
        latest_pre = not_before_ps
        for index, bank in enumerate(self.banks):
            if bank.open_row is not None:
                latest_pre = max(latest_pre, self.precharge(index, not_before_ps)
                                 + self._cycles(self.timing.t_rp))
            else:
                latest_pre = max(latest_pre, bank.ready_activate_ps)
        when = self._command_slot(latest_pre)
        if self.cmd_log is not None:
            self.cmd_log.record(when, "REF")
        if self._energy is not None:
            # Open banks were closed by the precharges above, so the REF
            # charge is the whole all-banks refresh cycle.
            self._energy.charge(self.name, self._e_ref, when)
        done = when + self._cycles(self.timing.t_rfc)
        for bank in self.banks:
            bank.ready_activate_ps = max(bank.ready_activate_ps, done)
        self.refreshes.add()
        return done

    # ------------------------------------------------------------------
    def _data_command(self, bank_index: int, row: int, beats: int,
                      not_before_ps: int, is_write: bool) -> Tuple[int, int]:
        bank = self.banks[bank_index]
        if bank.open_row != row:
            raise SdramTimingError(
                f"{self.name}: bank {bank_index} row {row} not open "
                f"(open: {bank.open_row})")
        if beats < 1:
            raise ValueError(f"data command with {beats} beats")
        earliest = max(not_before_ps, bank.ready_rw_ps)
        if not is_write:
            # Write-to-read turnaround applies on the shared data bus.
            earliest = max(earliest, self._last_write_data_end_ps
                           + self._cycles(self.timing.t_wtr))
        when = self._command_slot(earliest)
        if self.cmd_log is not None:
            self.cmd_log.record(when, "WR" if is_write else "RD",
                                bank_index, row)
        if self._energy is not None:
            self._energy.charge(
                self.name, (self._e_wr if is_write else self._e_rd) * beats,
                when)
        latency = self._cycles(self.timing.cl if not is_write else 1)
        clocks_needed = -(-beats // self.timing.beats_per_clock)
        first_data = max(when + latency, self._databus_free_ps)
        last_data = first_data + self._cycles(clocks_needed)
        self._databus_free_ps = last_data
        if is_write:
            self._last_write_data_end_ps = last_data
            bank.ready_precharge_ps = max(
                bank.ready_precharge_ps,
                last_data + self._cycles(self.timing.t_wr))
        else:
            bank.ready_precharge_ps = max(bank.ready_precharge_ps, last_data)
        return first_data, last_data

    # ------------------------------------------------------------------
    # energy integration (only reachable with an accountant attached)
    # ------------------------------------------------------------------
    def _finalize_energy(self, now_ps: int) -> None:
        """End-of-run integral: background power over the whole run."""
        self._energy.charge(
            self.name, int(round(self._e_background_mw * now_ps)), now_ps)

    # ------------------------------------------------------------------
    # high-level helper used by the controller's optimisation engine
    # ------------------------------------------------------------------
    def access(self, opcode_is_write: bool, address: int, beats: int,
               not_before_ps: int) -> Tuple[int, int, bool]:
        """Perform a full access (precharge/activate as needed + READ/WRITE).

        Returns ``(first_data_ps, last_data_ps, was_row_hit)``.
        """
        bank_index, row, _col = self.geometry.decode(address)
        bank = self.banks[bank_index]
        hit = bank.open_row == row
        if hit:
            self.row_hits.add()
        else:
            self.row_misses.add()
            if bank.open_row is not None:
                self.precharge(bank_index, not_before_ps)
            self.activate(bank_index, row, not_before_ps)
        if opcode_is_write:
            first, last = self.write(bank_index, row, beats, not_before_ps)
        else:
            first, last = self.read(bank_index, row, beats, not_before_ps)
        return first, last, hit

    def is_row_hit(self, address: int) -> bool:
        """Would an access to ``address`` hit an open row right now?"""
        bank_index, row, _col = self.geometry.decode(address)
        return self.banks[bank_index].open_row == row

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits.value + self.row_misses.value
        return self.row_hits.value / total if total else 0.0
