"""SDRAM timing parameter sets.

"The controller ... generates the corresponding sequence of SDRAM commands
(e.g., precharge, autorefresh, active, read, write) while meeting SDRAM
timing specifications (e.g., TRAS, TCAS), which are model parameters."
(Section 3.1)

All values are in *memory clock cycles*; the device model converts to
picoseconds with its clock.  The presets are representative mid-2000s parts
(the platform is a 2007 consumer-electronics SoC with an off-chip DDR
SDRAM); absolute values are tunable model parameters exactly as in the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class SdramTiming:
    """JEDEC-style timing constraints, in memory-clock cycles."""

    #: CAS latency: READ command to first data (the paper's TCAS).
    cl: int = 3
    #: ACTIVATE to READ/WRITE delay.
    t_rcd: int = 3
    #: PRECHARGE to ACTIVATE delay.
    t_rp: int = 3
    #: ACTIVATE to PRECHARGE minimum (row must stay open this long) — TRAS.
    t_ras: int = 7
    #: ACTIVATE to ACTIVATE, same bank (row cycle time).
    t_rc: int = 10
    #: ACTIVATE to ACTIVATE, different banks.
    t_rrd: int = 2
    #: Write recovery: last write data to PRECHARGE.
    t_wr: int = 3
    #: Write-to-read turnaround.
    t_wtr: int = 2
    #: REFRESH command period (row refresh cycle time).
    t_rfc: int = 14
    #: Average refresh interval.
    t_refi: int = 1560
    #: Data beats transferred per clock: 1 for SDR, 2 for DDR.
    beats_per_clock: int = 2

    def __post_init__(self) -> None:
        for name in ("cl", "t_rcd", "t_rp", "t_ras", "t_rc", "t_rrd",
                     "t_wr", "t_wtr", "t_rfc", "t_refi"):
            if getattr(self, name) < 1:
                raise ValueError(f"timing parameter {name} must be >= 1")
        if self.beats_per_clock not in (1, 2):
            raise ValueError("beats_per_clock must be 1 (SDR) or 2 (DDR)")
        if self.t_rc < self.t_ras + self.t_rp:
            raise ValueError(
                f"inconsistent timings: tRC ({self.t_rc}) < "
                f"tRAS + tRP ({self.t_ras + self.t_rp})")

    def scaled(self, **overrides) -> "SdramTiming":
        """A copy with selected parameters replaced (for sweeps)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class SdramGeometry:
    """Device organisation: banks x rows x columns x data width."""

    banks: int = 4
    row_bits: int = 13
    col_bits: int = 10
    #: Width of the device data bus in bytes (one column = one beat).
    width_bytes: int = 8

    def __post_init__(self) -> None:
        if self.banks < 1 or self.banks & (self.banks - 1):
            raise ValueError(f"banks must be a power of two, got {self.banks}")
        if not 1 <= self.row_bits <= 20 or not 1 <= self.col_bits <= 14:
            raise ValueError("implausible row/col bits")
        if self.width_bytes not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported device width {self.width_bytes}")

    def decode(self, address: int) -> tuple:
        """Map a byte address to ``(bank, row, column)``.

        Bank bits sit above the column bits (bank interleaving of
        consecutive rows' worth of data), the usual controller mapping that
        lets sequential streams hit open rows for a whole page.
        """
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        beat = address // self.width_bytes
        col = beat & ((1 << self.col_bits) - 1)
        beat >>= self.col_bits
        bank = beat & (self.banks - 1)
        beat >>= self.banks.bit_length() - 1
        row = beat & ((1 << self.row_bits) - 1)
        return bank, row, col


#: Representative DDR SDRAM (DDR-333-ish at a 166 MHz memory clock).
DDR_SDRAM = SdramTiming(cl=3, t_rcd=3, t_rp=3, t_ras=7, t_rc=10, t_rrd=2,
                        t_wr=3, t_wtr=2, t_rfc=14, t_refi=1297,
                        beats_per_clock=2)

#: Representative single-data-rate SDRAM (PC133-class).
SDR_SDRAM = SdramTiming(cl=2, t_rcd=2, t_rp=2, t_ras=5, t_rc=8, t_rrd=2,
                        t_wr=2, t_wtr=1, t_rfc=9, t_refi=1040,
                        beats_per_clock=1)

#: Named presets for configuration files.
TIMING_PRESETS: Dict[str, SdramTiming] = {
    "ddr": DDR_SDRAM,
    "sdr": SDR_SDRAM,
}


@dataclass(frozen=True)
class SdramEnergy:
    """Per-command SDRAM energies plus standby power.

    The command energies (picojoules per command, per data beat for
    RD/WR) pair with the :class:`SdramTiming` presets above the same way
    a datasheet's IDD table pairs with its AC timing table: the numbers
    are representative of mid-2000s parts (derived from IDD0/IDD4/IDD5
    figures at 2.5 V for the DDR preset, 3.3 V for the SDR one), and are
    tunable model parameters exactly like the timings.

    Power terms are integrated over simulated time by the energy
    accountant (``repro.obs.energy``): ``background_mw`` over the whole
    run (clock tree, input buffers, refresh-interval leakage) and
    ``active_standby_mw`` over every interval a bank holds a row open
    (the IDD3N-minus-IDD2N delta that rewards precharging idle banks).
    """

    #: ACTIVATE: decode + row fetch into the sense amps (pJ/command).
    act_pj: float = 180.0
    #: PRECHARGE: restore the row, release the sense amps (pJ/command).
    pre_pj: float = 80.0
    #: READ burst data movement (pJ per data beat).
    rd_pj_per_beat: float = 18.0
    #: WRITE burst data movement (pJ per data beat).
    wr_pj_per_beat: float = 20.0
    #: AUTOREFRESH: all-banks row refresh cycle (pJ/command).
    ref_pj: float = 450.0
    #: Baseline device power whenever the clock runs (mW).
    background_mw: float = 45.0
    #: Additional power per bank while it holds a row open (mW).
    active_standby_mw: float = 12.0

    def __post_init__(self) -> None:
        for name in ("act_pj", "pre_pj", "rd_pj_per_beat", "wr_pj_per_beat",
                     "ref_pj", "background_mw", "active_standby_mw"):
            if getattr(self, name) < 0:
                raise ValueError(f"energy parameter {name} cannot be negative")

    def scaled(self, **overrides) -> "SdramEnergy":
        """A copy with selected parameters replaced (for sweeps)."""
        return replace(self, **overrides)


#: Energy companion to :data:`DDR_SDRAM` (2.5 V DDR-333-class device).
DDR_ENERGY = SdramEnergy()

#: Energy companion to :data:`SDR_SDRAM` (3.3 V PC133-class device):
#: higher rail voltage, slower clock — more energy per command and beat,
#: less standby power.
SDR_ENERGY = SdramEnergy(act_pj=240.0, pre_pj=110.0, rd_pj_per_beat=28.0,
                         wr_pj_per_beat=31.0, ref_pj=560.0,
                         background_mw=30.0, active_standby_mw=16.0)

#: Named presets for configuration files (mirrors :data:`TIMING_PRESETS`).
ENERGY_PRESETS: Dict[str, SdramEnergy] = {
    "ddr": DDR_ENERGY,
    "sdr": SDR_ENERGY,
}
