"""Independent SDRAM command-stream auditor.

The :class:`~repro.memory.sdram.SdramDevice` enforces JEDEC timing
*constructively* — it computes the earliest legal slot for every command.
That makes it useless as a witness for its own correctness: a bug in the
readiness bookkeeping moves the commands *and* the check together.

The auditor closes the loop the way the paper validated its controller
("with RTL signal waveforms on a cycle-by-cycle basis"): when checks are
enabled the device appends every issued command to a
:class:`SdramCommandLog`, and :func:`audit_sdram` replays that stream
against :class:`~repro.memory.timing.SdramTiming` from first principles —
per-bank row state, tRCD/tRP/tRAS/tRC/tRRD/tRFC distances, command-bus
spacing and the autorefresh interval — sharing no state with the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .violations import Violation

#: Command mnemonics as the paper lists them (ACTIVE -> ACT).
CMD_PRECHARGE = "PRE"
CMD_ACTIVATE = "ACT"
CMD_READ = "RD"
CMD_WRITE = "WR"
CMD_REFRESH = "REF"


@dataclass
class SdramCommandLog:
    """The recorded command stream of one SDRAM device.

    Entries are ``(time_ps, cmd, bank, row)`` with ``bank``/``row`` of
    ``-1`` where not applicable (REF).  The device appends in issue order;
    :func:`audit_sdram` sorts defensively anyway.
    """

    name: str
    timing: object  # SdramTiming (duck-typed; this module stays import-light)
    period_ps: int
    #: Set by the LMI controller when its autorefresh engine is enabled;
    #: bare devices (unit tests) are not expected to refresh.
    refresh_expected: bool = False
    commands: List[Tuple[int, str, int, int]] = field(default_factory=list)

    def record(self, time_ps: int, cmd: str, bank: int = -1,
               row: int = -1) -> None:
        self.commands.append((time_ps, cmd, bank, row))


def audit_sdram(log: SdramCommandLog) -> List[Violation]:
    """Replay ``log`` against its timing parameters; return violations.

    Rules checked (rule ids in parentheses):

    * row state — RD/WR only to the open row, ACT only on a closed bank,
      REF only with every bank precharged (``sdram.row_state``);
    * tRCD — ACT to RD/WR, same bank (``sdram.t_rcd``);
    * tRP  — PRE to ACT/REF, same bank (``sdram.t_rp``);
    * tRAS — ACT to PRE, same bank (``sdram.t_ras``);
    * tRC  — ACT to ACT, same bank (``sdram.t_rc``);
    * tRRD — ACT to ACT, any bank (``sdram.t_rrd``);
    * tRFC — REF to next ACT (``sdram.t_rfc``);
    * command-bus occupancy — one command per clock (``sdram.cmd_bus``);
    * autorefresh — when refreshes are expected, no ACT/RD/WR may run with
      the last refresh staler than tREFI plus a bounded service slack
      (``sdram.refresh``; the LMI engine forgives refresh debt across idle
      gaps, so the slack covers its worst-case group-service latency).
    """
    timing = log.timing
    period = log.period_ps
    cyc = lambda n: n * period  # noqa: E731 - tiny local helper
    commands = sorted(log.commands)
    violations: List[Violation] = []

    def flag(time_ps: int, rule: str, message: str,
             cmd: Optional[Tuple[int, str, int, int]] = None) -> None:
        violations.append(Violation(component=log.name, time_ps=time_ps,
                                    rule=rule, message=message, txn=cmd))

    # Banks no command names are never opened: they need no state.
    nbanks = 1 + max([bank for _, _, bank, _ in commands if bank >= 0],
                     default=0)
    open_row = [None] * nbanks
    last_act = [None] * nbanks
    last_pre = [None] * nbanks
    last_act_any: Optional[int] = None
    last_ref: Optional[int] = None
    last_cmd_ps: Optional[int] = None
    #: Refresh staleness bound: the interval itself plus the engine's
    #: worst-case service latency (a refresh cycle, a row cycle, a write
    #: recovery and a generous command/pipeline allowance).
    refresh_limit = cyc(timing.t_refi + timing.t_rfc + timing.t_rc
                        + timing.t_ras + 64)

    for entry in commands:
        when, cmd, bank, row = entry
        if last_cmd_ps is not None and when - last_cmd_ps < cyc(1):
            flag(when, "sdram.cmd_bus",
                 f"command {cmd} only {when - last_cmd_ps}ps after the "
                 f"previous command (one per {period}ps clock)", entry)
        last_cmd_ps = when
        if log.refresh_expected and cmd in (CMD_ACTIVATE, CMD_READ, CMD_WRITE):
            since = when - (last_ref if last_ref is not None else 0)
            if since > refresh_limit:
                flag(when, "sdram.refresh",
                     f"{cmd} with the last AUTOREFRESH {since}ps stale "
                     f"(limit {refresh_limit}ps = tREFI + slack)", entry)
        if cmd == CMD_ACTIVATE:
            if open_row[bank] is not None:
                flag(when, "sdram.row_state",
                     f"ACT bank {bank} with row {open_row[bank]} open", entry)
            if last_pre[bank] is not None and \
                    when - last_pre[bank] < cyc(timing.t_rp):
                flag(when, "sdram.t_rp",
                     f"ACT bank {bank} {when - last_pre[bank]}ps after PRE "
                     f"(tRP = {cyc(timing.t_rp)}ps)", entry)
            if last_act[bank] is not None and \
                    when - last_act[bank] < cyc(timing.t_rc):
                flag(when, "sdram.t_rc",
                     f"ACT bank {bank} {when - last_act[bank]}ps after the "
                     f"previous ACT (tRC = {cyc(timing.t_rc)}ps)", entry)
            if last_act_any is not None and \
                    when - last_act_any < cyc(timing.t_rrd):
                flag(when, "sdram.t_rrd",
                     f"ACT {when - last_act_any}ps after an ACT on another "
                     f"bank (tRRD = {cyc(timing.t_rrd)}ps)", entry)
            if last_ref is not None and when - last_ref < cyc(timing.t_rfc):
                flag(when, "sdram.t_rfc",
                     f"ACT {when - last_ref}ps after AUTOREFRESH "
                     f"(tRFC = {cyc(timing.t_rfc)}ps)", entry)
            open_row[bank] = row
            last_act[bank] = when
            last_act_any = when
        elif cmd in (CMD_READ, CMD_WRITE):
            if open_row[bank] != row:
                flag(when, "sdram.row_state",
                     f"{cmd} bank {bank} row {row} but open row is "
                     f"{open_row[bank]}", entry)
            if last_act[bank] is not None and \
                    when - last_act[bank] < cyc(timing.t_rcd):
                flag(when, "sdram.t_rcd",
                     f"{cmd} bank {bank} {when - last_act[bank]}ps after ACT "
                     f"(tRCD = {cyc(timing.t_rcd)}ps)", entry)
        elif cmd == CMD_PRECHARGE:
            if last_act[bank] is not None and open_row[bank] is not None and \
                    when - last_act[bank] < cyc(timing.t_ras):
                flag(when, "sdram.t_ras",
                     f"PRE bank {bank} {when - last_act[bank]}ps after ACT "
                     f"(tRAS = {cyc(timing.t_ras)}ps)", entry)
            open_row[bank] = None
            last_pre[bank] = when
        elif cmd == CMD_REFRESH:
            for b in range(nbanks):
                if open_row[b] is not None:
                    flag(when, "sdram.row_state",
                         f"AUTOREFRESH with bank {b} row {open_row[b]} open",
                         entry)
                if last_pre[b] is not None and \
                        when - last_pre[b] < cyc(timing.t_rp):
                    flag(when, "sdram.t_rp",
                         f"AUTOREFRESH {when - last_pre[b]}ps after PRE on "
                         f"bank {b} (tRP = {cyc(timing.t_rp)}ps)", entry)
            last_ref = when
        else:
            flag(when, "sdram.unknown", f"unknown command {cmd!r}", entry)
    return violations


__all__ = ["SdramCommandLog", "audit_sdram", "CMD_PRECHARGE", "CMD_ACTIVATE",
           "CMD_READ", "CMD_WRITE", "CMD_REFRESH"]
