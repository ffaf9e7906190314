"""Table-driven tests for the independent SDRAM timing auditor.

Each table row is a hand-crafted command stream that deliberately violates
exactly one JEDEC constraint; the auditor must flag exactly that rule and
nothing else.  The streams are built against :data:`DDR_SDRAM` (tRCD=3,
tRP=3, tRAS=7, tRC=10, tRRD=2, tRFC=14, tREFI=1297 cycles), except the
isolated tRC case, which needs a timing where tRC exceeds tRAS + tRP.
"""

import pytest

from repro.check import CheckSession, SdramCommandLog, audit_sdram
from repro.check.sdram_audit import (
    CMD_ACTIVATE,
    CMD_PRECHARGE,
    CMD_READ,
    CMD_REFRESH,
)
from repro.core import Simulator
from repro.memory.timing import DDR_SDRAM, SdramTiming

#: One SDRAM clock period in ps (any value works; the auditor scales).
P = 6_000

#: Timing with tRC strictly above tRAS + tRP, so an ACT→ACT distance can
#: violate tRC alone (with DDR_SDRAM, tRC == tRAS + tRP, so any isolated
#: tRC violation also trips tRAS or tRP).
WIDE_TRC = SdramTiming(cl=3, t_rcd=3, t_rp=3, t_ras=7, t_rc=20, t_rrd=2,
                       t_wr=3, t_wtr=2, t_rfc=14, t_refi=1297)

#: (case id, timing, refresh_expected, command stream, expected rule).
#: Streams are (time, cmd, bank, row) tuples, times in clock multiples.
VIOLATION_TABLE = [
    ("t_rcd", DDR_SDRAM, False,
     [(0, CMD_ACTIVATE, 0, 5), (1, CMD_READ, 0, 5)],
     "sdram.t_rcd"),
    ("t_rp", DDR_SDRAM, False,
     [(0, CMD_ACTIVATE, 0, 5), (8, CMD_PRECHARGE, 0, -1),
      (10, CMD_ACTIVATE, 0, 6)],
     "sdram.t_rp"),
    ("t_ras", DDR_SDRAM, False,
     [(0, CMD_ACTIVATE, 0, 5), (5, CMD_PRECHARGE, 0, -1)],
     "sdram.t_ras"),
    ("t_rc", WIDE_TRC, False,
     [(0, CMD_ACTIVATE, 0, 5), (7, CMD_PRECHARGE, 0, -1),
      (12, CMD_ACTIVATE, 0, 6)],
     "sdram.t_rc"),
    ("t_rrd", DDR_SDRAM, False,
     [(0, CMD_ACTIVATE, 0, 5), (1, CMD_ACTIVATE, 1, 5)],
     "sdram.t_rrd"),
    ("t_rfc", DDR_SDRAM, False,
     [(0, CMD_REFRESH, -1, -1), (5, CMD_ACTIVATE, 0, 5)],
     "sdram.t_rfc"),
    ("refresh", DDR_SDRAM, True,
     [(0, CMD_ACTIVATE, 0, 5), (3, CMD_READ, 0, 5),
      (2000, CMD_READ, 0, 5)],
     "sdram.refresh"),
    ("row_state", DDR_SDRAM, False,
     [(0, CMD_ACTIVATE, 0, 5), (5, CMD_READ, 0, 6)],
     "sdram.row_state"),
    ("cmd_bus", DDR_SDRAM, False,
     [(0, CMD_ACTIVATE, 0, 5), (3, CMD_READ, 0, 5)],
     "sdram.cmd_bus"),
]


def make_log(timing, refresh_expected, stream) -> SdramCommandLog:
    log = SdramCommandLog(name="sdram", timing=timing, period_ps=P,
                          refresh_expected=refresh_expected)
    for clocks, cmd, bank, row in stream:
        log.record(clocks * P, cmd, bank, row)
    return log


class TestViolationTable:
    @pytest.mark.parametrize(
        "case, timing, refresh_expected, stream, expected_rule",
        VIOLATION_TABLE, ids=[row[0] for row in VIOLATION_TABLE])
    def test_exactly_one_rule_flagged(self, case, timing, refresh_expected,
                                      stream, expected_rule):
        log = make_log(timing, refresh_expected, stream)
        if case == "cmd_bus":
            # Add a third command on a half-clock boundary so the
            # one-command-per-clock rule is the only thing broken.
            log.record(3 * P + P // 2, CMD_READ, 0, 5)
        violations = audit_sdram(log)
        assert violations, f"{case}: auditor saw nothing"
        rules = {v.rule for v in violations}
        assert rules == {expected_rule}, \
            f"{case}: expected only {expected_rule}, got {sorted(rules)}"
        assert all(v.component == "sdram" for v in violations)
        assert all(v.time_ps >= 0 for v in violations)

    def test_legal_stream_is_clean(self):
        t = DDR_SDRAM
        log = make_log(t, False, [
            (0, CMD_ACTIVATE, 0, 5),
            (t.t_rcd, CMD_READ, 0, 5),
            (t.t_ras, CMD_PRECHARGE, 0, -1),
            (t.t_ras + t.t_rp + 3, CMD_ACTIVATE, 0, 6),
        ])
        assert audit_sdram(log) == []

    def test_refresh_honoured_stream_is_clean(self):
        t = DDR_SDRAM
        log = make_log(t, True, [
            (0, CMD_REFRESH, -1, -1),
            (t.t_rfc, CMD_ACTIVATE, 0, 5),
            (t.t_rfc + t.t_rcd, CMD_READ, 0, 5),
            (t.t_rfc + t.t_ras + 1, CMD_PRECHARGE, 0, -1),
            (1200, CMD_REFRESH, -1, -1),
            (1200 + t.t_rfc, CMD_ACTIVATE, 0, 7),
        ])
        assert audit_sdram(log) == []

    def test_refresh_with_open_bank_is_row_state(self):
        log = make_log(DDR_SDRAM, False, [
            (0, CMD_ACTIVATE, 0, 5),
            (20, CMD_REFRESH, -1, -1),
        ])
        assert {v.rule for v in audit_sdram(log)} == {"sdram.row_state"}

    def test_refresh_checks_the_highest_bank_the_log_names(self):
        log = make_log(DDR_SDRAM, False, [
            (0, CMD_ACTIVATE, 3, 5),
            (20, CMD_REFRESH, -1, -1),
        ])
        assert {v.rule for v in audit_sdram(log)} == {"sdram.row_state"}

    def test_unknown_command_flagged(self):
        log = SdramCommandLog(name="sdram", timing=DDR_SDRAM, period_ps=P)
        log.record(0, "NOP")
        assert {v.rule for v in audit_sdram(log)} == {"sdram.unknown"}


class TestDeviceIntegration:
    """The constructive device model must audit clean through the real log."""

    def _device(self, sim):
        from repro.core.clock import Clock
        from repro.memory.sdram import SdramDevice
        from repro.memory.timing import SdramGeometry

        clock = Clock(sim, freq_mhz=166.0, name="mem_clk")
        return SdramDevice(sim, "sdram", clock, DDR_SDRAM, SdramGeometry())

    def test_no_log_outside_session(self):
        device = self._device(Simulator())
        assert device.cmd_log is None

    def test_device_commands_audit_clean(self):
        session = CheckSession()
        sim = Simulator()
        session.attach(sim)
        device = self._device(sim)
        assert device.cmd_log is not None
        now = 0
        for address in (0, 4096, 8192, 0, 1 << 20):
            __, last, _hit = device.access(False, address, beats=4,
                                           not_before_ps=now)
            now = last
            __, last, _hit = device.access(True, address + 64, beats=4,
                                           not_before_ps=now)
            now = last
        device.refresh(now + 1_000)
        assert device.cmd_log.commands
        assert audit_sdram(device.cmd_log) == []
        # And the session-level finalize reaches the same log.
        assert session.finalize(expect_drained=False) == []

    def test_lmi_platform_records_refreshes(self):
        from repro.check import checked
        from repro.platforms import build_platform
        from repro.platforms.config import MemoryConfig
        from repro.platforms.variants import quick_config

        with checked() as session:
            sim = Simulator()
            platform = build_platform(
                sim, quick_config(memory=MemoryConfig(kind="lmi")))
            platform.run()
        checker = session.checkers[0]
        assert checker.sdram_logs
        log = checker.sdram_logs[0]
        assert log.refresh_expected
        assert session.finalize() == []
