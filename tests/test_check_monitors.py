"""Tests for the runtime invariant monitors (``repro.check``).

Two directions:

* *positive* — real platform runs under ``checked()`` report zero
  violations (the monitors do not false-positive on legal behaviour);
* *injected* — each monitor fires on a deliberately broken input, proving
  the rule is actually enforced rather than vacuously true.

Injection works on real simulator objects: timestamps are tampered after a
legal run, FIFO internals are driven past their public API, recorded
grant/accept histories are edited — whatever reaches the specific rule
without having to build a whole broken fabric.
"""

import pytest

from repro.check import (
    CheckSession,
    InvariantViolation,
    Violation,
    checked,
    format_report,
)
from repro.core import Simulator
from repro.core.fifo import Fifo
from repro.interconnect.types import Opcode, ResponseBeat, StbusType, Transaction
from repro.platforms import build_platform
from repro.platforms.variants import quick_config

from .helpers import make_registered_fabric


def run_checked(config, max_ps=None):
    with checked() as session:
        sim = Simulator()
        platform = build_platform(sim, config)
        platform.run(max_ps=max_ps)
    return sim, platform, session


def rules_of(violations):
    return {v.rule for v in violations}


# ---------------------------------------------------------------------------
# positive: real runs are clean
# ---------------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("protocol", ["stbus", "ahb", "axi"])
    def test_quick_config_zero_violations(self, protocol):
        sim, _platform, session = run_checked(quick_config(protocol=protocol))
        violations = session.finalize()
        assert violations == [], format_report(violations)
        assert sim._checks is session.checkers[0]

    def test_lmi_memory_zero_violations(self):
        from repro.platforms.config import MemoryConfig

        config = quick_config(memory=MemoryConfig(kind="lmi"))
        _sim, _platform, session = run_checked(config)
        violations = session.finalize()
        assert violations == [], format_report(violations)
        # The LMI run must actually have exercised the SDRAM auditor.
        checker = session.checkers[0]
        assert checker.sdram_logs and checker.sdram_logs[0].commands

    def test_checker_detached_outside_session(self):
        sim = Simulator()
        assert sim._checks is None

    def test_double_attach_rejected(self):
        session = CheckSession()
        sim = Simulator()
        session.attach(sim)
        with pytest.raises(RuntimeError):
            session.attach(sim)


# ---------------------------------------------------------------------------
# FIFO bounds (satellite: routed through the violation report type)
# ---------------------------------------------------------------------------
class TestFifoBounds:
    def test_overflow_reports_component_and_time(self, sim):
        fifo = Fifo(sim, capacity=1, name="central.lmi.req")
        fifo._store("a")
        with pytest.raises(InvariantViolation) as excinfo:
            fifo._store("b")
        violation = excinfo.value.violation
        assert violation.rule == "fifo.overflow"
        assert violation.component == "central.lmi.req"
        assert violation.time_ps == sim.now
        assert "capacity 1" in violation.message

    def test_underflow_reports_component(self, sim):
        fifo = Fifo(sim, capacity=2, name="bridge.resp")
        with pytest.raises(InvariantViolation) as excinfo:
            fifo._take()
        assert excinfo.value.violation.rule == "fifo.underflow"
        assert excinfo.value.violation.component == "bridge.resp"

    def test_violation_recorded_in_active_session(self):
        session = CheckSession()
        sim = Simulator()
        session.attach(sim)
        fifo = Fifo(sim, capacity=1, name="f")
        fifo._store(1)
        with pytest.raises(InvariantViolation):
            fifo._store(2)
        assert rules_of(session.violations) == {"fifo.overflow"}

    def test_finalize_flags_over_capacity_state(self):
        session = CheckSession()
        sim = Simulator()
        session.attach(sim)
        fifo = Fifo(sim, capacity=2, name="f")
        # Bypass even _store: corrupt the deque directly, as a buggy model
        # holding a reference to the internals would.
        fifo._items.extend([1, 2, 3])
        assert "fifo.bounds" in rules_of(session.finalize())


# ---------------------------------------------------------------------------
# beat ordering (live note_beat checks)
# ---------------------------------------------------------------------------
class TestBeatOrdering:
    def _fabric_and_txn(self, opcode=Opcode.READ, beats=4):
        session = CheckSession()
        sim = Simulator()
        session.attach(sim)
        config = quick_config(protocol="axi")
        platform = build_platform(sim, config)
        fabric = platform.fabrics["central"]
        txn = Transaction(initiator="ip0", opcode=opcode, address=0,
                          beats=beats, beat_bytes=4)
        txn.bind(sim)
        return session, fabric, txn

    def test_out_of_order_data_beat_flagged(self):
        session, fabric, txn = self._fabric_and_txn()
        fabric.deliver_beat(ResponseBeat(txn, 1, is_last=False))
        assert any(v.rule == "axi.id_order" and "out of order" in v.message
                   for v in session.violations)

    @pytest.mark.parametrize("name, rule", sorted({
        "stbus_t1": "stbus.packet_order", "stbus_t2": "stbus.packet_order",
        "stbus_t3": "stbus.packet_order", "stbus-xbar": "stbus.packet_order",
        "ahb": "ahb.data_order", "axi": "axi.id_order",
        "wishbone": "wishbone.ack_order", "apb": "apb.access_order",
        "axi4lite": "axi4lite.channel_order",
        "avalon": "avalon.readdata_order", "tilelink": "tilelink.d_order",
    }.items()))
    def test_every_fabric_flags_under_its_spec_rule(self, name, rule):
        session = CheckSession()
        sim = Simulator()
        session.attach(sim)
        fabric = make_registered_fabric(sim, name)
        txn = Transaction(initiator="ip0", opcode=Opcode.READ, address=0,
                          beats=4, beat_bytes=4)
        txn.bind(sim)
        fabric.deliver_beat(ResponseBeat(txn, 1, is_last=False))
        assert [v.rule for v in session.violations] == [rule]

    def test_in_order_beats_clean(self):
        session, fabric, txn = self._fabric_and_txn(beats=2)
        fabric.deliver_beat(ResponseBeat(txn, 0, is_last=False))
        fabric.deliver_beat(ResponseBeat(txn, 1, is_last=True))
        assert session.violations == []

    def test_beat_after_completion_flagged(self):
        session, fabric, txn = self._fabric_and_txn(beats=2)
        fabric.deliver_beat(ResponseBeat(txn, 0, is_last=False))
        fabric.deliver_beat(ResponseBeat(txn, 1, is_last=True))
        fabric.deliver_beat(ResponseBeat(txn, 1, is_last=True))
        assert any("after the transaction completed" in v.message
                   for v in session.violations)

    def test_write_ack_on_read_flagged(self):
        session, fabric, txn = self._fabric_and_txn(opcode=Opcode.READ)
        fabric.deliver_beat(ResponseBeat(txn, -1, is_last=True))
        assert any("write acknowledgement" in v.message
                   for v in session.violations)

    def test_data_beat_on_write_flagged(self):
        session, fabric, txn = self._fabric_and_txn(opcode=Opcode.WRITE)
        fabric.deliver_beat(ResponseBeat(txn, 0, is_last=False))
        assert any("data beat" in v.message for v in session.violations)

    def test_wrong_is_last_flagged(self):
        session, fabric, txn = self._fabric_and_txn(beats=4)
        fabric.deliver_beat(ResponseBeat(txn, 0, is_last=True))
        assert any("is_last" in v.message for v in session.violations)


# ---------------------------------------------------------------------------
# post-run protocol passes, via history/timestamp tampering on real runs
# ---------------------------------------------------------------------------
class TestProtocolPasses:
    def test_source_order_violation(self):
        sim, platform, session = run_checked(quick_config())
        checker = session.checkers[0]
        port, grants = next((p, g) for p, g in checker._port_grants.items()
                            if len(g) >= 2)
        grants[0], grants[1] = grants[1], grants[0]
        assert any(v.rule.endswith(".source_order")
                   for v in checker.finalize())

    def test_split_pairing_lost_request(self):
        sim, platform, session = run_checked(quick_config(protocol="stbus"))
        checker = session.checkers[0]
        fabric = next(f for f in checker.fabrics
                      if f.protocol == "stbus" and checker._accepts.get(f))
        checker._accepts[fabric].pop()  # a granted request never accepted
        assert "stbus.split_pairing" in rules_of(checker.finalize())

    def test_crossbar_split_pairing_lost_request(self):
        config = quick_config(protocol="stbus", central_crossbar=True)
        sim, platform, session = run_checked(config)
        assert session.finalize() == []
        checker = session.checkers[0]
        crossbar = platform.fabrics["central"]
        assert crossbar.protocol == "stbus-xbar"
        # Every request channel of the crossbar reports its acceptances...
        assert len(checker._accepts[crossbar]) \
            == sum(t.accepted.value for t in crossbar.targets)
        # ...so a request lost between grant and target is caught.
        checker._accepts[crossbar].pop()
        assert "stbus.split_pairing" in rules_of(checker.finalize())

    def test_crossbar_t1_hold_is_per_request_channel(self):
        from repro.interconnect.types import StbusType

        config = quick_config(central_crossbar=True,
                              central_stbus_type=StbusType.T1)
        sim, platform, session = run_checked(config)
        # Type 1 channels to different targets legally overlap.
        assert session.finalize() == []
        checker = session.checkers[0]
        crossbar = platform.fabrics["central"]
        target = max(crossbar.targets, key=lambda t: t.accepted.value)
        first, second = [txn for _port, txn in checker._grants[crossbar]
                         if crossbar.try_route(txn.address) is target][:2]
        first.t_done = second.t_granted + 1
        found = checker.finalize(expect_drained=False)
        assert "stbus.t1_hold" in rules_of(found)

    def test_split_pairing_reorder(self):
        sim, platform, session = run_checked(quick_config(protocol="stbus"))
        checker = session.checkers[0]
        fabric = next(f for f in checker.fabrics
                      if len(checker._accepts.get(f, [])) >= 2)
        accepts = checker._accepts[fabric]
        accepts[0], accepts[1] = accepts[1], accepts[0]
        assert "stbus.split_pairing" in rules_of(checker.finalize())

    def test_stbus_t1_hold_violation(self):
        from repro.interconnect.types import StbusType

        config = quick_config(central_stbus_type=StbusType.T1)
        sim, platform, session = run_checked(config)
        assert session.finalize() == []  # T1 runs are legally serial
        checker = session.checkers[0]
        fabric = next(f for f in checker.fabrics if not f.spec.split
                      and len(checker._grants.get(f, [])) >= 2)
        # Pretend the first granted transaction completed *after* the
        # second was granted — an overlap a Type 1 node must never allow.
        first = checker._grants[fabric][0][1]
        second = checker._grants[fabric][1][1]
        first.t_done = second.t_granted + 1
        found = checker.finalize(expect_drained=False)
        assert "stbus.t1_hold" in rules_of(found)

    def test_stbus_posted_write_late_completion(self):
        config = quick_config(protocol="stbus")
        sim, platform, session = run_checked(config)
        checker = session.checkers[0]
        txn = next(t for f in checker.fabrics
                   for t in checker._accepts.get(f, [])
                   if t.is_write and t.meta.get("needs_ack") is False)
        txn.t_done = txn.t_accepted + 100
        assert "stbus.posted_write" in rules_of(
            checker.finalize(expect_drained=False))

    def test_ahb_serialization_violation(self):
        sim, platform, session = run_checked(quick_config(protocol="ahb"))
        checker = session.checkers[0]
        fabric = next(f for f in checker.fabrics if f.protocol == "ahb"
                      and len(checker._grants.get(f, [])) >= 2)
        first = checker._grants[fabric][0][1]
        second = checker._grants[fabric][1][1]
        first.t_done = second.t_granted + 1
        assert "ahb.serialization" in rules_of(
            checker.finalize(expect_drained=False))

    def test_ahb_nonposted_write_violation(self):
        sim, platform, session = run_checked(quick_config(protocol="ahb"))
        checker = session.checkers[0]
        txn = next(t for f in checker.fabrics
                   for t in checker._accepts.get(f, []) if t.is_write)
        txn.meta["needs_ack"] = False  # claim the write was posted
        assert "ahb.nonposted" in rules_of(
            checker.finalize(expect_drained=False))

    def test_axi_read_without_data(self):
        sim, platform, session = run_checked(quick_config(protocol="axi"))
        checker = session.checkers[0]
        txn = next(t for f in checker.fabrics if f.protocol == "axi"
                   for t in checker._accepts.get(f, []) if t.is_read)
        txn.t_first_data = None
        assert "axi.handshake" in rules_of(
            checker.finalize(expect_drained=False))

    def test_axi_early_write_completion(self):
        sim, platform, session = run_checked(quick_config(protocol="axi"))
        checker = session.checkers[0]
        txn = next(t for f in checker.fabrics if f.protocol == "axi"
                   for t in checker._accepts.get(f, []) if t.is_write)
        txn.t_done = txn.t_accepted  # B response cannot be instantaneous
        assert "axi.handshake" in rules_of(
            checker.finalize(expect_drained=False))

    def test_lifecycle_incomplete_on_drained_run(self):
        sim, platform, session = run_checked(quick_config())
        checker = session.checkers[0]
        txn = next(iter(checker._issued.values()))[0]
        txn.t_done = None
        assert "lifecycle.incomplete" in rules_of(checker.finalize())

    def test_lifecycle_order_violation(self):
        sim, platform, session = run_checked(quick_config())
        checker = session.checkers[0]
        txn = next(iter(checker._issued.values()))[0]
        txn.t_granted = txn.t_issued - 5
        assert "lifecycle.order" in rules_of(
            checker.finalize(expect_drained=False))


# ---------------------------------------------------------------------------
# the one spec-derived pass: every rule fires, under its catalogued id,
# for every platform protocol (docs/CORRECTNESS.md, "Spec-derived rules")
# ---------------------------------------------------------------------------
def _stbus(hold, unacknowledged):
    return ("stbus.split_pairing", hold, "stbus.nonposted", unacknowledged)


def _generic(name, split, posts):
    return (f"{name}.pairing", None if split else f"{name}.serialization",
            f"{name}.nonposted",
            f"{name}.posted_write" if posts else f"{name}.nonposted")


#: case -> (quick_config overrides, rule ids expected on the central
#: fabric: pairing, hold (``None``: a split spec, overlap is legal),
#: acknowledged write, unacknowledged write).  Written out rather than
#: derived from the checker's tables: this is the referee.
SPEC_RULES = {
    "stbus": ({"protocol": "stbus"}, _stbus(None, "stbus.posted_write")),
    "stbus-xbar": ({"central_crossbar": True},
                   _stbus(None, "stbus.posted_write")),
    "stbus-t1": ({"central_stbus_type": StbusType.T1},
                 _stbus("stbus.t1_hold", "stbus.nonposted")),
    "ahb": ({"protocol": "ahb"},
            ("ahb.pipelining", "ahb.serialization",
             "ahb.nonposted", "ahb.nonposted")),
    "axi": ({"protocol": "axi"},
            ("axi.handshake", None, "axi.handshake", "axi.handshake")),
    "wishbone": ({"protocol": "wishbone"}, _generic("wishbone", False, False)),
    "apb": ({"protocol": "apb"}, _generic("apb", False, False)),
    "axi4lite": ({"protocol": "axi4lite"}, _generic("axi4lite", True, False)),
    "avalon": ({"protocol": "avalon"}, _generic("avalon", True, True)),
    "tilelink": ({"protocol": "tilelink"}, _generic("tilelink", True, False)),
}

HOLD_RULE_SUFFIXES = (".serialization", ".t1_hold")


def _lose_acceptance(checker, fabric):
    checker._accepts[fabric].pop()  # granted, never accepted


def _overlap_grants(checker, fabric):
    # Two reads down one request channel whichever way the fabric slices
    # its channels (per target on a crossbar, per opcode on AXI).
    reads = [txn for _port, txn in checker._grants[fabric] if txn.is_read]
    target = fabric.try_route(reads[0].address)
    first, second = [txn for txn in reads
                     if fabric.try_route(txn.address) is target][:2]
    first.t_done = second.t_granted + 1


def _first_write(checker, fabric):
    return next(t for t in checker._accepts[fabric] if t.is_write)


def _acknowledged_write_done_at_acceptance(checker, fabric):
    txn = _first_write(checker, fabric)
    txn.meta["needs_ack"] = True
    txn.t_done = txn.t_accepted


def _unacknowledged_write_done_late(checker, fabric):
    # A spec that posts must complete this write at acceptance; a spec
    # that does not may not accept it at all.
    txn = _first_write(checker, fabric)
    txn.meta["needs_ack"] = False
    txn.t_done = txn.t_accepted + 100


INJECTIONS = (_lose_acceptance, _overlap_grants,
              _acknowledged_write_done_at_acceptance,
              _unacknowledged_write_done_late)


class TestSpecDerivedRules:
    def test_catalogue_spans_every_platform_protocol(self):
        from repro.interconnect.protocols import platform_protocols

        assert set(platform_protocols()) <= set(SPEC_RULES)

    @pytest.mark.parametrize("kind", range(len(INJECTIONS)),
                             ids=[f.__name__.strip("_") for f in INJECTIONS])
    @pytest.mark.parametrize("case", sorted(SPEC_RULES))
    def test_injected_violation_fires_catalogued_rule(self, case, kind):
        overrides, expected = SPEC_RULES[case]
        sim, platform, session = run_checked(quick_config(**overrides))
        assert session.finalize() == []
        checker = session.checkers[0]
        INJECTIONS[kind](checker, platform.fabrics["central"])
        found = rules_of(v for v in checker.finalize(expect_drained=kind == 0)
                         if v.component == platform.fabrics["central"].name)
        if expected[kind] is None:
            assert not [r for r in found if r.endswith(HOLD_RULE_SUFFIXES)]
        else:
            assert expected[kind] in found

    def test_type1_write_stripped_of_its_acknowledgement(self):
        """Type 1 posts nothing: the case no pass covered before the
        checker read ``posted_writes`` from the spec."""
        config = quick_config(central_stbus_type=StbusType.T1)
        sim, platform, session = run_checked(config)
        checker = session.checkers[0]
        _first_write(checker, platform.fabrics["central"]).meta.pop("needs_ack")
        assert "stbus.nonposted" in rules_of(
            checker.finalize(expect_drained=False))

    def test_fabric_without_a_registered_spec_is_skipped(self):
        sim, platform, session = run_checked(quick_config())
        checker = session.checkers[0]
        fabric = platform.fabrics["central"]
        checker._accepts[fabric].pop()
        del fabric.spec
        fabric.protocol = "homebrew"
        assert not [v for v in checker.finalize()
                    if v.component == fabric.name]


# ---------------------------------------------------------------------------
# bridge conservation
# ---------------------------------------------------------------------------
class TestBridgeConservation:
    def _checked_bridged_run(self):
        sim, platform, session = run_checked(
            quick_config(topology="distributed"))
        checker = session.checkers[0]
        bridge = next(b for b in checker.bridges
                      if checker._issued.get(b.init_port))
        return checker, bridge

    def test_real_bridges_conserve(self):
        checker, bridge = self._checked_bridged_run()
        assert checker.finalize() == []
        assert len(checker._issued[bridge.init_port]) == \
            bridge.forwarded.value

    def test_lost_transaction_flagged(self):
        checker, bridge = self._checked_bridged_run()
        bridge.forwarded.add()  # claims one more than was actually issued
        assert "bridge.conservation" in rules_of(checker.finalize())

    def test_duplicated_parent_flagged(self):
        checker, bridge = self._checked_bridged_run()
        children = checker._issued[bridge.init_port]
        duplicate = children[0].child(beats=children[0].beats,
                                      beat_bytes=children[0].beat_bytes)
        duplicate.meta["parent"] = children[0].meta["parent"]
        children.append(duplicate)
        bridge.forwarded.add()
        assert any(v.rule == "bridge.conservation"
                   and "twice" in v.message for v in checker.finalize())

    def test_orphan_child_flagged(self):
        checker, bridge = self._checked_bridged_run()
        child = checker._issued[bridge.init_port][0]
        child.meta.pop("parent")
        assert any(v.rule == "bridge.conservation"
                   and "no parent" in v.message
                   for v in checker.finalize(expect_drained=False))


# ---------------------------------------------------------------------------
# span tiling (satellite: promoted to a monitor over real runs)
# ---------------------------------------------------------------------------
class TestSpanTiling:
    def test_checked_session_installs_spans(self):
        with checked() as session:
            sim = Simulator()
        assert sim._spans is not None

    def test_tampered_timestamps_break_tiling(self):
        sim, platform, session = run_checked(quick_config())
        checker = session.checkers[0]
        txn = sim._spans.completed()[0]
        # Corrupt the lifecycle so no valid tiling of [t_created, t_done]
        # exists (build_spans absorbs merely-shifted interior stamps).
        txn.t_created = txn.t_done + 10
        assert "obs.span_tiling" in rules_of(
            checker.finalize(expect_drained=False))

    def test_direct_helper_reports_gap(self):
        from repro.obs.trace import Span, span_tiling_errors

        txn = Transaction(initiator="ip", opcode=Opcode.READ, address=0,
                          beats=1, beat_bytes=4)
        txn.t_created = 0
        txn.t_done = 100
        spans = [Span("arbitration", 0, 40), Span("response_transfer", 60, 40)]
        errors = span_tiling_errors(txn, spans)
        assert any("gap" in e for e in errors)

    def test_direct_helper_clean_tiling(self):
        from repro.obs.trace import Span, span_tiling_errors

        txn = Transaction(initiator="ip", opcode=Opcode.READ, address=0,
                          beats=1, beat_bytes=4)
        txn.t_created = 0
        txn.t_done = 100
        spans = [Span("arbitration", 0, 40), Span("response_transfer", 40, 60)]
        assert span_tiling_errors(txn, spans) == []


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------
class TestReport:
    def test_format_report_summarises_rules(self):
        violations = [
            Violation("a", 10, "fifo.overflow", "x"),
            Violation("b", 20, "fifo.overflow", "y"),
            Violation("c", 30, "sdram.t_ras", "z"),
        ]
        report = format_report(violations)
        assert "3 violation(s) across 2 rule(s)" in report
        assert "fifo.overflow" in report and "sdram.t_ras" in report

    def test_format_report_limit(self):
        violations = [Violation("a", i, "r", "m") for i in range(10)]
        assert "... 7 more" in format_report(violations, limit=3)

    def test_empty_report(self):
        assert format_report([]) == "no invariant violations"
