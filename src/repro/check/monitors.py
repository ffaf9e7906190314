"""Runtime protocol/timing invariant monitors.

One :class:`SimChecker` attaches to one :class:`~repro.core.kernel.Simulator`
(via ``sim._checks``, a ``None`` slot unless a ``repro.check.checked()``
session is active — the same select-once discipline as ``sim._spans``).
Model code feeds it through four cheap notification points, each guarded by
a single ``is not None`` check per transaction hop:

* ``note_issue``  — :meth:`InitiatorPort.issue` (per-source program order),
* ``note_grant``  — :meth:`Fabric.pop_granted` (the single grant point of
  every fabric: shared-bus STBus, crossbar, AHB, AXI, generic engine),
* ``note_accept`` — the channel engine's request body and AHB's serve
  path, right after ``mark_accepted`` (request/acceptance pairing),
* ``note_beat``   — :meth:`Fabric.deliver_beat` (live per-transaction beat
  ordering; this is where AXI ID ordering is enforced, since every
  :class:`Transaction` carries a unique id).

Everything else runs in :meth:`SimChecker.finalize`, *after* the
simulation, over the recorded grant/accept histories — the checks never
schedule events or perturb arbitration, so a checked run is bit-identical
to an unchecked one (the differential harness asserts exactly that).

The protocol rules are not written per protocol: one pass
(:meth:`SimChecker._check_fabric`) reads each fabric's
:class:`~repro.interconnect.protocols.ProtocolSpec`, as the channel
engine does, and derives what must hold — pairing on every request
channel, the end-to-end hold when ``split`` is off, write completion
from ``posted_writes`` — so a registry row is all the coverage a new
protocol needs.

Rule catalogue (see ``docs/CORRECTNESS.md``): ``lifecycle.*``,
``<protocol>.source_order``; the spec-derived ``<spec>.pairing`` /
``<spec>.serialization`` / ``<spec>.posted_write`` / ``<spec>.nonposted``,
which the historical engines spell ``stbus.split_pairing`` /
``stbus.t1_hold`` / ``stbus.posted_write`` / ``stbus.nonposted``,
``ahb.pipelining`` / ``ahb.serialization`` / ``ahb.nonposted`` and
``axi.handshake`` (``_ENGINE_RULES``); the live beat-ordering rule of
each protocol (``ProtocolSpec.beat_rule``: ``stbus.packet_order``,
``ahb.data_order``, ``axi.id_order``, ...); ``bridge.conservation``,
``fifo.*``, ``obs.span_tiling``, ``sdram.*``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..interconnect.protocols import spec_for_fabric
from ..interconnect.types import Opcode
from .sdram_audit import SdramCommandLog, audit_sdram
from .violations import Violation

#: Canonical lifecycle stamp order; every non-``None`` pair must be
#: non-decreasing (posted writes legally have ``t_done == t_accepted``).
_STAMP_ORDER = ("t_created", "t_issued", "t_granted", "t_accepted",
                "t_first_data", "t_done")

#: What :meth:`SimChecker._check_fabric` derives from a spec, in order:
#: grant/accept pairing per request channel, the end-to-end hold of a
#: channel without ``split``, posted and acknowledged write completion.
_RULE_KINDS = ("pairing", "serialization", "posted_write", "nonposted")

#: The historical engines keep the rule ids they shipped with (one per
#: ``_RULE_KINDS`` entry); every other engine gets ``<spec.name>.<kind>``.
_ENGINE_RULES: Dict[str, Tuple[str, ...]] = {
    "stbus": ("stbus.split_pairing", "stbus.t1_hold",
              "stbus.posted_write", "stbus.nonposted"),
    "ahb": ("ahb.pipelining", "ahb.serialization",
            "ahb.nonposted", "ahb.nonposted"),
    "axi": ("axi.handshake",) * 4,
}


def _request_channels(fabric) -> List[Tuple[str, Optional[Callable]]]:
    """``(tag, travels)`` per request channel of ``fabric``.

    Pairing and the non-split hold apply to each channel, not across
    them: a crossbar runs one channel per target, AXI one per opcode (AR
    and AW are independent), everything else a single one (``travels``
    ``None``: every transaction).
    """
    if fabric.protocol == "stbus-xbar":
        return [(f" to {target.name}",
                 lambda txn, target=target:
                 fabric.try_route(txn.address) is target)
                for target in fabric.targets]
    if fabric.protocol == "axi":
        return [(f" {opcode.value}",
                 lambda txn, opcode=opcode: txn.opcode is opcode)
                for opcode in Opcode]
    return [("", None)]


class SimChecker:
    """All invariant monitors of one simulator, plus their violations."""

    def __init__(self, sim) -> None:
        self.sim = sim
        #: Violations detected *live* (beat ordering, FIFO bounds).
        self.violations: List[Violation] = []
        self.fabrics: List[Any] = []
        self.bridges: List[Any] = []
        self.fifos: List[Any] = []
        self.sdram_logs: List[SdramCommandLog] = []
        #: port -> transactions in issue-call order.
        self._issued: Dict[Any, List[Any]] = {}
        #: fabric -> [(port, txn)] in grant order.
        self._grants: Dict[Any, List[Any]] = {}
        #: port -> transactions in grant order.
        self._port_grants: Dict[Any, List[Any]] = {}
        #: fabric -> transactions in acceptance order.
        self._accepts: Dict[Any, List[Any]] = {}

    # ------------------------------------------------------------------
    # registration (construction time)
    # ------------------------------------------------------------------
    def register_fabric(self, fabric) -> None:
        self.fabrics.append(fabric)

    def register_bridge(self, bridge) -> None:
        self.bridges.append(bridge)

    def register_fifo(self, fifo) -> None:
        self.fifos.append(fifo)

    def sdram_log(self, device) -> SdramCommandLog:
        """Create (and adopt) the command log of one SDRAM device."""
        log = SdramCommandLog(name=device.name, timing=device.timing,
                              period_ps=device.clock.period_ps)
        self.sdram_logs.append(log)
        return log

    # ------------------------------------------------------------------
    # live notification points (model code, guarded by `is not None`)
    # ------------------------------------------------------------------
    def note_issue(self, port, txn) -> None:
        self._issued.setdefault(port, []).append(txn)

    def note_grant(self, fabric, port, txn) -> None:
        self._grants.setdefault(fabric, []).append((port, txn))
        self._port_grants.setdefault(port, []).append(txn)

    def note_accept(self, fabric, txn) -> None:
        self._accepts.setdefault(fabric, []).append(txn)

    def note_beat(self, fabric, beat) -> None:
        """Live beat legality: direction, per-transaction order, last flag.

        Violations carry the fabric spec's ``beat_rule``.  A unique
        transaction id is a unique AXI ID / STBus packet, so in-order
        beats per transaction *is* the per-ID ordering rule.
        """
        txn = beat.txn
        spec = getattr(fabric, "spec", None)
        rule = "fabric.beat_order" if spec is None else spec.beat_rule
        component = f"{fabric.name}.{txn.initiator}"
        now = self.sim.now
        if txn.t_done is not None:
            self._flag(component, now, rule,
                       f"beat index {beat.index} delivered after the "
                       f"transaction completed at {txn.t_done}ps", txn)
        if beat.is_write_ack:
            if txn.is_read:
                self._flag(component, now, rule,
                           "write acknowledgement delivered to a read", txn)
            return
        if txn.is_write:
            self._flag(component, now, rule,
                       f"data beat {beat.index} delivered to a write "
                       "(writes carry data on the request path)", txn)
            return
        expected = txn.meta.get("_chk_beat", 0)
        if beat.index != expected:
            self._flag(component, now, rule,
                       f"data beat {beat.index} arrived out of order "
                       f"(expected beat {expected})", txn)
        txn.meta["_chk_beat"] = beat.index + 1
        should_be_last = beat.index == txn.beats - 1
        if beat.is_last != should_be_last:
            self._flag(component, now, rule,
                       f"is_last={beat.is_last} on beat {beat.index} of a "
                       f"{txn.beats}-beat burst", txn)

    def _flag(self, component: str, time_ps: int, rule: str, message: str,
              txn=None) -> None:
        self.violations.append(Violation(component=component, time_ps=time_ps,
                                         rule=rule, message=message, txn=txn))

    # ------------------------------------------------------------------
    # post-run passes
    # ------------------------------------------------------------------
    def finalize(self, expect_drained: bool = True) -> List[Violation]:
        """Run every post-run pass; return live + computed violations.

        ``expect_drained`` asserts quiescence on top of ordering: every
        issued transaction completed, bridge counters balance, bridge
        request FIFOs are empty.  Pass ``False`` for runs truncated by a
        time bound.
        """
        found = list(self.violations)
        for port, txns in self._issued.items():
            self._check_lifecycle(port, txns, expect_drained, found)
            self._check_source_order(port, txns, found)
        for fabric in self.fabrics:
            try:
                spec = spec_for_fabric(fabric)
            except ValueError:
                continue  # no registered spec, no rules to derive
            self._check_fabric(fabric, spec, expect_drained, found)
        for bridge in self.bridges:
            self._check_bridge(bridge, expect_drained, found)
        for fifo in self.fifos:
            self._check_fifo_bounds(fifo, found)
        self._check_span_tiling(found)
        for log in self.sdram_logs:
            found.extend(audit_sdram(log))
        return found

    # -- lifecycle ------------------------------------------------------
    def _check_lifecycle(self, port, txns, expect_drained: bool,
                         found: List[Violation]) -> None:
        component = f"{port.fabric.name}.{port.name}"
        for txn in txns:
            prev_name: Optional[str] = None
            prev: Optional[int] = None
            for attr in _STAMP_ORDER:
                t = getattr(txn, attr)
                if t is None:
                    continue
                if prev is not None and t < prev:
                    found.append(Violation(
                        component=component, time_ps=t, rule="lifecycle.order",
                        message=f"{attr}={t}ps precedes {prev_name}="
                                f"{prev}ps", txn=txn))
                prev_name, prev = attr, t
            if expect_drained and txn.t_done is None:
                found.append(Violation(
                    component=component, time_ps=self.sim.now,
                    rule="lifecycle.incomplete",
                    message="transaction never completed (last stamp "
                            f"{prev_name}={prev}ps)", txn=txn))

    # -- per-source ordering -------------------------------------------
    def _check_source_order(self, port, txns, found: List[Violation]) -> None:
        grants = self._port_grants.get(port, [])
        issued_ids = [t.tid for t in txns]
        granted_ids = [t.tid for t in grants]
        if granted_ids != issued_ids[:len(granted_ids)]:
            found.append(Violation(
                component=f"{port.fabric.name}.{port.name}",
                time_ps=self.sim.now,
                rule=f"{port.fabric.protocol}.source_order",
                message=f"grant order {granted_ids[:8]}... is not the issue "
                        f"order {issued_ids[:8]}... (per-source ordering "
                        "broken)"))

    # -- request/acceptance pairing ------------------------------------
    def _routed_grants(self, fabric) -> List[Any]:
        """Granted transactions that decode to a real target (decode
        failures are answered by the default slave, never accepted)."""
        return [txn for _port, txn in self._grants.get(fabric, [])
                if fabric.try_route(txn.address) is not None]

    def _check_pairing(self, fabric, rule: str, expect_drained: bool,
                       found: List[Violation], tag: str = "",
                       travels=None) -> None:
        """Acceptance order pairs with grant order on one request channel
        (``travels`` selects the channel's transactions; ``None``: all)."""
        routed = self._routed_grants(fabric)
        accepts = self._accepts.get(fabric, [])
        if travels is not None:
            routed = [t for t in routed if travels(t)]
            accepts = [t for t in accepts if travels(t)]
        granted_ids = [t.tid for t in routed]
        accepted_ids = [t.tid for t in accepts]
        if accepted_ids != granted_ids[:len(accepted_ids)]:
            found.append(Violation(
                component=fabric.name, time_ps=self.sim.now, rule=rule,
                message=f"acceptance order{tag} {accepted_ids[:8]}... does "
                        f"not pair with grant order {granted_ids[:8]}..."))
        elif expect_drained and len(accepted_ids) != len(granted_ids):
            found.append(Violation(
                component=fabric.name, time_ps=self.sim.now, rule=rule,
                message=f"{len(granted_ids)} transactions{tag} granted but "
                        f"only {len(accepted_ids)} accepted (request lost "
                        "between grant and target)"))

    # -- spec-derived protocol rules --------------------------------------
    def _check_fabric(self, fabric, spec, expect_drained: bool,
                      found: List[Violation]) -> None:
        """Replay one fabric's grant/accept history against its spec.

        Every toggle is a :class:`ProtocolSpec` field, read the way the
        channel engine reads it to derive timing: acceptance pairs with
        grant on every request channel; without ``split`` a channel is
        held end to end; a write completes at acceptance exactly when it
        is posted, which ``posted_writes=False`` forbids.
        """
        rules = _ENGINE_RULES.get(spec.engine, tuple(
            f"{spec.name}.{kind}" for kind in _RULE_KINDS))
        pairing, hold, posted_write, nonposted = rules
        for tag, travels in _request_channels(fabric):
            self._check_pairing(fabric, pairing, expect_drained, found,
                                tag, travels)
            if spec.split:
                continue
            # The channel is held end to end: no grant may precede the
            # completion of the previous transaction on it.
            previous = None
            for _port, txn in self._grants.get(fabric, []):
                if travels is not None and not travels(txn):
                    continue
                if previous is not None and (
                        previous.t_done is None
                        or txn.t_granted < previous.t_done):
                    found.append(Violation(
                        component=fabric.name, time_ps=txn.t_granted,
                        rule=hold,
                        message=f"txn {txn.tid} granted at {txn.t_granted}ps "
                                f"while txn {previous.tid} (done="
                                f"{previous.t_done}) still held the request "
                                f"channel{tag}", txn=txn))
                previous = txn
        for txn in self._accepts.get(fabric, []):
            if txn.is_read:
                if spec.engine == "axi" and txn.t_done is not None and not (
                        txn.t_first_data is not None and
                        txn.t_accepted <= txn.t_first_data <= txn.t_done):
                    found.append(Violation(
                        component=fabric.name, time_ps=txn.t_done,
                        rule=pairing,
                        message=f"first R data beat ({txn.t_first_data}) not "
                                f"inside [AR accept {txn.t_accepted}ps, done "
                                f"{txn.t_done}ps]", txn=txn))
                continue
            needs_ack = txn.meta.get("needs_ack")
            if needs_ack:
                if txn.t_done is not None and txn.t_done <= txn.t_accepted:
                    found.append(Violation(
                        component=fabric.name, time_ps=txn.t_done,
                        rule=nonposted,
                        message=f"non-posted write completed at {txn.t_done}"
                                "ps without waiting for the acknowledgement "
                                f"(accepted {txn.t_accepted}ps)", txn=txn))
            elif not spec.posted_writes:
                found.append(Violation(
                    component=fabric.name, time_ps=txn.t_accepted or 0,
                    rule=nonposted,
                    message="write accepted without the acknowledgement "
                            f"{spec.title} requires of every write",
                    txn=txn))
            elif needs_ack is False and txn.t_done != txn.t_accepted:
                found.append(Violation(
                    component=fabric.name, time_ps=txn.t_accepted,
                    rule=posted_write,
                    message=f"posted write completed at {txn.t_done}ps, not "
                            f"at acceptance ({txn.t_accepted}ps)", txn=txn))

    # -- bridges ----------------------------------------------------------
    def _check_bridge(self, bridge, expect_drained: bool,
                      found: List[Violation]) -> None:
        """Store-and-forward conservation: nothing lost, nothing duplicated."""
        children = self._issued.get(bridge.init_port, [])
        forwarded = bridge.forwarded.value
        if len(children) != forwarded:
            found.append(Violation(
                component=bridge.name, time_ps=self.sim.now,
                rule="bridge.conservation",
                message=f"{forwarded} transactions forwarded but "
                        f"{len(children)} children issued on "
                        f"{bridge.dest.name}"))
        if expect_drained:
            accepted = bridge.target_port.accepted.value
            if accepted != forwarded:
                found.append(Violation(
                    component=bridge.name, time_ps=self.sim.now,
                    rule="bridge.conservation",
                    message=f"{accepted} transactions accepted on "
                            f"{bridge.source.name} but {forwarded} forwarded "
                            "(lost inside the bridge)"))
            queued = bridge.target_port.request_fifo.level
            if queued:
                found.append(Violation(
                    component=bridge.name, time_ps=self.sim.now,
                    rule="bridge.conservation",
                    message=f"{queued} request(s) still queued in the "
                            "bridge at drain"))
        parents_seen = set()
        for child in children:
            parent = child.meta.get("parent")
            if parent is None:
                found.append(Violation(
                    component=bridge.name, time_ps=self.sim.now,
                    rule="bridge.conservation",
                    message=f"child txn {child.tid} has no parent",
                    txn=child))
                continue
            if parent.tid in parents_seen:
                found.append(Violation(
                    component=bridge.name, time_ps=self.sim.now,
                    rule="bridge.conservation",
                    message=f"parent txn {parent.tid} forwarded twice "
                            "(duplicated across the bridge)", txn=child))
            parents_seen.add(parent.tid)
            if (parent.is_read and parent.t_done is not None
                    and child.t_done is not None
                    and child.t_done > parent.t_done):
                found.append(Violation(
                    component=bridge.name, time_ps=parent.t_done,
                    rule="bridge.conservation",
                    message=f"read parent {parent.tid} completed at "
                            f"{parent.t_done}ps before its child finished "
                            f"({child.t_done}ps)", txn=parent))

    # -- FIFO bounds -------------------------------------------------------
    def _check_fifo_bounds(self, fifo, found: List[Violation]) -> None:
        if fifo.high_water > fifo.capacity:
            found.append(Violation(
                component=fifo.name, time_ps=self.sim.now, rule="fifo.bounds",
                message=f"high-water mark {fifo.high_water} exceeds "
                        f"capacity {fifo.capacity}"))
        if len(fifo._items) > fifo.capacity:
            found.append(Violation(
                component=fifo.name, time_ps=self.sim.now, rule="fifo.bounds",
                message=f"level {len(fifo._items)} exceeds capacity "
                        f"{fifo.capacity}"))

    # -- span tiling -------------------------------------------------------
    def _check_span_tiling(self, found: List[Violation]) -> None:
        recorder = self.sim._spans
        if recorder is None:
            return
        from ..obs.trace import build_spans, span_tiling_errors

        for txn in recorder.completed():
            spans, _instants = build_spans(txn, recorder.marks(txn))
            for defect in span_tiling_errors(txn, spans):
                found.append(Violation(
                    component=txn.initiator, time_ps=txn.t_done,
                    rule="obs.span_tiling", message=defect, txn=txn))


__all__ = ["SimChecker"]
