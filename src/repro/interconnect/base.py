"""Common machinery for interconnect fabric models.

A *fabric* (an STBus node, an AHB layer, an AXI interconnect) connects
initiator ports to target ports:

* :class:`InitiatorPort` — where IPTGs, CPUs and bridge initiator sides
  inject :class:`~repro.interconnect.types.Transaction` objects.  It enforces
  the *maximum outstanding transactions* of the bus interface with a credit
  semaphore — the paper's guideline 3(i) hinges on this parameter.
* :class:`TargetPort` — where memories and bridge target sides attach.  It
  owns the request FIFO (the "buffering implemented at its bus interface",
  guideline 2) and the response/prefetch FIFO whose depth lets STBus mask
  target wait states (Section 3.1).

The base class provides address decoding, work-notification plumbing (so
fabric processes sleep when idle instead of polling), channel-occupancy
bookkeeping and width conversion helpers.  Timing behaviour lives entirely in
the protocol subclasses.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core.clock import Clock
from ..core.component import Component
from ..core.events import Event, completed_event
from ..core.fifo import Fifo
from ..core.kernel import Simulator
from ..core.statistics import ChannelUtilization
from ..core.sync import Semaphore, WorkSignal
from .arbiter import Arbiter, RoundRobin
from .types import AddressRange, ResponseBeat, Transaction

if TYPE_CHECKING:
    from ..obs.registry import InterfaceProbe


class FabricError(RuntimeError):
    """Raised on wiring/routing mistakes (overlapping ranges, no route...)."""


class InitiatorPort:
    """An initiator's attachment point to a fabric."""

    def __init__(self, fabric: "Fabric", name: str,
                 max_outstanding: int = 1) -> None:
        if max_outstanding < 1:
            raise ValueError(f"max_outstanding must be >= 1, got {max_outstanding}")
        self.fabric = fabric
        self.sim = fabric.sim
        self.name = name
        self.max_outstanding = max_outstanding
        #: Transactions granted a credit, waiting for the request channel.
        self.pending: Fifo[Transaction] = Fifo(self.sim, max_outstanding,
                                               name=f"{name}.pending")
        self.credits = Semaphore(self.sim, max_outstanding, name=f"{name}.credits")
        # Precomputed event label: issue() runs once per transaction.
        self._issue_name = name + ".issue"
        # Port statistics live in the simulator-wide metric registry under
        # "<fabric>.<port>.*" so a whole run's numbers are path-addressable;
        # the objects themselves are the same plain counters as before.
        metrics = self.sim.metrics
        prefix = f"{fabric.name}.{name}"
        self.issued = metrics.counter(f"{prefix}.issued")
        self.completed = metrics.counter(f"{prefix}.completed")
        self.latency = metrics.histogram(f"{prefix}.latency")
        #: Invariant checker, captured once (select-once discipline).
        self._checks = fabric._checks
        #: Loosely-timed flag, captured once (same discipline).
        self._lt = fabric._lt
        #: The last queue head the fabric's request scan decoded, and its
        #: target: a head waiting through many scans is decoded once.
        self._decoded: Optional[Transaction] = None
        self._decoded_target: Optional["TargetPort"] = None

    # ------------------------------------------------------------------
    def issue(self, txn: Transaction) -> Event:
        """Inject ``txn``; the returned event completes once the transaction
        is queued for arbitration (i.e. the interface accepted it).

        ``txn.ev_done`` completes when the whole transaction does.  Posted
        writes complete at target acceptance, so a posted-write-heavy
        initiator recycles credits quickly — exactly the behaviour that lets
        multiple-outstanding interfaces "keep pushing transactions into the
        bus" (Section 4.2).
        """
        sim = self.sim
        txn.bind(sim)
        txn.t_issued = sim._now
        if self._checks is not None:
            self._checks.note_issue(self, txn)
        if self._lt and not self.pending._put_waiters \
                and len(self.pending._items) < self.pending.capacity \
                and self.credits.try_acquire():
            # LT fast path: credit and queue slot are both free *right
            # now*, so acceptance is immediate — same state transitions as
            # _issue_flow, collapsed into zero scheduled events.  The
            # acceptance instant is identical to CA; only the intra-
            # timestamp interleaving differs (see docs/FAST_SIM.md).
            txn.ev_done.add_callback(self._on_done)
            self.pending.try_put(txn)
            self.issued.value += 1
            self.fabric._request_work.notify()
            return completed_event(sim, txn, name=self._issue_name)
        accepted = Event(sim, name=self._issue_name)
        sim.process(self._issue_flow(txn, accepted),
                    name=f"{self._issue_name}{txn.tid}", immediate=True)
        return accepted

    def _issue_flow(self, txn: Transaction, accepted: Event):
        yield self.credits.acquire()
        txn.ev_done.add_callback(self._on_done)
        yield self.pending.put(txn)
        self.issued.value += 1
        self.fabric._request_work.notify()
        if self._lt:
            accepted.succeed_inline(txn)
        else:
            accepted.succeed(txn)

    def _on_done(self, event: Event) -> None:
        # ``complete()`` stamps ``t_done`` before it fires the event and
        # ``issue()`` bound ``t_created``: the latency is one subtraction.
        txn: Transaction = event._value
        self.completed.value += 1
        self.latency.add(txn.t_done - txn.t_created)
        self.credits.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<InitiatorPort {self.name} on {self.fabric.name}>"


class TargetPort:
    """A target's attachment point to a fabric.

    The attached device (memory model, memory controller, bridge target
    side) *pulls* transactions from :attr:`request_fifo` at its own pace and
    *pushes* :class:`ResponseBeat` items into :attr:`response_fifo` as data
    becomes available.  FIFO depths are the tunable buffering parameters the
    paper sweeps.
    """

    def __init__(self, fabric: "Fabric", name: str, address_range: AddressRange,
                 request_depth: int = 1, response_depth: int = 2) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.name = name
        self.address_range = address_range
        self.request_fifo: Fifo[Transaction] = Fifo(
            self.sim, request_depth, name=f"{name}.req")
        self.response_fifo: Fifo[ResponseBeat] = Fifo(
            self.sim, response_depth, name=f"{name}.resp")
        metrics = self.sim.metrics
        prefix = f"{fabric.name}.{name}"
        self.accepted = metrics.counter(f"{prefix}.accepted")
        #: Response-producing transactions (reads, non-posted writes)
        #: handed to this target whose last response beat the fabric has
        #: not delivered yet: the LT run rule's "no other producer" proof
        #: (:meth:`Fabric._take_run`).  Kept out of ``snapshot_state``:
        #: only LT reads it.
        self.open_responses = 0
        if self.sim._spans is not None:
            # FIFO probes register FIFO listeners and integrate occupancy,
            # so only under an active observability capture (they are the
            # Fig. 6 occupancy/waiting instruments, not always-on
            # bookkeeping).  Registered first: they see every change
            # before a wake-up below can re-enter the FIFO.
            metrics.fifo(f"{prefix}.req_fifo", self.request_fifo)
            metrics.fifo(f"{prefix}.resp_fifo", self.response_fifo)
        #: The Fig. 6 :class:`~repro.obs.registry.InterfaceProbe` (``None``
        #: unless a capture probed this port): the request channel reports
        #: its hand-overs to it, a single attribute test when unprobed.
        self.interface_probe: Optional["InterfaceProbe"] = None
        # The fabric's wake-ups, as FIFO listeners: a stored beat wakes
        # the response side, a drained request slot the request side.
        self.response_fifo.store_listeners.append(
            fabric._response_hook(self.response_fifo))
        self.request_fifo.take_listeners.append(fabric._request_take_hook)

    # -- device-side API -------------------------------------------------
    def get_request(self) -> Event:
        """Device side: event completing with the next transaction."""
        return self.request_fifo.get()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<TargetPort {self.name} {self.address_range}>"


class ClaimedRun(list):
    """A response run that claimed scheduled beats
    (:meth:`Fabric._claim_schedule`): it crosses the channel in ``edges``
    bus cycles, the stalls before late beats included, and its head beat
    ends its crossing at ``first_ps``."""

    __slots__ = ("edges", "first_ps")


class Fabric(Component):
    """Shared base of every fabric model.

    Parameters
    ----------
    data_width_bytes:
        Width of the fabric data path; beats wider than this cost multiple
        bus cycles (the GenConv bridges exist exactly to convert widths).
    arbiter:
        Request-channel arbitration policy (default: round robin).
    """

    #: Protocol label, overridden by subclasses ("stbus", "ahb", "axi").
    protocol = "fabric"

    #: LT realignment rule of this fabric's stall sites: a wake-up landing
    #: exactly on a bus edge re-enters arbitration on that edge (True) or
    #: on the next (False).  CA does either, by intra-timestamp order; each
    #: fabric takes the rule its accuracy gate measured (docs/FAST_SIM.md).
    lt_stall_same_edge = True

    #: A started response packet keeps the response channel until its last
    #: beat, whatever else is buffered (AHB: the layer is held by its
    #: transaction; the channel engine: ``not spec.response_interleave``).
    _packet_atomic = True

    #: The response body crosses a :class:`ClaimedRun` in its ``edges``:
    #: the channel engine's does, AHB's data phase does not (no platform
    #: puts a scheduling producer behind it).
    _claims_schedules = False

    def __init__(self, sim: Simulator, name: str, clock: Clock,
                 data_width_bytes: int = 4,
                 arbiter: Optional[Arbiter] = None,
                 parent: Optional[Component] = None) -> None:
        super().__init__(sim, name, clock=clock, parent=parent)
        if data_width_bytes not in (1, 2, 4, 8, 16):
            raise ValueError(f"unsupported data width {data_width_bytes} bytes")
        self.data_width_bytes = data_width_bytes
        self.arbiter = arbiter if arbiter is not None else RoundRobin()
        self.initiators: List[InitiatorPort] = []
        self.targets: List[TargetPort] = []
        #: Work notification (channel processes sleep while idle); the
        #: producers notify the signals directly.  Each generation doubles
        #: as the "a scan input changed" count that stalled cycle-accurate
        #: channel processes watch (``_stall``): request side = a port
        #: queue gained an item (``InitiatorPort``) or surfaced a new head
        #: (``pop_granted``), or a target request FIFO drained
        #: (:attr:`_request_take_hook`); response side = a target
        #: response FIFO gained a beat (:meth:`_response_hook`).
        self._request_work = WorkSignal(sim, name=f"{name}.req_work")
        self._response_work = WorkSignal(sim, name=f"{name}.resp_work")
        #: Loosely-timed mode, captured once at construction (select-once
        #: discipline).  When set, channel processes batch contention-free
        #: beat runs analytically (docs/FAST_SIM.md).
        self._lt = sim.lt_enabled
        #: A target request FIFO drained: grants may now be possible for
        #: initiators that were blocked on that target.  A request channel
        #: stalled on :attr:`_stall` watches the generation (CA,
        #: rescanning at its next edge) or sleeps on the signal (LT), so
        #: LT notifies — CA must not: the wake-up would be an event CA
        #: never scheduled.  Fills need no hook: they can only take grant
        #: candidates away.
        self._request_take_hook = (self._request_work.notify if self._lt
                                   else self._request_work.touch)
        #: The stall wait, chosen once: ``yield self._stall(signal)`` is
        #: what a channel process does when work is queued but blocked.
        #: CA rides one edge event per stalled cycle until the signal's
        #: generation moves; LT sleeps on the signal, scheduling nothing.
        if not self._lt:
            self._stall = clock.edge_until
        elif self.lt_stall_same_edge:
            self._stall = clock.edge_after
        else:
            self._stall = partial(clock.edge_after, same_edge=False)
        #: The response-run rule, chosen once like :attr:`_stall`: a
        #: response body offers it a picked beat that has a successor
        #: available (:meth:`_take_run`).  ``None`` in CA, where every
        #: beat is its own step.
        self._take_run_hook = self._take_run if self._lt else None
        #: Invariant checker (``None`` outside a checked session); captured
        #: once so the per-hop guards below stay a single attribute test.
        self._checks = sim._checks
        if self._checks is not None:
            self._checks.register_fabric(self)
        #: Energy accountant (``None`` unless energy accounting is on);
        #: same select-once discipline.  Coefficient resolution is lazy
        #: (the channel engine assigns ``spec`` after this constructor).
        self._energy = sim._energy
        #: Channel occupancy accounting, keyed by channel name.
        self.channels: Dict[str, ChannelUtilization] = {}
        self.decode_errors = sim.metrics.counter(f"{name}.decode_errors")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect_initiator(self, name: str,
                          max_outstanding: int = 1) -> InitiatorPort:
        port = InitiatorPort(self, name, max_outstanding=max_outstanding)
        self.initiators.append(port)
        return port

    def add_target(self, name: str, address_range: AddressRange,
                   request_depth: int = 1, response_depth: int = 2) -> TargetPort:
        for existing in self.targets:
            if existing.address_range.overlaps(address_range):
                raise FabricError(
                    f"{name} range {address_range} overlaps {existing.name} "
                    f"range {existing.address_range}")
        port = TargetPort(self, name, address_range,
                          request_depth=request_depth,
                          response_depth=response_depth)
        self.targets.append(port)
        return port

    def _response_hook(self, fifo: Fifo) -> Callable[[], None]:
        """What a target response FIFO calls once it stored a beat: wake
        the response side.  AXI overrides it to wake R or B by beat kind."""
        return self._response_work.notify

    #: What to do with an address no target decodes: "raise" is a wiring
    #: error (strict default); "respond" returns a bus error to the
    #: initiator, like a real interconnect's default-slave.
    decode_error_policy = "raise"

    def try_route(self, address: int) -> Optional[TargetPort]:
        """Decode ``address``; ``None`` when nothing claims it."""
        # base + size, not the ``end`` property: decode runs per request
        # *and* per eligibility scan, so a property frame per probe adds up.
        for target in self.targets:
            window = target.address_range
            if window.base <= address < window.base + window.size:
                return target
        return None

    def decode_failed(self, txn: Transaction) -> None:
        """Handle an unmapped address per :attr:`decode_error_policy`."""
        if self.decode_error_policy == "respond":
            self.decode_errors.add()
            txn.mark_accepted(self.sim.now)
            txn.complete_with_error(self.sim.now)
        else:
            raise FabricError(
                f"{self.name}: no target decodes {txn.address:#x} "
                f"({txn!r})")

    def channel(self, name: str) -> ChannelUtilization:
        """Lazily created busy-time monitor for a named channel."""
        if name not in self.channels:
            self.channels[name] = self.sim.metrics.channel(f"{self.name}.{name}")
        return self.channels[name]

    # ------------------------------------------------------------------
    # shared helpers for subclasses
    # ------------------------------------------------------------------
    def request_candidates(self) -> List[Tuple[InitiatorPort, Transaction]]:
        """Initiator ports with a transaction at the head of their queue."""
        # Head peeks bypass the Fifo property/method frames: these scans run
        # every arbitration round on every fabric.
        return [(port, port.pending._items[0])
                for port in self.initiators if port.pending._items]

    def bus_cycles_for_beat(self, beat_bytes: int) -> int:
        """Bus cycles one data beat occupies on this fabric's data path."""
        return max(1, -(-beat_bytes // self.data_width_bytes))

    def request_cycles(self, txn: Transaction) -> int:
        """Request-channel occupancy of a transaction.

        Reads send a single request cell (opcode + address); writes carry
        their data on the request path, one (width-adjusted) cell per beat.
        """
        if txn.is_read:
            return 1
        return txn.beats * self.bus_cycles_for_beat(txn.beat_bytes)

    def pop_granted(self, port: InitiatorPort, txn: Transaction) -> None:
        """Remove a granted transaction from its port queue and stamp it."""
        head = port.pending.try_get()
        if head is not txn:
            raise FabricError(
                f"{self.name}: arbitration raced ({head!r} vs {txn!r})")
        txn.t_granted = self.sim._now
        if self._checks is not None:
            self._checks.note_grant(self, port, txn)
        if self._energy is not None:
            # One charge per request-channel cell the transfer will occupy
            # (reads: one cell; writes: data travels on the request path).
            self._energy.bus_request(self, txn)
        if port.pending._items:
            # A new head surfaced; a channel process that went to sleep
            # because no head matched its direction must re-examine it
            # (e.g. AXI's AW engine when a write emerges behind reads).
            self._request_work.notify()

    def _take_run(self, target: TargetPort, beat: ResponseBeat,
                  cycles: int) -> Optional[List[ResponseBeat]]:
        """LT: take ``beat`` (the head of ``target``'s response FIFO, not
        its packet's last) with more of its packet, to cross the channel
        as one ``clk.edges(cycles * n)`` step; ``None`` (take nothing)
        unless streaming them beat by beat could not be told apart.
        Always: no GenConv bridge relays the intermediate beats (no
        ``beat_sink``), and no other packet can take the channel before
        the step ends (a packet-atomic channel, or a single target port).
        Then one of two steps:

        * The producer's :meth:`~repro.core.fifo.Fifo.put_run` is blocked
          with more than its last beat queued: the step takes beats up to
          the take that would release it.  Every take admits one queued
          beat, so the FIFO stays full and the producer blocked, as beat
          by beat.
        * Otherwise the step takes the rest of the packet: buffered, or
          its last beat held by a blocked put the first take admits
          (releasing the producer when the first beat-by-beat take
          would).  No store may land while the step frees slots early:
          no other response-producing transaction is open at ``target``,
          or the producer's turnaround bound keeps its next store past
          the step's end.

        While the FIFO's :meth:`~repro.core.fifo.Fifo.put_schedule` is
        pending its producer is not released, so only
        :meth:`_claim_schedule` may take a run.
        """
        txn = beat.txn
        fifo = target.response_fifo
        if fifo._scheduled:
            return self._claim_schedule(target, beat, cycles)
        items = fifo._items
        if not ((self._packet_atomic or len(self.targets) == 1)
                and items[0] is beat and "beat_sink" not in txn.meta):
            return None
        waiting = fifo._put_waiters
        if waiting and waiting[0][0] is None:
            n = 0
            for event, _item in waiting:
                if event is not None:
                    break
                n += 1
            last = (items[n - 1] if n <= len(items)
                    else waiting[n - len(items) - 1][1])
            if n < 2 or last.txn is not txn:
                return None
        else:
            n = 0
            for last in items:
                n += 1
                if last.is_last:
                    break
            else:
                if not waiting:
                    return None
                last = waiting[0][1]
                n += 1
            if not (last.is_last and last.txn is txn and len(waiting) < 2):
                return None
            if target.open_responses != 1:
                now = self.sim._now
                release = now if waiting else fifo.released_ps
                if release + fifo.turnaround_ps \
                        < now + cycles * n * self.clock.period_ps:
                    return None
        run = []
        for _ in range(n):
            run.append(fifo.try_get())
        return run

    def _claim_schedule(self, target: TargetPort, beat: ResponseBeat,
                        cycles: int) -> Optional[ClaimedRun]:
        """LT: take ``beat`` (the head of ``target``'s response FIFO) with
        the rest of its packet, buffered or still pending in the FIFO's
        :meth:`~repro.core.fifo.Fifo.put_schedule`, to cross as one step
        that ends where streaming would: beat *j* at ``e_j = max(e_{j-1},
        wake(r_j)) + cycles * period``, ``wake(r)`` being ``r`` on a bus
        edge and the next edge otherwise.  Claimed beats are never stored.

        ``None`` unless streaming would store each claimed beat at its
        instant and could not be told apart (docs/FAST_SIM.md, step 3):
        :meth:`_take_run`'s common conditions and a same-edge wake; the
        FIFO and schedule hold this packet only, up to its last beat, and
        all of it fits; and no store from outside the packet can land
        before the run ends, as no other response-producing transaction
        is open at ``target`` and the fabric's one initiator port has one
        credit, held by this packet's transaction.
        """
        fifo = target.response_fifo
        items = fifo._items
        pending = fifo._scheduled
        txn = beat.txn
        if not (self._claims_schedules and self.lt_stall_same_edge
                and (self._packet_atomic or len(self.targets) == 1)
                and items[0] is beat and "beat_sink" not in txn.meta
                and target.open_responses == 1 and len(self.initiators) == 1
                and self.initiators[0].max_outstanding == 1
                and not fifo._put_waiters
                and len(items) + len(pending) <= fifo.capacity
                and pending[-1][1].is_last):
            return None
        for item in items:
            if item.txn is not txn:
                return None
        for _instant, item in pending:
            if item.txn is not txn:
                return None
        # Edge arithmetic inlined: the hot path calls no Clock accessor.
        period = self.clock.period_ps
        now = self.sim._now
        cross = cycles * period
        # The head crosses as ``clk.edges(cycles)`` from now; the buffered
        # beats follow back to back.
        first = now - now % period + cross
        end = first + cross * (len(items) - 1)
        for instant, _item in pending:
            wake = instant + -instant % period
            if wake > end:
                end = wake
            end += cross
        run = ClaimedRun()
        run.edges = cycles + (end - first) // period
        run.first_ps = first
        for _ in range(len(items)):
            run.append(fifo.try_get())
        run.extend(fifo.claim_scheduled())
        return run

    def _deliver_run(self, run: List[ResponseBeat],
                     cycles: int) -> ResponseBeat:
        """End of a ``cycles``-per-beat response run: stamp the first-data
        instant beat-by-beat streaming stamps (back-annotated, or the one a
        :class:`ClaimedRun` computed), deliver the beats in order and
        return the last."""
        sim = self.sim
        sim._lt_fastforwards += len(run) - 1
        txn = run[0].txn
        if txn.t_first_data is None:
            txn.t_first_data = (
                run.first_ps if run.__class__ is ClaimedRun else
                sim._now - cycles * (len(run) - 1) * self.clock.period_ps)
        for beat in run:
            self.deliver_beat(beat)
        return beat

    def deliver_beat(self, beat: ResponseBeat) -> None:
        """Complete bookkeeping when a response beat reaches the initiator.

        Initiators that need per-beat visibility (bridges relaying data to
        another layer) register a callable under ``txn.meta['beat_sink']``.
        """
        txn = beat.txn
        if self._checks is not None:
            self._checks.note_beat(self, beat)
        if self._energy is not None:
            self._energy.bus_beat(self, txn)
        if txn.t_first_data is None and beat.index != -1:
            txn.t_first_data = self.sim._now
        if beat.error:
            txn.error = True
        sink = txn.meta.get("beat_sink")
        if sink is not None:
            sink(beat)
        if beat.is_last:
            txn.complete(self.sim._now)

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def utilization_report(self) -> Dict[str, float]:
        """Utilisation per channel, at the current time."""
        return {name: mon.utilization() for name, mon in sorted(self.channels.items())}

    # ------------------------------------------------------------------
    # checkpoint state
    # ------------------------------------------------------------------
    def snapshot_state(self, encoder):
        """Port queues, credits, counters and arbiter state (all protocols).

        In-flight transactions appear here through the port FIFOs they are
        queued in; beats mid-transfer on a channel are generator-local and
        covered by the kernel's pending-event profile instead.
        """
        return {
            "initiators": {
                port.name: {
                    "pending": port.pending.snapshot(),
                    "credits": port.credits.available,
                    "issued": port.issued.value,
                    "completed": port.completed.value,
                } for port in self.initiators
            },
            "targets": {
                port.name: {
                    "requests": port.request_fifo.snapshot(),
                    "responses": port.response_fifo.snapshot(),
                    "accepted": port.accepted.value,
                } for port in self.targets
            },
            "arbiter": encoder.arbiter(self.arbiter),
            "decode_errors": self.decode_errors.value,
        }
