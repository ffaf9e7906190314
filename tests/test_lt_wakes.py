"""Loosely-timed wake-ups that find nothing to do, counted.

An idle channel process sleeps on a :class:`~repro.core.sync.WorkSignal`
(``signal.sleep()``) and every wake-up costs a generator resume plus a
scan of its inputs.  A wake-up is *useful* when the process then does
something — waits on anything but its idle sleep (a transfer's clock
edges), or stores into a FIFO (an LT relay hands its beats over without
waiting) — and *empty* when it goes straight back to sleep.  In LT a
producer wakes only the process its change can let act, so on the six
stack-benchmark platforms:

* an AXI B channel is never resumed without an acknowledgement queued,
  an R channel never without a data beat;
* a GenConv relay is never resumed for a job that cannot progress, and
  enqueuing a job (its child not issued yet) never signals it.

The useful ÷ all ratio per fabric is printed; it is below 100 % where
channels still share a signal.  AXI's AR and AW are one such pair: an
idle one's empty wake-up clears the dirty flag and re-arms the signal
the other stalls on, so waking them apart moves scheduled events.
"""

import pytest

from repro.bridge.genconv import GenConvBridge
from repro.core import Simulator
from repro.core.fifo import Fifo
from repro.core.sync import WorkSignal
from repro.interconnect.axi import AxiFabric
from repro.platforms import (build_platform, fig3_instances, fig5_instances,
                             instance, onchip_memory)

SCALE = 0.05


def _platforms():
    fig3, fig5 = fig3_instances(SCALE), fig5_instances(SCALE)
    return {
        "full_stbus": fig3["full_stbus"],
        "full_ahb": fig3["full_ahb"],
        "distributed_axi": fig3["distributed_axi"],
        "lmi_distributed_stbus": fig5["distributed_stbus"],
        "lmi_collapsed_axi": fig5["collapsed_axi"],
        "generic_tilelink": instance("tilelink", "distributed",
                                     onchip_memory(1), traffic_scale=SCALE),
    }


def _count_wakes(process, signals, stores, tally):
    """Wrap ``process``'s generator so ``tally`` gets ``[wakes, empty]``:
    resumes out of an idle ``sleep()`` on one of ``signals``, and those
    that yielded the idle sleep again with no FIFO store (``stores[0]``
    counts them) in between."""
    send = process._send
    asleep = [False]

    def counting_send(value):
        stored = stores[0]
        event = send(value)
        sleeping = any(event is signal._event for signal in signals)
        if asleep[0]:
            tally[0] += 1
            tally[1] += sleeping and stores[0] == stored
        asleep[0] = sleeping
        return event

    process._send = counting_send


def _record_enqueue_signals(bridge, enqueues):
    """Append to ``enqueues`` how often each ``_enqueue`` signalled the
    relay (its work generation moved)."""
    enqueue = bridge._enqueue

    def recorded(job):
        before = bridge._relay_work.generation
        enqueue(job)
        enqueues.append(bridge._relay_work.generation - before)

    bridge._enqueue = recorded


def _run(config, stores):
    """``({(component, channel): [wakes, empty]}, enqueue signal counts,
    {component: type})`` of one LT run."""
    platform = build_platform(Simulator(), config.scaled(resolution="lt"))
    tallies, enqueues, kinds = {}, [], {}
    for component in platform.iter_tree():
        signals = [value for value in vars(component).values()
                   if isinstance(value, WorkSignal)]
        if not signals:
            continue
        kinds[component.name] = type(component)
        for process in component.processes:
            channel = process.name.rsplit(".", 1)[-1]
            _count_wakes(process, signals, stores,
                         tallies.setdefault((component.name, channel), [0, 0]))
        if isinstance(component, GenConvBridge):
            _record_enqueue_signals(component, enqueues)
    platform.run()
    return tallies, enqueues, kinds


@pytest.fixture(scope="module")
def runs():
    stores = [0]
    store = Fifo._store

    def counted_store(fifo, item):
        stores[0] += 1
        store(fifo, item)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fifo, "_store", counted_store)
        return {name: _run(config, stores)
                for name, config in _platforms().items()}


def test_axi_response_channels_wake_only_for_their_beat_kind(runs):
    woken = 0
    for tallies, _, kinds in runs.values():
        for fabric, kind in kinds.items():
            if not issubclass(kind, AxiFabric):
                continue
            for channel, waits_for in (("r", "data beat"),
                                       ("b", "acknowledgement")):
                wakes, empty = tallies[fabric, channel]
                assert empty == 0, (
                    f"{fabric}.{channel}: {empty} of {wakes} wake-ups found "
                    f"no {waits_for}")
                woken += wakes
    assert woken > 0, "no AXI response channel was ever woken"


def test_genconv_relay_wakes_only_for_a_job_that_can_progress(runs):
    relays = enqueued = 0
    for tallies, enqueues, kinds in runs.values():
        assert not any(enqueues), "enqueuing a job signalled the relay"
        enqueued += len(enqueues)
        for bridge, kind in kinds.items():
            if issubclass(kind, GenConvBridge):
                wakes, empty = tallies[bridge, "relay"]
                assert empty == 0, (
                    f"{bridge}.relay: {empty} of {wakes} wake-ups found no "
                    f"job ready")
                relays += wakes
    assert relays > 0 and enqueued > 0, "no GenConv relay was exercised"


def test_useful_wake_ratio_per_fabric(runs, capsys):
    rows = []
    for platform, (tallies, _, kinds) in sorted(runs.items()):
        per_component = {}
        for (component, _), (wakes, empty) in tallies.items():
            total = per_component.setdefault(component, [0, 0])
            total[0] += wakes
            total[1] += empty
        for component, (wakes, empty) in sorted(per_component.items()):
            if wakes:
                assert 0 <= empty <= wakes
                rows.append((f"{platform}/{component}",
                             kinds[component].__name__, wakes,
                             (wakes - empty) / wakes))
    assert rows
    with capsys.disabled():
        print(f"\n{'fabric':<44}{'kind':<16}{'wakes':>7}{'useful':>8}")
        for name, kind, wakes, ratio in rows:
            print(f"{name:<44}{kind:<16}{wakes:>7}{ratio:>8.1%}")
