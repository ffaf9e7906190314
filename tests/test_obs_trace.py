"""Tests for transaction-lifecycle span recording (repro.obs.trace)."""

import pytest

from repro.core import Simulator
from repro.interconnect import AddressRange
from repro.memory import LmiConfig, LmiController
from repro.obs import capture
from repro.obs.trace import Span, build_spans, hop_summary
from repro.platforms import quick_config
from repro.sweep import Run

from .helpers import (
    add_memory,
    make_node,
    read,
    run_transactions,
    timeout_storm,
    write,
)


def lmi_platform(sim, **config_kwargs):
    """An STBus node fronting the LMI controller + DDR SDRAM."""
    node = make_node(sim)
    controller = LmiController.attach(
        sim, node, "lmi", address_base=0, address_size=1 << 24,
        clock=sim.clock(freq_mhz=133, name="lmi_clk"),
        config=LmiConfig(**config_kwargs))
    return node, controller


class TestCaptureAttachment:
    def test_simulators_built_inside_capture_get_recorders(self):
        with capture() as cap:
            sim = Simulator()
        assert sim._spans is not None
        assert cap.recorders[0].sim is sim

    def test_simulators_outside_capture_are_untouched(self):
        sim = Simulator()
        assert sim._spans is None

    def test_bound_transactions_are_registered(self, sim):
        with capture() as cap:
            traced_sim = Simulator()
            node = make_node(traced_sim)
            add_memory(traced_sim, node)
            port = node.connect_initiator("ip0", max_outstanding=2)
            run_transactions(traced_sim, port, [read(0x0), read(0x40)])
        assert len(cap.transactions()) == 2
        assert len(cap.completed()) == 2


class TestSpanTiling:
    """The acceptance invariant: per-hop durations sum to latency."""

    def assert_tiles(self, cap):
        checked = 0
        for recorder in cap.recorders:
            for txn in recorder.completed():
                spans, _instants = build_spans(txn, recorder.marks(txn))
                assert spans, f"no spans for {txn!r}"
                total = sum(span.duration_ps for span in spans)
                assert total == txn.latency_ps, (
                    f"span tiling broken for {txn!r}: {spans}")
                prev_end = txn.t_created
                for span in spans:
                    assert span.start_ps == prev_end
                    prev_end = span.end_ps
                assert prev_end == txn.t_done
                checked += 1
        return checked

    def test_onchip_memory_reads(self):
        with capture() as cap:
            sim = Simulator()
            node = make_node(sim)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=4)
            run_transactions(sim, port,
                             [read(i * 64) for i in range(8)])
        assert self.assert_tiles(cap) == 8

    def test_lmi_platform_covers_every_stage(self):
        with capture() as cap:
            sim = Simulator()
            node, _controller = lmi_platform(sim, lookahead_depth=4)
            port = node.connect_initiator("ip0", max_outstanding=4)
            txns = [read(i * 64) for i in range(6)] + \
                   [write(0x100000 + i * 64) for i in range(4)]
            run_transactions(sim, port, txns)
        assert self.assert_tiles(cap) == 10
        stages = {span.name
                  for recorder in cap.recorders
                  for txn in recorder.completed()
                  for span in build_spans(txn, recorder.marks(txn))[0]}
        # Reads traverse the full pipeline: fabric, input FIFO, engine,
        # SDRAM command, data return.
        for expected in ("request_transfer", "target_fifo", "lmi_engine",
                         "memory_access", "response_transfer"):
            assert expected in stages, f"missing stage {expected}"

    def test_posted_write_marks_become_instants(self):
        """Posted writes complete at acceptance; the LMI marks that land
        later must not break the tiling."""
        with capture() as cap:
            sim = Simulator()
            node, _controller = lmi_platform(sim)
            port = node.connect_initiator("ip0", max_outstanding=2)
            run_transactions(sim, port,
                             [write(i * 64, posted=True) for i in range(4)])
        recorder = cap.recorders[0]
        instants = []
        for txn in recorder.completed():
            spans, extra = build_spans(txn, recorder.marks(txn))
            assert sum(s.duration_ps for s in spans) == txn.latency_ps
            instants.extend(extra)
        # The memory-side service happened after completion for at least
        # one posted write, so it surfaces as instants, not spans.
        assert any(i.name in ("lmi.engine", "sdram.cmd") for i in instants)


class TestBuildSpansEdgeCases:
    def test_incomplete_transaction_yields_no_spans(self):
        txn = read(0x0)
        txn.t_created = 100
        spans, instants = build_spans(txn, [("lmi.engine", 400)])
        assert spans == []
        assert [i.name for i in instants] == ["lmi.engine"]

    def test_zero_latency_transaction_gets_one_span(self):
        txn = read(0x0)
        txn.t_created = txn.t_done = 500
        spans, _ = build_spans(txn, [])
        assert spans == [Span("completion", 500, 0)]

    def test_unknown_mark_keeps_its_stage_name(self):
        txn = read(0x0)
        txn.t_created = 0
        txn.t_done = 100
        spans, _ = build_spans(txn, [("custom.stage", 40)])
        assert [s.name for s in spans] == ["custom.stage", "completion"]
        assert sum(s.duration_ps for s in spans) == 100


class TestHopSummary:
    def test_end_to_end_population_matches_completed(self):
        with capture() as cap:
            sim = Simulator()
            node = make_node(sim)
            add_memory(sim, node)
            port = node.connect_initiator("ip0", max_outstanding=2)
            run_transactions(sim, port, [read(i * 64) for i in range(5)])
        table = hop_summary(cap.recorders)
        assert table["end_to_end"].count == 5
        mean_parts = sum(summary.mean * summary.count
                         for name, summary in table.items()
                         if name != "end_to_end")
        assert mean_parts == pytest.approx(
            table["end_to_end"].mean * table["end_to_end"].count)


class TestDeterminismUnderCapture:
    """Capture must observe, never perturb: identical event counts and end
    times with and without instrumentation."""

    @pytest.mark.parametrize("scenario", ["timeout_storm", "platform_run"])
    def test_scenarios_unchanged(self, scenario):
        def run():
            if scenario == "timeout_storm":
                return timeout_storm(0.2)
            done = Run(quick_config(), 10**13).finish()
            return done.events, done.sim_time_ps

        baseline = run()
        with capture():
            traced = run()
        assert traced == baseline
