"""Tests for the Chrome/Perfetto trace_event exporter (repro.obs.perfetto)."""

import json

from repro.core import Simulator
from repro.obs import capture

from .helpers import add_memory, make_node, read, run_transactions, write

#: Phase codes this exporter may legally emit (trace_event spec subset).
_ALLOWED_PHASES = {"X", "i", "M", "C"}


def validate_trace_document(document):
    """Assert ``document`` satisfies the trace_event JSON object format."""
    assert isinstance(document, dict)
    assert isinstance(document["traceEvents"], list)
    for event in document["traceEvents"]:
        assert isinstance(event["name"], str) and event["name"]
        assert event["ph"] in _ALLOWED_PHASES
        assert isinstance(event["pid"], int)
        assert "tid" in event
        if event["ph"] == "X":
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert isinstance(event["args"], dict)
        elif event["ph"] == "i":
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert event["s"] in ("g", "p", "t")
        elif event["ph"] == "C":  # power counter track
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert event["cat"] == "power"
            assert event["name"].startswith("power.")
            assert isinstance(event["args"], dict)
            assert isinstance(event["args"]["mW"], (int, float))
            assert event["args"]["mW"] >= 0
        else:  # metadata
            assert event["name"] in ("process_name", "thread_name")
            assert isinstance(event["args"]["name"], str)


def traced_run(transactions, energy=False):
    with capture(energy=energy) as cap:
        sim = Simulator()
        node = make_node(sim)
        add_memory(sim, node)
        port = node.connect_initiator("ip0", max_outstanding=4)
        run_transactions(sim, port, transactions)
    return cap


class TestTraceDocument:
    def test_document_validates_against_schema(self):
        cap = traced_run([read(i * 64) for i in range(4)] +
                         [write(0x1000 + i * 64) for i in range(2)])
        validate_trace_document(cap.to_trace_json())

    def test_document_is_json_serialisable(self):
        cap = traced_run([read(0x0)])
        text = json.dumps(cap.to_trace_json())
        assert json.loads(text)["traceEvents"]

    def test_every_completed_transaction_has_spans(self):
        cap = traced_run([read(i * 64) for i in range(5)])
        document = cap.to_trace_json()
        spanned_tids = {event["args"]["tid"]
                        for event in document["traceEvents"]
                        if event["ph"] == "X"}
        assert spanned_tids == {txn.tid for txn in cap.completed()}

    def test_span_durations_sum_to_latency_in_microseconds(self):
        cap = traced_run([read(0x0, beats=16)])
        txn = cap.completed()[0]
        document = cap.to_trace_json()
        total_us = sum(event["dur"] for event in document["traceEvents"]
                       if event["ph"] == "X"
                       and event["args"]["tid"] == txn.tid)
        # Exact in ps; the µs float conversion may round the last ulp.
        assert round(total_us * 1e6) == txn.latency_ps

    def test_tracks_are_per_initiator(self):
        with capture() as cap:
            sim = Simulator()
            node = make_node(sim)
            add_memory(sim, node)
            ports = [node.connect_initiator(f"ip{i}") for i in range(2)]
            from .helpers import drive

            drive(sim, ports[0], [read(0x0, initiator="ip0")])
            drive(sim, ports[1], [read(0x40, initiator="ip1")])
            sim.run(until=10_000_000)
        document = cap.to_trace_json()
        tids = {event["tid"] for event in document["traceEvents"]
                if event["ph"] == "X"}
        assert tids == {"ip0", "ip1"}
        thread_names = {event["args"]["name"]
                        for event in document["traceEvents"]
                        if event["ph"] == "M"
                        and event["name"] == "thread_name"}
        assert {"ip0", "ip1"} <= thread_names

    def test_metadata_names_each_simulator(self):
        with capture() as cap:
            for _ in range(2):
                sim = Simulator()
                node = make_node(sim)
                add_memory(sim, node)
                port = node.connect_initiator("ip0")
                run_transactions(sim, port, [read(0x0)])
        document = cap.to_trace_json()
        process_names = {event["args"]["name"]
                         for event in document["traceEvents"]
                         if event["ph"] == "M"
                         and event["name"] == "process_name"}
        assert process_names == {"simulator1", "simulator2"}
        validate_trace_document(document)


class TestPowerCounters:
    def test_energy_capture_emits_power_counter_tracks(self):
        cap = traced_run([read(i * 64) for i in range(4)], energy=True)
        document = cap.to_trace_json()
        validate_trace_document(document)
        counters = [event for event in document["traceEvents"]
                    if event["ph"] == "C"]
        assert counters, "energy capture produced no power counter events"
        # One track per charged component, every sample non-negative.
        accountant = cap.accountants[0]
        charged = set(accountant.component_pj())
        tracks = {event["name"] for event in counters}
        assert tracks == {f"power.{name}" for name in charged}

    def test_spans_carry_per_transaction_energy(self):
        cap = traced_run([read(0x0, beats=8)], energy=True)
        document = cap.to_trace_json()
        spans = [event for event in document["traceEvents"]
                 if event["ph"] == "X"]
        assert spans
        for event in spans:
            assert event["args"]["energy_pj"] > 0

    def test_plain_capture_has_no_counter_events(self):
        cap = traced_run([read(0x0)])
        document = cap.to_trace_json()
        assert not [event for event in document["traceEvents"]
                    if event["ph"] == "C"]

    def test_energy_document_is_json_serialisable(self):
        cap = traced_run([read(i * 64) for i in range(3)], energy=True)
        text = json.dumps(cap.to_trace_json())
        assert json.loads(text)["traceEvents"]


class TestWriteTrace:
    def test_writes_loadable_file_and_counts_spans(self, tmp_path):
        cap = traced_run([read(i * 64) for i in range(3)])
        out = tmp_path / "trace.json"
        count = cap.write_trace(str(out))
        document = json.loads(out.read_text())
        validate_trace_document(document)
        assert count == sum(1 for event in document["traceEvents"]
                            if event["ph"] == "X")
        assert count >= 3
