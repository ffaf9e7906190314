"""The one execution seam: ``repro.sweep.Run`` and the finished-run
document (docs/ARCHITECTURE.md, "Sweep execution layer").

``Run`` is the only place a configuration becomes a live platform; the
structural test at the bottom keeps it that way.
"""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.core import Simulator
from repro.obs import Capture, capture
from repro.platforms import quick_config
from repro.sweep import CachedRun, Run

MAX_PS = 10**13


def config():
    return quick_config(traffic_scale=0.05)


@pytest.fixture(scope="module")
def straight():
    """The uninterrupted reference run every test compares against."""
    return Run(config(), MAX_PS).finish()


class TestAdvance:
    def test_true_mid_traffic_and_stops_exactly_there(self):
        run = Run(config(), MAX_PS)
        assert run.advance(500_000) is True
        assert run.sim.now == 500_000

    def test_false_once_the_traffic_finished(self, straight):
        run = Run(config(), MAX_PS)
        assert run.advance(10**12) is False
        # The queue drained: time stays at the last event, not at 1 s.
        assert run.sim.now == straight.sim_time_ps
        assert run.finish() == straight

    def test_false_at_the_bound_and_never_simulates_past_it(self, straight):
        bound = straight.sim_time_ps // 2
        run = Run(config(), bound)
        assert run.advance(10 * bound) is False
        assert run.sim.now == bound
        with pytest.raises(RuntimeError, match="did not finish"):
            run.finish()

    def test_unbounded_run(self, straight):
        run = Run(config(), max_ps=None)
        assert run.advance(500_000) is True
        assert run.advance(10**12) is False
        assert run.finish() == straight

    def test_sliced_run_is_bit_identical_to_a_straight_one(self, straight):
        run = Run(config(), MAX_PS)
        pauses = 0
        while run.advance(run.sim.now + 300_000):
            pauses += 1
        assert pauses > 2
        assert run.finish() == straight


class TestCallerSimulator:
    def test_trace_hook_sees_every_event(self, straight):
        seen = []
        sim = Simulator(trace=lambda time_ps, event: seen.append(time_ps))
        run = Run(config(), MAX_PS, sim=sim)
        assert run.sim is sim
        assert run.finish() == straight
        assert len(seen) == straight.events

    def test_attached_capture_sees_every_span(self, straight):
        """A Capture attached before elaboration (the service's trace
        unit) records what an ambient capture of the same run does."""
        sim = Simulator()
        cap = Capture()
        cap.attach(sim)
        assert Run(config(), MAX_PS, sim=sim).finish() == straight
        with capture() as ambient:
            Run(config(), MAX_PS).finish()
        assert len(cap.completed()) == len(ambient.completed()) > 0
        assert len(cap.to_trace_json()["traceEvents"]) \
            == len(ambient.to_trace_json()["traceEvents"])


class TestFinishedRunDocument:
    def test_round_trip(self, straight):
        assert CachedRun.from_document(straight.to_document()) == straight

    def test_survives_json_and_ignores_envelope_keys(self, straight):
        """Cache entries and executor returns wrap the document in their
        own keys (``schema``/``key``, ``kind``/``trace``)."""
        wire = json.loads(json.dumps(
            {"kind": "done", "schema": 2, **straight.to_document()}))
        assert CachedRun.from_document(wire) == straight

    def test_malformed_document_raises(self):
        with pytest.raises((KeyError, ValueError)):
            CachedRun.from_document({"result": {}, "events": 1})


# ----------------------------------------------------------------------
# structural invariant: one elaboration site
# ----------------------------------------------------------------------
SRC = Path(repro.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
ELABORATORS = {"build_platform", "PlatformInstance"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_only_run_elaborates_and_watches_for_the_finish():
    """Every layer drives a ``Run``: under ``src/repro`` only ``sweep.py``
    (and the platform module itself) calls ``build_platform`` /
    ``PlatformInstance``, and only ``Run.advance`` reads the platform's
    private ``_finish_ps``."""
    elaborations, finish_reads = [], []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if where == "platforms/reference.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        advance = set()
        if where == "sweep.py":
            advance = {id(node) for cls in tree.body
                       if isinstance(cls, ast.ClassDef) and cls.name == "Run"
                       for method in cls.body
                       if getattr(method, "name", None) == "advance"
                       for node in ast.walk(method)}
            assert advance, "Run.advance moved: update this test"
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and where != "sweep.py" \
                    and _name(node.func) in ELABORATORS:
                elaborations.append(f"{where}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "_finish_ps" \
                    and id(node) not in advance:
                finish_reads.append(f"{where}:{node.lineno}")
    assert elaborations == [], \
        f"elaborate through repro.sweep.Run instead: {elaborations}"
    assert finish_reads == [], \
        f"ask Run.advance() instead of reading _finish_ps: {finish_reads}"


def test_experiments_describe_platforms_and_run_them_through_run():
    """Every experiment hands configurations to ``Run`` (directly or via
    ``run_configs``/``sweep``): nothing under ``repro/experiments``
    builds a ``Simulator``, drives one with ``.run(until=...)`` or keeps
    a private fan-out (``parallel_map``).  Fig. 6 reads a probe that no
    ``RunResult`` carries, so its per-point job runs on the sweep pool
    (``_pool_map``)."""
    offenders = []
    for path in sorted((SRC / "experiments").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call):
                called = _name(node.func)
                if called == "Simulator" or called == "run" and any(
                        keyword.arg == "until" for keyword in node.keywords):
                    offenders.append(f"{where} {called}(")
            elif "parallel_map" in (_name(node), getattr(node, "name", None)):
                offenders.append(f"{where} parallel_map")
    assert offenders == [], f"run experiments through Run: {offenders}"


# ----------------------------------------------------------------------
# structural invariants: one wire protocol, one statistics store
# ----------------------------------------------------------------------
def test_the_service_speaks_one_protocol():
    """Both listeners are bound to the HTTP handler: nothing under
    ``repro/service`` builds or parses an ``{"op": ...}`` message."""
    offenders = []
    for path in sorted((SRC / "service").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value == "op" \
                    or getattr(node, "name", None) in ("_socket_op",
                                                       "_handle_socket"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_statistics_are_built_by_the_registry():
    """Models obtain counters and latency populations from
    ``sim.metrics`` so that ``repro stats`` lists them.  The exceptions
    own no simulator: the statistics module itself, the registry, the
    trace report's local hop table, and ``Cache`` (whose counters
    ``St220Core`` registers)."""
    allowed = {"core/statistics.py", "obs/registry.py", "obs/trace.py",
               "cpu/cache.py"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if where in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) \
                    and _name(node.func) in ("Counter", "LatencySummary"):
                offenders.append(f"{where}:{node.lineno}")
    assert offenders == [], f"use sim.metrics.counter/histogram: {offenders}"


def _imported_modules(node):
    """Dotted names an import statement reaches, relative ones with their
    leading dots dropped (``from ..analysis import x`` -> ``analysis``,
    ``analysis.x``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        return [base] + [f"{base}.{alias.name}".lstrip(".")
                         for alias in node.names]
    return []


def test_one_export_module():
    """``obs/export.py`` is the only file under ``src/repro`` that
    imports ``csv``: every renderer and exporter lives in ``repro.obs``."""
    csv_importers = set()
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if "csv" in _imported_modules(node):
                csv_importers.add(where)
    assert csv_importers == {"obs/export.py"}


def test_no_analysis_package():
    """``repro.analysis`` is gone: the run result lives in
    ``repro.platforms`` and the Fig. 6 instrument is the ``repro.obs``
    :class:`~repro.obs.registry.InterfaceProbe`.  Nothing imports it, and
    the string-protocol request hook it needed stays gone from ``src``."""
    roots = (SRC, ROOT / "tests", ROOT / "examples")
    importers = []
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if any(module.split(".")[:2] == ["repro", "analysis"]
                       or module.split(".")[0] == "analysis"
                       for module in _imported_modules(node)):
                    importers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert importers == [], f"imports of repro.analysis: {importers}"
    assert not (SRC / "analysis").exists()
    hooks = [f"{path.relative_to(ROOT)}" for path in sorted(SRC.rglob("*.py"))
             if "request_observers" in path.read_text()
             or "notify_request_state" in path.read_text()]
    assert hooks == [], f"request-observer hook revived: {hooks}"


# ----------------------------------------------------------------------
# structural invariant: one frame per resume on the beat path
# ----------------------------------------------------------------------
BEAT_PATH = ("interconnect", "bridge", "memory")

#: The delegating helpers the beat-path processes were flattened out of.
FLATTENED = {
    "bridge/base.py": {"BridgeBase": {"cross"}},
    "bridge/lightweight.py": {"LightweightBridge": {"_blocking_read",
                                                    "_store_and_forward_write"}},
    "interconnect/ahb.py": {"AhbLayer": {"_serve"}},
    "memory/onchip.py": {"OnChipMemory": {"_stream_read", "_stream_read_lt",
                                          "_commit_write"}},
    "memory/lmi.py": {"LmiController": {"_serve_group", "_return_read_data",
                                        "_finish_writes"}},
}


def test_beat_path_processes_are_single_generators():
    """Nothing under ``repro/{interconnect,bridge,memory}`` delegates with
    ``yield from``: every resume of a chain enters each level, so a bus,
    bridge or memory process is one generator (docs/PERFORMANCE.md, "One
    frame per resume").  The helpers they were flattened out of stay
    gone."""
    delegations, revived, seen = [], [], set()
    for package in BEAT_PATH:
        for path in sorted((SRC / package).glob("*.py")):
            where = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            delegations += [f"{where}:{node.lineno}" for node in ast.walk(tree)
                            if isinstance(node, ast.YieldFrom)]
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef) \
                        or cls.name not in FLATTENED.get(where, {}):
                    continue
                seen.add(cls.name)
                revived += [f"{cls.name}.{member.name}" for member in cls.body
                            if getattr(member, "name", None)
                            in FLATTENED[where][cls.name]]
    assert delegations == [], f"inline the delegated generator: {delegations}"
    assert revived == [], f"flattened helpers are back: {revived}"
    assert seen == {cls for classes in FLATTENED.values() for cls in classes}, \
        "a class moved: update FLATTENED"


# ----------------------------------------------------------------------
# structural invariant: one approximate tier
# ----------------------------------------------------------------------
def test_one_approximate_tier():
    """LT (``resolution="lt"``) is the only fast mode.  The protocol-blind
    transaction-level tier is gone (docs/FAST_SIM.md records why), with
    its config key, energy coefficient, registry exemption and helpers.
    The match is case-sensitive: ``protocols.py`` still cites the Samsung
    AMBA TLM work."""
    import dataclasses
    import re

    from repro.core.statistics import ChannelUtilization
    from repro.interconnect import protocols
    from repro.obs.energy import EnergyAccountant, EnergyConfig
    from repro.platforms import PlatformConfig

    banned = re.compile(r"\b(?:tlm|TlmNode)\b|TLM tier")
    mentions = [f"{path.relative_to(SRC).as_posix()}:{number}"
                for path in sorted(SRC.rglob("*.py"))
                for number, line in enumerate(path.read_text().splitlines(),
                                              start=1)
                if banned.search(line)]
    assert mentions == [], f"transaction-level tier revived: {mentions}"
    assert not (SRC / "interconnect" / "tlm.py").exists()
    fields = {cls.__name__: {f.name for f in dataclasses.fields(cls)}
              for cls in (PlatformConfig, EnergyConfig, protocols.ProtocolSpec)}
    assert "abstraction" not in fields["PlatformConfig"]
    assert "tlm_pj_per_beat" not in fields["EnergyConfig"]
    assert "bridgeable" not in fields["ProtocolSpec"]
    leftovers = [name for owner, name in (
        (protocols, "bridgeable_specs"), (protocols, "bridge_pair_unsupported"),
        (EnergyAccountant, "bus_beats"), (ChannelUtilization, "add_busy"))
        if hasattr(owner, name)]
    assert leftovers == []
