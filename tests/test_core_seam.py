"""Structural invariants of ``repro.core``: one mechanism per job
(docs/ARCHITECTURE.md, "Simulation core").

* ``Fifo`` notifies through its store/take listener lists only — no level
  watchers, no single-slot hooks — and keeps no occupancy integrator:
  ``FifoProbe`` integrates occupancy under a capture.
* ``Simulator`` drives its queue with two loop bodies, ``_run_fast`` and
  the reference ``_run_traced`` that ``CheckedRun`` compares against.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent
TESTS = Path(__file__).parent


def _trees(root):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(root.parent).as_posix(), \
            ast.parse(path.read_text(), filename=str(path))


def _assigned_attributes(node):
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    return [target.attr for target in targets
            if isinstance(target, ast.Attribute)]


def test_fifo_has_one_notification_mechanism_and_no_integrator():
    offenders = []
    for where, tree in _trees(SRC):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "watch":
                offenders.append(f"{where}:{node.lineno}: .watch(")
            for attr in _assigned_attributes(node):
                if attr in ("_on_store", "_on_take"):
                    offenders.append(f"{where}:{node.lineno}: {attr} =")
            if isinstance(node, ast.Attribute) and node.attr == "_level_time" \
                    or isinstance(node, ast.Name) and node.id == "_level_time":
                offenders.append(f"{where}:{node.lineno}: _level_time")
    assert offenders == [], \
        f"register Fifo.store_listeners / take_listeners: {offenders}"


def test_simulator_has_two_loop_bodies():
    tree = ast.parse((SRC / "core" / "kernel.py").read_text())
    simulator = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "Simulator")
    methods = [node for node in simulator.body
               if isinstance(node, ast.FunctionDef)]
    loops = {method.name for method in methods
             if any(isinstance(node, ast.While) for node in ast.walk(method))}
    drivers = {method.name for method in methods
               if method.name.startswith("_run")}
    assert loops == drivers == {"_run_fast", "_run_traced"}


def test_no_event_budget_anywhere():
    """``run(max_events=...)`` is gone from the kernel, and no caller
    under ``src`` or ``tests`` passes or declares it."""
    offenders = []
    for root in (SRC, TESTS):
        for where, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.keyword) and node.arg == "max_events" \
                        or isinstance(node, ast.arg) \
                        and node.arg == "max_events":
                    offenders.append(f"{where}:{node.lineno}")
    assert offenders == [], f"bound runs with until= instead: {offenders}"
