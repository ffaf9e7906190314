"""The one protocol pass: ``SimChecker._check_fabric`` derives every
post-run protocol rule from the fabric's ``ProtocolSpec``
(docs/CORRECTNESS.md, "Spec-derived rules").

Structural sibling of ``tests/test_run_seam.py``: an ``ast`` walk that
keeps label dispatch — a per-protocol pass somebody has to remember to
write, and to route to — from growing back.
"""

import ast
from pathlib import Path

import repro.check.monitors as monitors

TREE = ast.parse(Path(monitors.__file__).read_text())


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(function, name):
    return [node for node in ast.walk(function)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == name]


def test_finalize_dispatches_on_the_spec_not_on_a_protocol_label():
    finalize, = [f for f in _functions(TREE) if f.name == "finalize"]
    label_compares = [
        ast.unparse(node) for node in ast.walk(finalize)
        if isinstance(node, ast.Compare)
        and any(isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                for leaf in ast.walk(node))]
    assert label_compares == [], \
        f"derive the rule from spec_for_fabric(fabric): {label_compares}"
    assert _calls(finalize, "spec_for_fabric")
    assert len(_calls(finalize, "_check_fabric")) == 1


def test_exactly_one_pass_checks_pairing():
    callers = [f.name for f in _functions(TREE)
               if f.name != "_check_pairing" and _calls(f, "_check_pairing")]
    assert callers == ["_check_fabric"]
