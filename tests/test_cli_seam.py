"""Structural invariants of the CLI front end (``src/repro/cli.py``).

``stats`` and ``check`` resolve their targets through one function,
``--trace`` is one context manager, and every flag two subcommands share
is defined once, in a parent parser of ``build_parser``.
"""

import ast
from pathlib import Path

import pytest

import repro

CLI = Path(repro.__file__).parent / "cli.py"
TREE = ast.parse(CLI.read_text(), filename=str(CLI))
FUNCTIONS = {node.name: node for node in TREE.body
             if isinstance(node, ast.FunctionDef)}


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _calls(node):
    return {_callee(call) for call in ast.walk(node)
            if isinstance(call, ast.Call)}


def test_trace_is_one_context_manager():
    assert "_traced" in FUNCTIONS
    assert not {"_start_capture", "_finish_capture"} & set(FUNCTIONS)
    assert not {"__enter__", "__exit__"} & _calls(TREE)


@pytest.mark.parametrize("command", ["cmd_stats", "cmd_check"])
def test_targets_are_resolved_in_one_place(command):
    calls = _calls(FUNCTIONS[command])
    assert "_target" in calls
    assert not calls & {"registry", "load_config", "load_target",
                        "load_sweep", "read_document"}


def _defined_flags():
    """The first argument of every ``add_argument`` call in the CLI."""
    return [call.args[0].value for call in ast.walk(TREE)
            if isinstance(call, ast.Call) and _callee(call) == "add_argument"
            and call.args and isinstance(call.args[0], ast.Constant)]


@pytest.mark.parametrize("flag, definitions", [
    ("--scale", 1), ("--jobs", 1), ("--url", 1), ("--cache-dir", 1),
    # The shared definition plus one deliberate namesake each: submit's
    # per-unit bound and trace switch, sweep's per-job timeout and dse's
    # cache switch.
    ("--max-us", 2), ("--trace", 2), ("--timeout", 2), ("--no-cache", 2),
])
def test_shared_flags_are_defined_once(flag, definitions):
    assert _defined_flags().count(flag) == definitions
