"""Documentation example checker.

Three promises the docs make are enforced here:

* ``docs/FAST_SIM.md`` quotes the accuracy-contract constants of
  :mod:`repro.check.lt_accuracy` in its bounds table. The table and the
  module must agree — neither can move without the other.
* ``README.md`` and ``docs/*.md`` quote ``repro ...`` command lines in
  their code blocks. Every quoted command must parse against the real
  CLI (known subcommand, known flags), and a fast allowlisted subset is
  actually executed so the quickstart examples cannot rot.
* The same documents point every "how fast is it" question at the
  scripts under ``benchmarks/``. Every quoted script invocation must
  name a script that exists and pass only flags (and flag choices, such
  as ``--workload`` names) its ``--help`` lists.
"""

import functools
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import lt_accuracy
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# FAST_SIM.md constants table vs repro.check.lt_accuracy


#: `NAME = value` spans inside docs/FAST_SIM.md (the bounds-table column).
_CONSTANT = re.compile(r"`([A-Z][A-Z0-9_]*)\s*=\s*([0-9.]+)`")

#: Every bound the contract publishes must appear in the document.
_REQUIRED_CONSTANTS = ("EXECUTION_TIME_DRIFT", "LATENCY_DRIFT",
                      "UTILIZATION_ABS_DRIFT", "ENERGY_DRIFT",
                      "MIN_EVENT_SPEEDUP", "MIN_CORPUS_EVENT_RATIO")


def test_fast_sim_constants_match_code():
    text = (REPO_ROOT / "docs" / "FAST_SIM.md").read_text()
    documented = {name: float(value)
                  for name, value in _CONSTANT.findall(text)}
    for name in _REQUIRED_CONSTANTS:
        assert name in documented, (
            f"FAST_SIM.md no longer documents {name}")
    for name, value in documented.items():
        actual = getattr(lt_accuracy, name, None)
        assert actual is not None, (
            f"FAST_SIM.md documents {name}, which repro.check.lt_accuracy "
            f"does not define")
        assert actual == value, (
            f"FAST_SIM.md documents {name} = {value} but the code has "
            f"{actual}; update the table and the constant together")


# ---------------------------------------------------------------------------
# Quoted CLI commands vs the real parser


#: A quoted command line: an optional ``$`` console prompt, an optional
#: ``PYTHONPATH=...`` prefix, then ``python -m repro`` or bare ``repro``.
_COMMAND = re.compile(
    r"^(?:\$\s+)?(?:PYTHONPATH=\S+\s+)?(?:python\s+-m\s+repro|repro)\s+(.+)$")


def _doc_files():
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return docs


def _quoted_commands(doc: Path):
    """Yield the argv tail of every runnable ``repro`` command the
    document quotes. Lines with placeholders (``<digest>``, ``...``) or
    shell plumbing are illustrative, not runnable, and are skipped."""
    for line in doc.read_text().splitlines():
        match = _COMMAND.match(line.strip())
        if not match:
            continue
        tail = match.group(1).split("#", 1)[0].strip()
        if any(marker in tail for marker in ("<", ">", "...", "|", "&&")):
            continue
        if tail:
            yield tail.split()


def _subcommands():
    parser = build_parser()
    for action in parser._subparsers._group_actions:
        if hasattr(action, "choices"):
            return dict(action.choices)
    raise AssertionError("repro CLI has no subparsers")  # pragma: no cover


def _commands_by_doc():
    return [(doc.name, argv)
            for doc in _doc_files()
            for argv in _quoted_commands(doc)]


def test_docs_quote_commands_at_all():
    """The extraction is not vacuous: the quickstart docs do quote
    runnable commands."""
    docs_with_commands = {name for name, _ in _commands_by_doc()}
    assert "README.md" in docs_with_commands
    assert "FAST_SIM.md" in docs_with_commands


@pytest.mark.parametrize(
    "doc,argv", _commands_by_doc(),
    ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_quoted_commands_parse(doc, argv):
    subcommands = _subcommands()
    command, rest = argv[0], argv[1:]
    assert command in subcommands, (
        f"{doc} quotes unknown subcommand 'repro {command}'")
    known_flags = set(subcommands[command]._option_string_actions)
    unknown = [token.split("=", 1)[0] for token in rest
               if token.startswith("--")
               and token.split("=", 1)[0] not in known_flags]
    assert not unknown, (
        f"{doc} quotes 'repro {' '.join(argv)}' with flags the CLI does "
        f"not accept: {unknown}")


# ---------------------------------------------------------------------------
# Executable subset: the FAST_SIM.md examples actually run


#: (doc, quoted argv, speed overrides appended for the test run).
#: The quoted argv must appear verbatim in the doc — if the doc example
#: changes, this list changes with it.
_EXECUTED = [
    ("FAST_SIM.md",
     ["platform", "examples/configs/custom_platform.json", "--mode", "lt"],
     ["--max-us", "300"]),
]


@pytest.mark.parametrize("doc,argv,overrides", _EXECUTED,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_doc_examples_execute(doc, argv, overrides, tmp_path, monkeypatch,
                              capsys):
    quoted = [tuple(cmd) for name, cmd in _commands_by_doc() if name == doc]
    assert tuple(argv) in quoted, (
        f"{doc} no longer quotes 'repro {' '.join(argv)}'; update _EXECUTED")
    # Keep the example verbatim but redirect artifacts into tmp_path and
    # shorten the run — the docs quote full-length invocations.
    run_argv = [str(tmp_path / "out.json") if token.startswith("/tmp/")
                else token for token in argv] + overrides
    monkeypatch.chdir(REPO_ROOT)
    assert main(run_argv) == 0, f"'repro {' '.join(run_argv)}' failed"
    out = capsys.readouterr().out
    if argv[0] == "platform":
        assert "resolution:      lt" in out


# ---------------------------------------------------------------------------
# Quoted benchmark scripts vs their own --help


#: A quoted script invocation: an optional ``$`` prompt, ``python`` or
#: ``python3``, then a script under ``benchmarks/``.
_SCRIPT = re.compile(
    r"^(?:\$\s+)?(?:PYTHONPATH=\S+\s+)?python3?\s+(benchmarks/\S+\.py)(.*)$")


def _scripts_by_doc():
    cases = []
    for doc in _doc_files():
        for line in doc.read_text().splitlines():
            match = _SCRIPT.match(line.strip())
            if match:
                tail = match.group(2).split("#", 1)[0].split()
                cases.append((doc.name, match.group(1), tail))
    return cases


@functools.lru_cache(maxsize=None)
def _script_help(script):
    done = subprocess.run([sys.executable, script, "--help"], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, f"{script} --help failed:\n{done.stderr}"
    return done.stdout


def test_docs_quote_benchmark_scripts_at_all():
    """The extraction is not vacuous: the performance docs quote the
    stack benchmark and the LT gate."""
    quoted = {(doc, script) for doc, script, _ in _scripts_by_doc()}
    assert ("PERFORMANCE.md", "benchmarks/stack/run.py") in quoted
    assert ("README.md", "benchmarks/lt_gate.py") in quoted


@pytest.mark.parametrize(
    "doc,script,argv", _scripts_by_doc(),
    ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_quoted_benchmark_commands_parse(doc, script, argv):
    assert (REPO_ROOT / script).is_file(), (
        f"{doc} quotes {script}, which does not exist")
    usage = _script_help(script)
    for index, token in enumerate(argv):
        if not token.startswith("--"):
            continue
        flag = token.split("=", 1)[0]
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", usage), (
            f"{doc} quotes '{script} {' '.join(argv)}' with {flag}, which "
            f"{script} --help does not list")
        choices = re.search(rf"{re.escape(flag)} \{{([^}}]*)\}}", usage)
        if choices and index + 1 < len(argv):
            assert argv[index + 1] in choices.group(1).split(","), (
                f"{doc} quotes '{flag} {argv[index + 1]}'; {script} "
                f"accepts {choices.group(1)}")
