"""Documentation link checker.

Every internal link in ``README.md`` and ``docs/*.md`` must resolve to a
real file in the repository, and every ``file.py::Symbol`` anchor to a
definition in that file, so the architecture map in
``docs/ARCHITECTURE.md`` cannot silently drift away from the source tree.
External links (http/https/mailto) and pure in-page anchors are skipped.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"

# [text](target) — won't catch reference-style links, which the docs don't use.
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _doc_files():
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return docs


def _internal_links(doc: Path):
    for match in _LINK.finditer(doc.read_text()):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


def test_docs_exist():
    for doc in _doc_files():
        assert doc.is_file(), doc


@pytest.mark.parametrize("doc", _doc_files(), ids=lambda d: d.name)
def test_internal_links_resolve(doc):
    broken = []
    for target in _internal_links(doc):
        # Strip an in-page anchor and an optional :line suffix on code links.
        path_part = target.split("#", 1)[0]
        path_part = re.sub(r":\d+(-\d+)?$", "", path_part)
        if not path_part:
            continue
        resolved = (doc.parent / path_part).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{doc.name}: broken links {broken}"


#: ``path.py::Symbol`` (``Class.method`` and pytest's ``Class::test`` too);
#: ``path`` may be a suffix naming exactly one file under ``src/repro``.
_SYMBOL_ANCHOR = re.compile(r"(?<![\w/.])([\w/]+\.py)::(\w+(?:(?:\.|::)\w+)*)")
#: The line anchors symbol anchors replaced: they drift with every edit.
_LINE_ANCHOR = re.compile(r"\b\w+\.py:\d+")


def _anchor_file(path: str):
    if path.startswith(("src/", "tests/")):
        return REPO_ROOT / path if (REPO_ROOT / path).is_file() else None
    matches = [candidate for candidate in SRC.rglob(path.rsplit("/", 1)[-1])
               if candidate.as_posix().endswith("/" + path)]
    return matches[0] if len(matches) == 1 else None


def _defines(path: Path, symbol: str) -> bool:
    """``symbol`` (dotted through classes) is a class or function in
    ``path``."""
    scope = ast.parse(path.read_text(), filename=str(path)).body
    for name in re.split(r"\.|::", symbol):
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                 and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize("doc", _doc_files(), ids=lambda d: d.name)
def test_symbol_anchors_resolve(doc):
    """Each ``file.py::Symbol`` names one file and a definition in it,
    and no ``file.py:123`` line anchor is left to drift."""
    text = doc.read_text()
    broken = []
    for path, symbol in sorted(set(_SYMBOL_ANCHOR.findall(text))):
        source = _anchor_file(path)
        if source is None or not _defines(source, symbol):
            broken.append(f"{path}::{symbol}")
    assert not broken, f"{doc.name}: unresolved anchors {broken}"
    assert not _LINE_ANCHOR.findall(text), \
        f"{doc.name}: use file.py::Symbol, not line numbers"


def test_architecture_map_uses_symbol_anchors():
    """The map anchors its stages by symbol, so the resolver above has
    something to check (a pattern that matched nothing would pass)."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    assert len(set(_SYMBOL_ANCHOR.findall(text))) >= 40


#: Docs that anchor their claims to source files: every ``src/repro/...``
#: or ``tests/...`` path they mention (links or inline code) must exist.
_ANCHORED_DOCS = ("ARCHITECTURE.md", "PERFORMANCE.md", "OBSERVABILITY.md",
                  "CORRECTNESS.md", "CI.md", "FAST_SIM.md", "GLOSSARY.md",
                  "DSE.md", "SERVICE.md")


@pytest.mark.parametrize("name", _ANCHORED_DOCS)
def test_docs_reference_only_real_modules(name):
    doc = REPO_ROOT / "docs" / name
    text = doc.read_text()
    paths = set(re.findall(r"(?:src/repro|tests)/[\w/]+\.py", text))
    assert paths, f"{name} should anchor claims to module paths"
    missing = [p for p in sorted(paths) if not (REPO_ROOT / p).is_file()]
    assert not missing, f"{name} names missing modules: {missing}"


@pytest.mark.parametrize("name", _ANCHORED_DOCS)
def test_docs_cross_link_each_other(name):
    """The deep-dive docs form a connected map: each links at least
    one of the others, so a reader can navigate between them."""
    text = (REPO_ROOT / "docs" / name).read_text()
    others = [other for other in _ANCHORED_DOCS if other != name]
    assert any(other in text for other in others), (
        f"{name} links none of {others}")


#: Top-level docs that name modules in prose and tables.
_ROOT_DOCS = ("README.md", "DESIGN.md", "GUIDELINES.md", "EXPERIMENTS.md")

_SOURCE_PATH = re.compile(r"(?<![\w/.])(?:src/repro|tests)/[\w/]+\.py")
_DOTTED_NAME = re.compile(r"(?<![\w/.])repro(?:\.\w+)+")


def _resolves(name: str) -> bool:
    """Import the longest importable prefix of ``name``, then ``getattr``
    the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


@pytest.mark.parametrize("name", _ROOT_DOCS)
def test_root_docs_name_only_real_modules(name):
    """Every ``src/repro/...py`` / ``tests/...py`` path and every dotted
    ``repro.x.y`` name in the top-level docs still exists."""
    text = (REPO_ROOT / name).read_text()
    missing = [path for path in sorted(set(_SOURCE_PATH.findall(text)))
               if not (REPO_ROOT / path).is_file()]
    unresolved = [dotted for dotted in sorted(set(_DOTTED_NAME.findall(text)))
                  if not _resolves(dotted)]
    assert not missing, f"{name} names missing files: {missing}"
    assert not unresolved, f"{name} names missing modules: {unresolved}"
