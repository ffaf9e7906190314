"""Reachability gate: no function, class or method in ``src/repro`` may be
reachable only from tests.

The analysis is a name-based ``ast`` call graph run to a fixpoint:

* **Roots** — every module-level statement in ``src/repro`` except imports
  and ``__all__`` (registry tables, ``PROTOCOLS``, CLI wiring), the name
  ``main`` (``repro.cli.main``) and every file under ``examples/`` and
  ``benchmarks/``.
* **Reach** — a name a piece of code loads as an attribute, imports or
  spells as an identifier-like string (``getattr``) reaches every
  definition of that name, so overrides and ``process(...)`` targets
  count.  A bare-name load reaches only module-level definitions, and a
  store reaches nothing: a local variable or an attribute assignment that
  shares a method's name does not reach the method.  A reached function
  reaches every name it loads; a reached class reaches its bases,
  decorators, class-level statements and dunder methods, plus the methods
  that override a base outside ``src/repro`` (framework callbacks such as
  ``http.client.HTTPConnection.connect``).

A name collision can make dead code look reached, never reached code look
dead.  What is left over must be deleted or carry an :data:`ALLOWLIST`
entry with one of four :data:`REASONS` and its evidence; see
docs/CI.md, "Reachability gate".
"""

import ast
import builtins
import importlib
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
ROOT_FILES = [path for folder in ("examples", "benchmarks")
              for path in sorted((REPO_ROOT / folder).rglob("*.py"))]

REASONS = {
    "reference": "a reference implementation a test compares against",
    "test-support": "a generator or writer that tests import",
    "paper": "a paper-named capability with no other implementation",
    "observer": "a small accessor a named test uses to read reachable state",
}

#: qualified name -> (reason, evidence: a test id or ``DESIGN.md: <text>``)
ALLOWLIST: Dict[str, Tuple[str, str]] = {
    "check.differential.random_config": (
        "test-support", "tests/test_lt_pin.py::test_random_seeds_are_bit_identical"),
    "dse.pareto.pareto_front": (
        "reference", "tests/test_dse_properties.py::TestParetoFront::"
                     "test_archive_agrees_with_batch_front"),
    "platforms.loader.save_config": (
        "test-support", "tests/test_loader.py::TestRoundTrip::test_file_round_trip"),
    "traffic.trace.TraceRecord.to_line": (
        "paper", "DESIGN.md: (statistical, trace-driven, and"),
    "traffic.trace.TraceRecord.from_line": (
        "paper", "DESIGN.md: (statistical, trace-driven, and"),
    "traffic.trace.save_trace": (
        "paper", "DESIGN.md: (statistical, trace-driven, and"),
    "traffic.trace.load_trace": (
        "paper", "DESIGN.md: (statistical, trace-driven, and"),
    "traffic.trace.TracePlayer": (
        "paper", "DESIGN.md: (statistical, trace-driven, and"),
    "traffic.trace.TraceRecorder": (
        "paper", "DESIGN.md: (statistical, trace-driven, and"),
    "service.client.ServiceClient.health": (
        "observer", "tests/test_service_smoke.py::TestSocketFrontEnd::"
                    "test_http_health_reports_protocol_and_fleet"),
    "service.client.ServiceClient.stream_events": (
        "observer", "tests/test_service_smoke.py::TestStreams::"
                    "test_event_stream_follows_to_terminal_state"),
    "service.protocol.decode_line": (
        "observer", "tests/test_service_smoke.py::TestStreams::"
                    "test_event_stream_follows_to_terminal_state"),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes: Iterable[ast.AST]) -> set:
    """What a piece of code reaches, as ``(name, member)`` pairs: bare-name
    loads reach module-level definitions only (``member`` false);
    attribute loads, imports and identifier-like strings reach methods
    too.  Stores reach nothing."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Load):
                    found.add((sub.id, False))
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.ctx, ast.Load):
                    found.add((sub.attr, True))
            elif isinstance(sub, ast.alias):
                found.add((sub.name.rsplit(".", 1)[-1], True))
            elif isinstance(sub, ast.Constant) and \
                    isinstance(sub.value, str) and sub.value.isidentifier():
                found.add((sub.value, True))
    return found


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or src.name


def _dotted(expr: ast.AST) -> str:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        head = _dotted(expr.value)
        return head and f"{head}.{expr.attr}"
    return ""


def _external(base: ast.AST, imports: Dict[str, str]):
    """The object a class base names when it lives outside ``src/repro``
    (``http.client.HTTPConnection``, ``enum.Enum``, ``Exception``)."""
    head, __, rest = _dotted(base).partition(".")
    if head in imports:
        dotted = imports[head] + (f".{rest}" if rest else "")
    elif head and not rest and hasattr(builtins, head):
        return getattr(builtins, head)
    else:
        return None
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr, None)
        return target
    return None


class Definition:
    """One function, class or method and what reaching it reaches."""

    def __init__(self, module: str, qualname: str, node: ast.AST,
                 imports: Dict[str, str]) -> None:
        self.qualname = f"{module}.{qualname}"
        self.module = module
        #: A module-level function or class (a bare name reaches it).
        self.top = "." not in qualname
        self.node = node
        self.imports = imports

    def reaches(self) -> Tuple[set, List[ast.AST]]:
        """Names reached, and member definitions reached directly."""
        node = self.node
        if not isinstance(node, ast.ClassDef):
            return _names([node]), []
        statements = [s for s in node.body if not isinstance(s, _DEFS)]
        names = _names(node.bases + node.keywords + node.decorator_list
                       + statements)
        frameworks = [_external(base, self.imports) for base in node.bases]
        members = [s for s in node.body if isinstance(s, _DEFS) and (
            (s.name.startswith("__") and s.name.endswith("__"))
            or any(hasattr(base, s.name) for base in frameworks if base))]
        return names, members


def analyse(src: Path, root_files: Iterable[Path] = (),
            root_names: Iterable[str] = ("main",)):
    """``(defined, unreached)``: every definition's qualified name mapped
    to its module, and the unreached ones not nested in an unreached
    class."""
    definitions: List[Definition] = []
    by_node: Dict[int, Definition] = {}
    aliases: Dict[str, set] = {}
    roots = {(name, True) for name in root_names}

    def collect(module, prefix, body, imports):
        for stmt in body:
            if isinstance(stmt, _DEFS):
                definition = Definition(module, prefix + stmt.name, stmt,
                                        imports)
                definitions.append(definition)
                by_node[id(stmt)] = definition
                if isinstance(stmt, ast.ClassDef):
                    collect(module, f"{prefix}{stmt.name}.", stmt.body,
                            imports)

    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imports: Dict[str, str] = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                imports.update((a.asname or a.name.split(".")[0],
                                a.name if a.asname else a.name.split(".")[0])
                               for a in stmt.names)
            elif isinstance(stmt, ast.ImportFrom) and not stmt.level:
                imports.update((a.asname or a.name, f"{stmt.module}.{a.name}")
                               for a in stmt.names)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.alias) and sub.asname:
                aliases.setdefault(sub.asname, set()).add(
                    sub.name.rsplit(".", 1)[-1])
        collect(_module_name(path, src), "", tree.body, imports)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom) + _DEFS):
                continue
            targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                continue
            roots |= _names([stmt])
    for path in root_files:
        roots |= _names([ast.parse(path.read_text(), filename=str(path))])

    by_name: Dict[str, List[Definition]] = {}
    for definition in definitions:
        by_name.setdefault(definition.node.name, []).append(definition)
    seen, reached = set(), set()
    pending = list(roots)

    def reach(definition):
        if id(definition) in reached:
            return
        reached.add(id(definition))
        names, members = definition.reaches()
        pending.extend(names)
        for member in members:
            reach(by_node[id(member)])

    while pending:
        name, member = mention = pending.pop()
        if mention in seen:
            continue
        seen.add(mention)
        pending.extend((alias, True) for alias in aliases.get(name, ()))
        for definition in by_name.get(name, ()):
            if member or definition.top:
                reach(definition)

    dead = {d.qualname for d in definitions if id(d) not in reached}
    unreached = {name for name in dead
                 if not any(name.startswith(outer + ".") for outer in dead)}
    return {d.qualname: d.module for d in definitions}, unreached


def module_of(qualname: str, modules: Iterable[str]) -> str:
    """The longest of ``modules`` that prefixes ``qualname``."""
    owners = [m for m in modules if qualname.startswith(m + ".")]
    return max(owners, key=len) if owners else qualname.rsplit(".", 1)[0]


def problems(module: str, defined: Dict[str, str], unreached: set,
             allowlist: Dict[str, Tuple[str, str]]) -> List[str]:
    """Gate failures in ``module``: unlisted dead code and stale entries."""
    found = [f"{name}: reached only from tests; delete it or allowlist it"
             for name in sorted(unreached)
             if defined[name] == module and name not in allowlist]
    modules = set(defined.values())
    for name in sorted(allowlist):
        owner = defined[name] if name in defined else module_of(name, modules)
        if owner != module:
            continue
        if name not in defined:
            found.append(f"{name}: allowlisted but no longer exists")
        elif name not in unreached:
            found.append(f"{name}: allowlisted but now reached; "
                         "drop the entry")
    return found


_SOURCE_MODULES = sorted(_module_name(path, SRC) for path in SRC.rglob("*.py"))
_ALLOWLIST_MODULES = {module_of(name, _SOURCE_MODULES) for name in ALLOWLIST}


@pytest.fixture(scope="module")
def repro_graph():
    return analyse(SRC, ROOT_FILES)


@pytest.mark.parametrize(
    "module", sorted(set(_SOURCE_MODULES) | _ALLOWLIST_MODULES))
def test_reached_beyond_tests(module, repro_graph):
    defined, unreached = repro_graph
    failures = problems(module, defined, unreached, ALLOWLIST)
    assert not failures, "\n".join(failures)


def _defines_test(test_id: str) -> bool:
    path, *scope = test_id.split("::")
    body = ast.parse((REPO_ROOT / path).read_text()).body
    for name in scope:
        found = [node for node in body if isinstance(node, _DEFS)
                 and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("name", sorted(ALLOWLIST))
def test_allowlist_entry_has_a_reason_and_live_evidence(name):
    reason, evidence = ALLOWLIST[name]
    assert reason in REASONS
    if evidence.startswith("DESIGN.md: "):
        assert evidence[len("DESIGN.md: "):] in \
            (REPO_ROOT / "DESIGN.md").read_text()
    else:
        assert evidence.startswith("tests/test_") and _defines_test(evidence)


# -- the gate's own logic, on planted module trees ---------------------------

_PLANTED = {
    "__init__.py": "",
    "shapes.py": """
import http.client


class Shape:
    def area(self):
        return 0

    def __repr__(self):
        return helper()


class Square(Shape):
    def area(self):
        return 4

    def unused_method(self):
        return 1


class Connection(http.client.HTTPConnection):
    def connect(self):
        pass

    def unused_hook(self):
        pass


class Tally:
    def count(self):
        return 0

    def total(self):
        return 1


def helper():
    return "shape"


def tally():
    count = 3
    board = Tally()
    board.count = count
    return getattr(board, "total")()


def planted():
    return 2


def example_only():
    return 3


TOTAL = sum(shape.area() for shape in [Square()])
CONNECTION = Connection
TALLY = tally()
""",
}


@pytest.fixture
def planted_tree(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    for name, text in _PLANTED.items():
        (package / name).write_text(text)
    example = tmp_path / "example.py"
    example.write_text("from pkg.shapes import example_only\nexample_only()\n")
    return package, example


def test_planted_unreachable_function_is_reported_by_name(planted_tree):
    package, example = planted_tree
    defined, unreached = analyse(package, [example])
    assert unreached == {"shapes.planted", "shapes.Square.unused_method",
                         "shapes.Connection.unused_hook", "shapes.Tally.count"}
    assert problems("shapes", defined, unreached, {}) == [
        f"{name}: reached only from tests; delete it or allowlist it"
        for name in ("shapes.Connection.unused_hook", "shapes.Square.unused_method",
                     "shapes.Tally.count", "shapes.planted")]


def test_override_of_a_reached_method_is_not_reported(planted_tree):
    package, example = planted_tree
    __, unreached = analyse(package, [example])
    for reached in ("shapes.Shape.area", "shapes.Square.area",
                    "shapes.Shape.__repr__", "shapes.helper",
                    "shapes.Connection.connect", "shapes.example_only",
                    "shapes.Tally.total"):
        assert reached not in unreached


def test_stale_allowlist_entries_fail_with_their_names(planted_tree):
    package, example = planted_tree
    defined, unreached = analyse(package, [example])
    allowlist = {name: ("observer", "") for name in (
        "shapes.planted", "shapes.Square.unused_method",
        "shapes.Connection.unused_hook", "shapes.Tally.count",
        "shapes.helper", "shapes.gone")}
    assert problems("shapes", defined, unreached, allowlist) == [
        "shapes.gone: allowlisted but no longer exists",
        "shapes.helper: allowlisted but now reached; drop the entry"]
