"""The engine invariant rules S001-S010.

Where the query linter checks *queries* against the paper's semantic
arguments (C001-C010), this module checks the *engine's own source*
against the invariants that keep its subsystems coherent: cancellation
coverage, catalogue/doc agreement, exception taxonomy discipline, lock
hygiene, chaos-test coverage, and registry round-trips.  Every rule is
a pure function of an :class:`~repro.analysis.project.AnalysisProject`
returning :class:`~repro.analysis.diagnostics.Finding` records with
``file:line`` anchors and a ``why`` naming the contract at stake.

=====  =======================  =========  ===========================
code   slug                     severity   invariant
=====  =======================  =========  ===========================
S001   cancellation-coverage    error      every concrete CubeAlgorithm
                                           polls the cancellation/
                                           deadline checkpoint
S002   metric-catalogue         error      metrics emitted through the
                                           registry match
                                           docs/OBSERVABILITY.md
S003   span-catalogue           error      trace.span() names match the
                                           documented span catalogue
S004   exception-taxonomy       warn/err   raised exceptions belong to
                                           repro.errors and are covered
                                           by test_error_taxonomy
S005   numpy-guard              error      numpy imports only inside
                                           the guarded columnar backend
S006   hot-path-except          error      no bare/blanket-swallowed
                                           except on compute/serve
S007   lock-context-manager     error      serve locks acquired via
                                           context managers only
S008   lock-blocking-io         error      no blocking I/O while
                                           holding a serve lock
S009   chaos-matrix             error      injection points exist and
                                           are exercised by the chaos
                                           test matrix
S010   registry-roundtrip       error      algorithm/aggregate
                                           registries round-trip
                                           through their lookup tables
=====  =======================  =========  ===========================

A rule must not mutate the project or its ASTs.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.diagnostics import Finding, Severity
from repro.analysis.project import AnalysisProject, SourceFile
from repro.diagnostics import RuleSet
from repro.errors import AnalysisError

__all__ = ["RULES"]

RULES = RuleSet(listing="{code}  {slug:<22} ({severity}) {summary}",
                error=AnalysisError)


# -- AST helpers ---------------------------------------------------------------


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name for a Name/Attribute chain ('' if other)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _terminal(node: ast.AST) -> str:
    """The last identifier of a Name/Attribute chain ('' if other)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _str_const(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _doc_section(lines: list[str], header: str) -> list[tuple[int, str]]:
    """(1-based line number, text) pairs of one ``## header`` section."""
    out: list[tuple[int, str]] = []
    inside = False
    for number, text in enumerate(lines, start=1):
        if text.startswith("## "):
            inside = text[3:].strip().lower().startswith(header.lower())
            continue
        if inside:
            out.append((number, text))
    return out


def _table_first_cell_tokens(
        section: list[tuple[int, str]],
        pattern: re.Pattern) -> dict[str, int]:
    """Backticked tokens matching ``pattern`` in the first cell of each
    markdown table row of a section -> first line they appear on."""
    out: dict[str, int] = {}
    for number, text in section:
        stripped = text.strip()
        if not stripped.startswith("|"):
            continue
        cells = stripped.split("|")
        if len(cells) < 2:
            continue
        first = cells[1]
        if set(first.strip()) <= {"-", " ", ":"}:
            continue  # separator row
        for token in re.findall(r"`([^`]+)`", first):
            for name in _expand_doc_token(token):
                if pattern.fullmatch(name) and name not in out:
                    out[name] = number
    return out


def _expand_doc_token(token: str) -> list[str]:
    """Expand the ``a.b/c/d`` doc shorthand into a.b, a.c, a.d."""
    if "/" not in token:
        return [token]
    head, *rest = token.split("/")
    if "." not in head:
        return [token]
    prefix = head.rsplit(".", 1)[0]
    return [head] + [f"{prefix}.{part}" for part in rest]


_BUILTIN_EXCEPTIONS = {
    name for name in dir(__import__("builtins"))
    if name.endswith(("Error", "Exception", "Exit", "Interrupt"))
}

#: Builtin raises that are idiomatic protocol and never flagged
#: (AttributeError: PEP 562 module __getattr__; NotImplementedError:
#: abstract methods; the rest are control flow, not failures).
_EXEMPT_BUILTIN_RAISES = {"NotImplementedError", "StopIteration",
                         "SystemExit", "KeyboardInterrupt",
                         "AssertionError", "AttributeError"}


# -- S001 ----------------------------------------------------------------------


@RULES.rule("S001", "cancellation-coverage", severity="error",
            summary="every concrete CubeAlgorithm polls the "
                    "cancellation/deadline checkpoint")
def s001_cancellation_coverage(
        project: AnalysisProject) -> Iterator[Finding]:
    for file in project.parsed():
        module_has = any(_terminal(call.func) == "checkpoint"
                         for call in _calls(file.tree))
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {_terminal(base) for base in node.bases}
            if "CubeAlgorithm" not in bases:
                continue
            concrete = any(isinstance(item, ast.FunctionDef)
                           and item.name == "_compute"
                           for item in node.body)
            if not concrete:
                continue
            class_has = any(_terminal(call.func) == "checkpoint"
                            for call in _calls(node))
            if class_has or module_has:
                continue
            yield Finding(
                code="S001", severity=Severity.ERROR,
                rule="cancellation-coverage",
                message=(f"CubeAlgorithm subclass {node.name!r} never "
                         "polls rctx.checkpoint() in its compute path"),
                why=("deadlines and Ctrl-C stop queries cooperatively; "
                     "an algorithm that never polls the checkpoint "
                     "cannot be cancelled or timed out"),
                suggestion=("call repro.resilience.context.checkpoint() "
                            "at every lattice-node/partition/chunk "
                            "boundary"),
                path=file.rel, line=node.lineno)


# -- S002 ----------------------------------------------------------------------

_METRIC_NAME = re.compile(r"repro_[a-z0-9_]+")
_METRIC_KINDS = {"counter", "gauge", "histogram"}


def _emitted_metrics(
        project: AnalysisProject) -> dict[str, tuple[str, int]]:
    out: dict[str, tuple[str, int]] = {}
    for file in project.parsed():
        for call in _calls(file.tree):
            func = call.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _METRIC_KINDS
                    and _terminal(func.value) == "REGISTRY"):
                continue
            if not call.args:
                continue
            name = _str_const(call.args[0])
            if name is not None and name not in out:
                out[name] = (file.rel, call.lineno)
    return out


@RULES.rule("S002", "metric-catalogue", severity="error",
            summary="metrics emitted via repro.obs.metrics match "
                    "docs/OBSERVABILITY.md (both directions)")
def s002_metric_catalogue(project: AnalysisProject) -> Iterator[Finding]:
    emitted = _emitted_metrics(project)
    if not emitted:
        return  # the emitting module is not part of this run
    documented = _table_first_cell_tokens(
        _doc_section(project.doc_lines(), "Metrics"), _METRIC_NAME)
    doc_path = project.OBSERVABILITY_DOC
    for name, (path, line) in sorted(emitted.items()):
        if name not in documented:
            yield Finding(
                code="S002", severity=Severity.ERROR,
                rule="metric-catalogue",
                message=(f"metric {name!r} is emitted but missing from "
                         f"the {doc_path} catalogue"),
                why=("the metrics table is the operator contract; an "
                     "undocumented series is invisible to dashboards "
                     "and silently drifts"),
                suggestion=f"add a row for {name!r} to the Metrics table",
                path=path, line=line)
    for name, line in sorted(documented.items()):
        if name not in emitted:
            yield Finding(
                code="S002", severity=Severity.ERROR,
                rule="metric-catalogue",
                message=(f"metric {name!r} is documented but never "
                         "emitted by any analyzed instrumentation site"),
                why=("catalogue drift in the opposite direction: "
                     "operators build alerts on series that do not "
                     "exist"),
                suggestion=("remove the row or restore the emitting "
                            "call"),
                path=doc_path, line=line)


# -- S003 ----------------------------------------------------------------------

_SPAN_NAME = re.compile(r"[a-z_]+(?:\.[a-z_]+)+")


def _emitted_spans(
        project: AnalysisProject) -> dict[str, tuple[str, int]]:
    out: dict[str, tuple[str, int]] = {}
    for file in project.parsed():
        for call in _calls(file.tree):
            func = call.func
            is_span = (isinstance(func, ast.Name) and func.id == "span") \
                or (isinstance(func, ast.Attribute) and func.attr == "span"
                    and _terminal(func.value) == "trace")
            if not is_span or not call.args:
                continue
            name = _str_const(call.args[0])
            if name is not None and name not in out:
                out[name] = (file.rel, call.lineno)
    return out


@RULES.rule("S003", "span-catalogue", severity="error",
            summary="trace.span() names match the documented span catalogue "
                    "(both directions)")
def s003_span_catalogue(project: AnalysisProject) -> Iterator[Finding]:
    emitted = _emitted_spans(project)
    if not emitted:
        return
    documented = _table_first_cell_tokens(
        _doc_section(project.doc_lines(), "Tracing"), _SPAN_NAME)
    doc_path = project.OBSERVABILITY_DOC
    for name, (path, line) in sorted(emitted.items()):
        if name not in documented:
            yield Finding(
                code="S003", severity=Severity.ERROR,
                rule="span-catalogue",
                message=(f"span {name!r} is emitted but missing from "
                         f"the {doc_path} span catalogue"),
                why=("EXPLAIN ANALYZE renders these names verbatim; an "
                     "uncatalogued span is an undocumented plan row"),
                suggestion=f"add a row for {name!r} to the span table",
                path=path, line=line)
    for name, line in sorted(documented.items()):
        if name not in emitted:
            yield Finding(
                code="S003", severity=Severity.ERROR,
                rule="span-catalogue",
                message=(f"span {name!r} is documented but never opened "
                         "by any analyzed trace.span() site"),
                why="stale catalogue rows mislead anyone reading traces",
                suggestion="remove the row or restore the span site",
                path=doc_path, line=line)


# -- S004 ----------------------------------------------------------------------


def _raised_names(
        file: SourceFile) -> Iterator[tuple[str, int]]:
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        name = _terminal(target)
        if name:
            yield name, node.lineno


@RULES.rule("S004", "exception-taxonomy", severity="warning/error",
            summary="raised exceptions belong to repro.errors and are "
                    "covered by test_error_taxonomy")
def s004_exception_taxonomy(
        project: AnalysisProject) -> Iterator[Finding]:
    taxonomy = project.error_class_names()
    if not taxonomy:
        return  # no taxonomy module in this project
    coverage = project.taxonomy_test_text()
    seen_uncovered: set[str] = set()
    for file in project.parsed():
        in_serve = "serve" in file.rel.split("/")
        for name, line in _raised_names(file):
            if name in taxonomy:
                if coverage and name not in coverage \
                        and name not in seen_uncovered:
                    seen_uncovered.add(name)
                    yield Finding(
                        code="S004", severity=Severity.ERROR,
                        rule="exception-taxonomy",
                        message=(f"{name} is raised here but never "
                                 "referenced by test_error_taxonomy"),
                        why=("the taxonomy test proves every public "
                             "exception has a real raising code path; "
                             "an uncovered class can silently become "
                             "unreachable or wrongly parented"),
                        suggestion=("add a trigger for it to "
                                    "tests/test_error_taxonomy.py"),
                        path=file.rel, line=line)
                continue
            if name in _BUILTIN_EXCEPTIONS:
                if name in _EXEMPT_BUILTIN_RAISES:
                    continue
                severity = (Severity.ERROR if in_serve
                            else Severity.WARNING)
                yield Finding(
                    code="S004", severity=severity,
                    rule="exception-taxonomy",
                    message=(f"builtin {name} raised on a library code "
                             "path instead of a repro.errors class"),
                    why=("callers catch ReproError to handle every "
                         "engine failure; builtin raises escape that "
                         "net and crash the serve layer's error "
                         "mapping"),
                    suggestion=("raise the matching repro.errors "
                                "subclass instead"),
                    path=file.rel, line=line)
                continue
            if name.endswith("Error"):
                yield Finding(
                    code="S004", severity=Severity.ERROR,
                    rule="exception-taxonomy",
                    message=(f"exception class {name} is raised but not "
                             "part of the repro.errors taxonomy"),
                    why=("every public exception must be importable "
                         "from repro.errors so one except ReproError "
                         "covers the library"),
                    suggestion=("define it in src/repro/errors.py and "
                                "re-export it here"),
                    path=file.rel, line=line)


# -- S005 ----------------------------------------------------------------------

#: Modules allowed to import numpy (behind an ImportError guard).
_NUMPY_ALLOWED = ("compute/columnar/batch.py",)


def _imports_numpy(node: ast.stmt) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy"
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "numpy"
    return False


def _guards_import_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = ([_terminal(handler.type)]
             if not isinstance(handler.type, ast.Tuple)
             else [_terminal(item) for item in handler.type.elts])
    return any(name in ("ImportError", "ModuleNotFoundError", "Exception")
               for name in names)


@RULES.rule("S005", "numpy-guard", severity="error",
            summary="no top-level numpy import outside the guarded columnar "
                    "backend")
def s005_numpy_guard(project: AnalysisProject) -> Iterator[Finding]:
    for file in project.parsed():
        allowed = file.rel.endswith(_NUMPY_ALLOWED)
        for node in file.tree.body:
            if _imports_numpy(node):
                yield Finding(
                    code="S005", severity=Severity.ERROR,
                    rule="numpy-guard",
                    message=("unguarded top-level numpy import; the "
                             "no-numpy CI leg cannot import this "
                             "module"),
                    why=("a numpy-free interpreter is a supported "
                         "deployment (every cube takes the row path); "
                         "one unguarded import breaks every consumer "
                         "of the module"),
                    suggestion=("wrap in try/except ImportError inside "
                                "the columnar backend, or import "
                                "lazily"),
                    path=file.rel, line=node.lineno)
            elif isinstance(node, ast.Try):
                guarded = any(_guards_import_error(h)
                              for h in node.handlers)
                for stmt in node.body:
                    if not _imports_numpy(stmt):
                        continue
                    if not guarded:
                        yield Finding(
                            code="S005", severity=Severity.ERROR,
                            rule="numpy-guard",
                            message=("numpy import in a try block that "
                                     "does not catch ImportError"),
                            why="the no-numpy CI leg still crashes here",
                            suggestion="except ImportError and leave "
                                       "the row path to run",
                            path=file.rel, line=stmt.lineno)
                    elif not allowed:
                        yield Finding(
                            code="S005", severity=Severity.ERROR,
                            rule="numpy-guard",
                            message=("numpy import outside the guarded "
                                     "columnar backend "
                                     f"({', '.join(_NUMPY_ALLOWED)})"),
                            why=("keeping the optional dependency in "
                                 "one seam is what makes the no-numpy "
                                 "row-path fallback auditable"),
                            suggestion=("route array access through "
                                        "repro.compute.columnar.batch."
                                        "numpy_backend()"),
                            path=file.rel, line=stmt.lineno)


# -- S006 ----------------------------------------------------------------------


def _swallows_everything(handler: ast.ExceptHandler) -> bool:
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [_terminal(item) for item in handler.type.elts]
    elif handler.type is not None:
        names = [_terminal(handler.type)]
    if not any(name in ("Exception", "BaseException") for name in names):
        return False
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis)
        for stmt in handler.body)


@RULES.rule("S006", "hot-path-except", severity="error",
            summary="no bare except / swallowed except Exception on compute "
                    "and serve hot paths")
def s006_hot_path_except(project: AnalysisProject) -> Iterator[Finding]:
    for file in project.in_package("compute", "serve"):
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield Finding(
                    code="S006", severity=Severity.ERROR,
                    rule="hot-path-except",
                    message="bare except: on a compute/serve hot path",
                    why=("bare except catches cancellation, injected "
                         "faults, and KeyboardInterrupt, defeating "
                         "the resilience layer's cooperative stop"),
                    suggestion="catch the specific ReproError subclass",
                    path=file.rel, line=node.lineno)
            elif _swallows_everything(node):
                yield Finding(
                    code="S006", severity=Severity.ERROR,
                    rule="hot-path-except",
                    message=("except Exception: pass swallows every "
                             "failure on a hot path"),
                    why=("budget breaches, chaos faults, and timeouts "
                         "must propagate to their recovery sites, not "
                         "vanish"),
                    suggestion=("handle or re-raise; at minimum record "
                                "the failure"),
                    path=file.rel, line=node.lineno)


# -- S007 ----------------------------------------------------------------------


def _released_in_finally(try_node: ast.Try) -> bool:
    for stmt in try_node.finalbody:
        for call in _calls(stmt):
            if _terminal(call.func) == "release":
                return True
    return False


@RULES.rule("S007", "lock-context-manager", severity="error",
            summary="serve-layer locks are acquired via context managers, "
                    "never bare .acquire()")
def s007_lock_context_manager(
        project: AnalysisProject) -> Iterator[Finding]:
    for file in project.in_package("serve"):
        parents = _parent_map(file.tree)
        for call in _calls(file.tree):
            if _terminal(call.func) != "acquire":
                continue
            # climb to the enclosing statement
            stmt: ast.AST = call
            while stmt in parents and not isinstance(stmt, ast.stmt):
                stmt = parents[stmt]
            safe = False
            node, child = stmt, None
            while node in parents:
                parent = parents[node]
                if isinstance(parent, ast.Try) and node in parent.body \
                        and _released_in_finally(parent):
                    safe = True
                    break
                node = parent
            if not safe and isinstance(stmt, ast.stmt):
                parent = parents.get(stmt)
                for field_name in ("body", "orelse", "finalbody"):
                    body = getattr(parent, field_name, [])
                    if stmt in body:
                        index = body.index(stmt)
                        if index + 1 < len(body):
                            nxt = body[index + 1]
                            if isinstance(nxt, ast.Try) \
                                    and _released_in_finally(nxt):
                                safe = True
                        break
            if not safe:
                yield Finding(
                    code="S007", severity=Severity.ERROR,
                    rule="lock-context-manager",
                    message=(".acquire() without a try/finally release "
                             "in the serve layer"),
                    why=("an exception between acquire and release "
                         "leaves the shared cache/catalog lock held "
                         "forever and deadlocks every later request"),
                    suggestion="use 'with lock:' (or try/finally "
                               "release)",
                    path=file.rel, line=call.lineno)


# -- S008 ----------------------------------------------------------------------

_BLOCKING_ATTRS = {"recv", "recv_into", "send", "sendall", "accept",
                   "connect", "makefile", "readline", "read_message",
                   "write_message"}


def _is_lockish(item: ast.withitem) -> bool:
    expr = item.context_expr
    if isinstance(expr, ast.Call):
        name = _terminal(expr.func)
        if name in ("read", "write"):
            return "lock" in _dotted(expr.func.value).lower() \
                if isinstance(expr.func, ast.Attribute) else False
        return "lock" in name.lower()
    name = _terminal(expr)
    return "lock" in name.lower() or name == "_cond"


def _blocking_calls(node: ast.With) -> Iterator[ast.Call]:
    for call in _calls(node):
        func = call.func
        if isinstance(func, ast.Attribute) \
                and func.attr in _BLOCKING_ATTRS:
            yield call
        elif isinstance(func, ast.Name) \
                and (func.id in _BLOCKING_ATTRS or func.id == "open"):
            yield call


@RULES.rule("S008", "lock-blocking-io", severity="error",
            summary="no blocking socket/file I/O while holding a "
                    "serve-layer lock")
def s008_lock_blocking_io(project: AnalysisProject) -> Iterator[Finding]:
    for file in project.in_package("serve"):
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.With):
                continue
            if not any(_is_lockish(item) for item in node.items):
                continue
            for call in _blocking_calls(node):
                what = _terminal(call.func)
                yield Finding(
                    code="S008", severity=Severity.ERROR,
                    rule="lock-blocking-io",
                    message=(f"blocking call {what}() while holding a "
                             "serve-layer lock"),
                    why=("a stalled client would hold the shared lock "
                         "for its socket timeout, starving every other "
                         "connection (lock-held-across-recv)"),
                    suggestion=("do the I/O outside the lock; lock "
                                "only the shared-state mutation"),
                    path=file.rel, line=call.lineno)


# -- S009 ----------------------------------------------------------------------


def _injection_points(
        project: AnalysisProject
) -> tuple[Optional[tuple[str, int]], dict[str, int]]:
    """((file, line) of the INJECTION_POINTS literal, point->line)."""
    for file in project.parsed():
        for node in file.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = {_terminal(t) for t in node.targets}
            if "INJECTION_POINTS" not in targets:
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)):
                points = {}
                for element in node.value.elts:
                    name = _str_const(element)
                    if name is not None:
                        points[name] = node.lineno
                return (file.rel, node.lineno), points
    return None, {}


@RULES.rule("S009", "chaos-matrix", severity="error",
            summary="every chaos injection point is declared and exercised "
                    "by the chaos test matrix")
def s009_chaos_matrix(project: AnalysisProject) -> Iterator[Finding]:
    anchor, points = _injection_points(project)
    if anchor is None:
        return  # chaos module not part of this run
    chaos_tests = project.chaos_test_text()
    emitted: dict[str, tuple[str, int]] = {}
    for file in project.parsed():
        for call in _calls(file.tree):
            name = _terminal(call.func)
            if name == "inject" and call.args:
                point = _str_const(call.args[0])
                if point is not None and point not in emitted:
                    emitted[point] = (file.rel, call.lineno)
            elif name == "extra_cells":
                emitted.setdefault("budget_pressure",
                                   (file.rel, call.lineno))
    for point, (path, line) in sorted(emitted.items()):
        if point not in points:
            yield Finding(
                code="S009", severity=Severity.ERROR,
                rule="chaos-matrix",
                message=(f"injection at undeclared chaos point "
                         f"{point!r} (INJECTION_POINTS has "
                         f"{sorted(points)})"),
                why=("ChaosInjector raises on unknown points at "
                     "runtime; the declaration is the contract the "
                     "test matrix enumerates"),
                suggestion="add the point to INJECTION_POINTS",
                path=path, line=line)
    for point, _line in sorted(points.items()):
        if f'"{point}"' not in chaos_tests \
                and f"'{point}'" not in chaos_tests \
                and f"{point}=" not in chaos_tests:
            yield Finding(
                code="S009", severity=Severity.ERROR,
                rule="chaos-matrix",
                message=(f"chaos point {point!r} has no exercising "
                         "test in the chaos matrix "
                         "(tests/test_chaos*, test_serve_chaos, "
                         "test_resilience*)"),
                why=("an untested fault path is indistinguishable "
                     "from a broken one; the matrix must fire every "
                     "declared point"),
                suggestion=("add a seeded test that injects it and "
                            "asserts recovery"),
                path=anchor[0], line=anchor[1])


# -- S010 ----------------------------------------------------------------------


def _class_name_attrs(
        project: AnalysisProject) -> dict[str, Optional[str]]:
    """class name -> literal ``name`` class attribute (None if absent)."""
    out: dict[str, Optional[str]] = {}
    for file in project.parsed():
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            literal: Optional[str] = None
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = {_terminal(t) for t in stmt.targets}
                    if "name" in targets:
                        literal = _str_const(stmt.value)
                elif isinstance(stmt, ast.AnnAssign) \
                        and _terminal(stmt.target) == "name" \
                        and stmt.value is not None:
                    literal = _str_const(stmt.value)
            out[node.name] = literal
    return out


def _imported_names(tree: ast.AST) -> set[str]:
    """Names bound by ``import``/``from ... import`` in a module."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add((alias.asname or alias.name).split(".")[0])
    return out


@RULES.rule("S010", "registry-roundtrip", severity="error",
            summary="algorithm and aggregate registries round-trip through "
                    "their lookup tables")
def s010_registry_roundtrip(
        project: AnalysisProject) -> Iterator[Finding]:
    class_names = _class_name_attrs(project)
    for file in project.parsed():
        imported = _imported_names(file.tree)
        # ALGORITHMS = {"key": Class, ...}
        for node in file.tree.body:
            value = getattr(node, "value", None)
            targets = []
            if isinstance(node, ast.Assign):
                targets = [_terminal(t) for t in node.targets]
            elif isinstance(node, ast.AnnAssign):
                targets = [_terminal(node.target)]
            if "ALGORITHMS" not in targets \
                    or not isinstance(value, ast.Dict):
                continue
            for key_node, value_node in zip(value.keys, value.values):
                key = _str_const(key_node) if key_node is not None \
                    else None
                cls = _terminal(value_node)
                if key is None or not cls:
                    continue
                if cls not in class_names:
                    if cls in imported:
                        # imported from outside the analyzed slice --
                        # resolvable, but its .name attr is not
                        # visible here, so nothing to round-trip
                        continue
                    yield Finding(
                        code="S010", severity=Severity.ERROR,
                        rule="registry-roundtrip",
                        message=(f"ALGORITHMS[{key!r}] references "
                                 f"unknown class {cls}"),
                        why=("the optimizer resolves names through "
                             "this table; a dangling entry is a "
                             "KeyError at plan time"),
                        suggestion="import/define the class or drop "
                                   "the entry",
                        path=file.rel, line=value_node.lineno)
                elif class_names[cls] != key:
                    have = class_names[cls]
                    yield Finding(
                        code="S010", severity=Severity.ERROR,
                        rule="registry-roundtrip",
                        message=(f"ALGORITHMS[{key!r}] -> {cls}.name "
                                 f"== {have!r}; the registry does not "
                                 "round-trip"),
                        why=("EXPLAIN, metrics labels, and degradation "
                             "guards compare algorithm.name against "
                             "registry keys; a mismatch mislabels "
                             "every span and breaks the external-"
                             "algorithm check"),
                        suggestion=f"set {cls}.name = {key!r}",
                        path=file.rel, line=value_node.lineno)
        # registry.register("NAME", Factory) duplicate / dangling checks
        seen: dict[str, int] = {}
        for call in _calls(file.tree):
            if _terminal(call.func) != "register" \
                    or len(call.args) < 2:
                continue
            name = _str_const(call.args[0])
            factory = _terminal(call.args[1])
            if name is None or not factory:
                continue
            key = name.upper()
            if key in seen:
                yield Finding(
                    code="S010", severity=Severity.ERROR,
                    rule="registry-roundtrip",
                    message=(f"aggregate name {name!r} registered "
                             f"twice (first at line {seen[key]})"),
                    why=("the registry raises on duplicate names at "
                         "import time unless replace=True; a silent "
                         "duplicate shadows the first factory"),
                    suggestion="drop one registration or rename",
                    path=file.rel, line=call.lineno)
            else:
                seen[key] = call.lineno
            if factory[0].isupper() and factory not in class_names \
                    and factory not in imported:
                yield Finding(
                    code="S010", severity=Severity.ERROR,
                    rule="registry-roundtrip",
                    message=(f"aggregate {name!r} registered with "
                             f"unknown factory {factory}"),
                    why=("create() would raise at first use; the "
                         "lookup table must round-trip"),
                    suggestion="import/define the factory class",
                    path=file.rel, line=call.lineno)
