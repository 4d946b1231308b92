"""The linter front door.

:class:`Linter` binds a rule selection and configuration; the module-
level helpers (:func:`lint_sql`, :func:`lint_statement`,
:func:`lint_cube_spec`, :func:`lint_maintenance_spec`) cover the three
integration surfaces: the SQL executor / EXPLAIN, the programmatic cube
entry points, and maintenance plans.  :func:`require_clean` is what
``strict=True`` calls: it raises :class:`~repro.errors.LintError` when
any error-severity diagnostic is present.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Mapping, Sequence

from repro.aggregates.registry import AggregateRegistry, default_registry
from repro.core.decorations import Decoration
from repro.engine.table import Table
from repro.errors import LintError, SQLSyntaxError
from repro.lint.context import context_from_spec, contexts_from_statement
from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.rules import RULES
from repro.sql.ast_nodes import ExplainStmt, Statement
from repro.types import NullMode

__all__ = [
    "Linter",
    "lint_sql",
    "lint_statement",
    "lint_cube_spec",
    "lint_maintenance_spec",
    "require_clean",
    "split_statements",
]

#: Default Π(Ci+1) estimate above which C009 warns.
DEFAULT_BLOWUP_THRESHOLD = 1_000_000


class Linter:
    """A configured rule set.

    ``rules`` selects codes (default all) through
    :meth:`RULES.select <repro.diagnostics.RuleSet.select>`: an empty
    selection or an unknown code raises :class:`LintError` (``C000``)
    immediately so CI typos fail loudly.  ``blowup_threshold``
    configures C009.
    """

    def __init__(self, *, rules: Iterable[str] | None = None,
                 registry: AggregateRegistry | None = None,
                 blowup_threshold: int = DEFAULT_BLOWUP_THRESHOLD) -> None:
        self.rules = RULES.select(rules)
        self.registry = registry or default_registry
        self.blowup_threshold = blowup_threshold

    # -- SQL side ---------------------------------------------------------

    def lint_statement(self, statement: Any, *,
                       catalog: Any = None,
                       null_mode: NullMode = NullMode.ALL_VALUE,
                       span: tuple[int, int] | None = None,
                       statement_index: int | None = None) -> LintReport:
        """Lint one parsed statement (SELECT/UNION or EXPLAIN thereof).

        DML/DDL statements produce an empty report: the rules are about
        aggregation queries and plans.
        """
        report = LintReport()
        if isinstance(statement, ExplainStmt):
            statement = statement.statement
        if not isinstance(statement, Statement):
            return report
        for ctx in contexts_from_statement(
                statement, catalog=catalog, registry=self.registry,
                null_mode=null_mode,
                blowup_threshold=self.blowup_threshold,
                span=span, statement_index=statement_index):
            for selected in self.rules:
                report.extend(selected.fn(ctx))
        return report

    def lint_sql(self, text: str, *,
                 catalog: Any = None,
                 null_mode: NullMode = NullMode.ALL_VALUE) -> LintReport:
        """Lint a string of one or more ``;``-separated statements.

        Statements that fail to parse contribute a ``C000`` error
        diagnostic carrying the parser's message and the statement's
        source span, so a lint run never raises on bad input.
        """
        from repro.sql.parser import parse_any
        report = LintReport()
        for index, (start, end, statement_text) in enumerate(
                split_statements(text)):
            try:
                statement = parse_any(statement_text,
                                      registry=self.registry)
            except SQLSyntaxError as error:
                report.append(Diagnostic(
                    code="C000", severity=Severity.ERROR,
                    message=f"parse error: {error}", rule="parse-error",
                    span=(start, end), statement_index=index))
                continue
            report.extend(self.lint_statement(
                statement, catalog=catalog, null_mode=null_mode,
                span=(start, end), statement_index=index))
        return report

    # -- programmatic side ------------------------------------------------

    def lint_cube_spec(self, table: Table | None, dims: Sequence,
                       aggregates: Sequence, *,
                       kind: str = "cube",
                       plain: Sequence[str] = (),
                       rollup: Sequence[str] = (),
                       cube: Sequence[str] = (),
                       algorithm: Any = "auto",
                       null_mode: NullMode = NullMode.ALL_VALUE,
                       cardinalities: Mapping[str, int] | None = None,
                       decorations: Sequence[Decoration] = (),
                       maintenance_ops: Sequence[str] = ("select",),
                       retain_base: bool = True) -> LintReport:
        """Lint a programmatic cube specification (pre-execution)."""
        ctx = context_from_spec(
            table, dims, aggregates, kind=kind, plain=plain,
            rollup=rollup, cube=cube, algorithm=algorithm,
            null_mode=null_mode, registry=self.registry,
            cardinalities=cardinalities, decorations=decorations,
            maintenance_ops=maintenance_ops, retain_base=retain_base,
            blowup_threshold=self.blowup_threshold)
        report = LintReport()
        for selected in self.rules:
            report.extend(selected.fn(ctx))
        return report


# -- module-level conveniences -------------------------------------------------


def lint_sql(text: str, *, catalog: Any = None,
             rules: Iterable[str] | None = None,
             null_mode: NullMode = NullMode.ALL_VALUE,
             registry: AggregateRegistry | None = None,
             blowup_threshold: int = DEFAULT_BLOWUP_THRESHOLD) -> LintReport:
    """Lint SQL text; see :meth:`Linter.lint_sql`."""
    return Linter(rules=rules, registry=registry,
                  blowup_threshold=blowup_threshold).lint_sql(
        text, catalog=catalog, null_mode=null_mode)


def lint_statement(statement: Any, *, catalog: Any = None,
                   rules: Iterable[str] | None = None,
                   null_mode: NullMode = NullMode.ALL_VALUE,
                   registry: AggregateRegistry | None = None,
                   blowup_threshold: int = DEFAULT_BLOWUP_THRESHOLD
                   ) -> LintReport:
    """Lint a parsed statement; see :meth:`Linter.lint_statement`."""
    return Linter(rules=rules, registry=registry,
                  blowup_threshold=blowup_threshold).lint_statement(
        statement, catalog=catalog, null_mode=null_mode)


def lint_cube_spec(table: Table | None, dims: Sequence,
                   aggregates: Sequence, **kwargs: Any) -> LintReport:
    """Lint a programmatic cube spec; see :meth:`Linter.lint_cube_spec`."""
    rules = kwargs.pop("rules", None)
    registry = kwargs.pop("registry", None)
    threshold = kwargs.pop("blowup_threshold", DEFAULT_BLOWUP_THRESHOLD)
    return Linter(rules=rules, registry=registry,
                  blowup_threshold=threshold).lint_cube_spec(
        table, dims, aggregates, **kwargs)


def lint_maintenance_spec(table: Table | None, dims: Sequence,
                          aggregates: Sequence, *,
                          kind: str = "cube",
                          operations: Sequence[str] = ("insert", "delete"),
                          retain_base: bool = True,
                          registry: AggregateRegistry | None = None,
                          rules: Iterable[str] | None = None) -> LintReport:
    """Lint a planned :class:`~repro.maintenance.MaterializedCube`.

    ``operations`` lists the mutations the plan must survive; Section
    6's delete-holistic asymmetry (C002) is the headline rule here.
    """
    return Linter(rules=rules, registry=registry).lint_cube_spec(
        table, dims, aggregates, kind=kind,
        maintenance_ops=tuple(operations), retain_base=retain_base)


def require_clean(report: LintReport) -> LintReport:
    """Raise :class:`~repro.errors.LintError` on error-severity findings.

    Returns the report unchanged when it is ok (warnings pass), so
    callers can chain.
    """
    errors = report.errors()
    if errors:
        raise LintError(errors)
    return report


_STRING = re.compile(r"'(?:[^']|'')*'")


def split_statements(text: str) -> list[tuple[int, int, str]]:
    """Split SQL text on ``;`` outside string literals.

    Returns ``(start, end, statement_text)`` character spans; blank
    statements (stray semicolons, trailing whitespace) are dropped.
    """
    # blank out string literals so their semicolons don't split
    masked = _STRING.sub(lambda m: " " * len(m.group(0)), text)
    # strip SQL line comments in the mask as well
    masked = re.sub(r"--[^\n]*",
                    lambda m: " " * len(m.group(0)), masked)
    out: list[tuple[int, int, str]] = []
    start = 0
    for position, char in enumerate(masked):
        if char == ";":
            chunk = text[start:position + 1]
            if chunk.strip(" \t\n\r;"):
                out.append((start, position + 1, chunk))
            start = position + 1
    tail = text[start:]
    if tail.strip(" \t\n\r;"):
        out.append((start, len(text), tail))
    return out
