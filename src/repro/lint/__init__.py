"""Cube semantic linter: static diagnostics for CUBE/ROLLUP queries and
plans, grounded in the paper's own correctness arguments.

The paper's validity conditions are all *static* properties of a query
or plan: super-aggregation from the core requires distributive or
algebraic functions (Section 5), MAX/MIN turn holistic under DELETE
maintenance (Section 6), decorations must be functionally dependent on
a grouping column (Section 3.5), and the NULL-based minimalist ALL
design is ambiguous whenever a grouping column holds real NULLs
(Section 3.4).  This package checks them *before* execution and emits
structured :class:`~repro.lint.diagnostics.Diagnostic` records.

Three surfaces:

- ``strict=True`` on the cube operators and
  :class:`~repro.sql.SQLSession` lints pre-execution and raises
  :class:`~repro.errors.LintError` on error-severity findings;
- ``EXPLAIN`` output includes the diagnostics alongside the plan;
- ``python -m repro.lint file.sql`` is the CI-gating CLI (see
  :mod:`repro.lint.cli` for exit codes).

Severity, the report, the rule registry and the CLI skeleton are shared
with :mod:`repro.analysis` through :mod:`repro.diagnostics`.
"""

from repro.lint.diagnostics import Diagnostic, LintReport, Severity
from repro.lint.engine import (
    Linter,
    lint_cube_spec,
    lint_maintenance_spec,
    lint_sql,
    lint_statement,
    require_clean,
    split_statements,
)
from repro.lint.rules import RULES

__all__ = [
    "Diagnostic",
    "LintReport",
    "Linter",
    "RULES",
    "Severity",
    "lint_cube_spec",
    "lint_maintenance_spec",
    "lint_sql",
    "lint_statement",
    "require_clean",
    "split_statements",
]
