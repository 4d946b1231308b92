"""Command-line interface: ``python -m repro.lint``.

Usage::

    python -m repro.lint queries.sql more.sql     # lint SQL files
    python -m repro.lint - < queries.sql          # lint stdin
    python -m repro.lint examples/*.py --self-check
    python -m repro.lint --list-rules
    python -m repro.lint queries.sql --rules C001,C009 --format json

Exit codes (stable, for CI gating):

- ``0`` -- no error-severity diagnostics (warnings allowed);
- ``1`` -- at least one error-severity diagnostic (including parse
  errors in ``.sql`` input);
- ``2`` -- usage problems (unknown flag, unreadable file, unknown or
  empty rule selection, ``.py`` input without ``--self-check``).

The flag surface, exit codes and output path are shared with
``python -m repro.analysis`` via :func:`repro.diagnostics.run_cli`.

``--self-check`` mode scans Python sources for embedded SQL string
literals (the repo's examples) and lints every statement it can parse;
fragments that don't parse are skipped, since example files legitimately
contain partial SQL.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from typing import Iterable, Optional, Sequence

from repro.diagnostics import run_cli
from repro.errors import CLIUsageError
from repro.lint.diagnostics import LintReport
from repro.lint.engine import DEFAULT_BLOWUP_THRESHOLD, Linter
from repro.lint.rules import RULES

__all__ = ["main"]

_SQL_LITERAL = re.compile(r"^\s*(SELECT|EXPLAIN)\b", re.IGNORECASE)


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=int,
                        default=DEFAULT_BLOWUP_THRESHOLD,
                        help="C009 cube-size blow-up threshold "
                             "(default %(default)s cells)")
    parser.add_argument("--self-check", action="store_true",
                        help="scan .py files for embedded SQL literals "
                             "and lint those (parse failures skipped)")


def _extract_sql_literals(source: str) -> list[str]:
    """SQL-looking string constants in a Python source file."""
    out: list[str] = []
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return out
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
            if _SQL_LITERAL.match(text) and "FROM" in text.upper():
                out.append(text)
    return out


def _lint_py_self_check(linter: Linter, source: str) -> LintReport:
    report = LintReport()
    for literal in _extract_sql_literals(source):
        sub = linter.lint_sql(literal)
        # embedded strings may be fragments; parse failures (C000) are
        # not findings about the example, drop them
        report.extend(d for d in sub if d.code != "C000")
    return report


def _lint_path(linter: Linter, path: str,
               self_check: bool) -> tuple[LintReport, str]:
    if path == "-":
        return linter.lint_sql(sys.stdin.read()), "<stdin>"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise CLIUsageError(f"cannot read {path}: {error}") from None
    if not path.endswith(".py"):
        return linter.lint_sql(source), path
    if not self_check:
        raise CLIUsageError(f"{path} is a Python file; pass --self-check "
                            "to lint its embedded SQL")
    return _lint_py_self_check(linter, source), path


def _reports(args: argparse.Namespace, codes: Optional[list[str]]
             ) -> Iterable[tuple[LintReport, str]]:
    linter = Linter(rules=codes, blowup_threshold=args.threshold)
    return (_lint_path(linter, path, args.self_check)
            for path in args.paths)


def main(argv: Sequence[str] | None = None) -> int:
    return run_cli(
        argv, prog="python -m repro.lint",
        description="Static semantic linter for CUBE/ROLLUP queries "
                    "(rules grounded in Gray et al. 1996).",
        paths_help=".sql files (or '-' for stdin); .py files with "
                   "--self-check",
        no_paths="no input files (use '-' for stdin)",
        rules=RULES, add_arguments=_add_arguments, reports=_reports)
