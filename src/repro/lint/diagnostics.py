"""Structured diagnostics emitted by the cube semantic linter.

A :class:`Diagnostic` is one finding: a stable rule code (``C001``...),
a severity, a human-readable message, the column names involved, an
optional source span (character offsets into the linted SQL text), and a
suggested fix.  :class:`LintReport` is the shared
:class:`repro.diagnostics.Report` ordered severity first, the form the
CLI, EXPLAIN, and strict mode use.

The paper's correctness arguments are static properties of the query or
plan (Sections 3.4, 3.5, 5, and 6); each diagnostic names the section it
is grounded in so a reader can go from a finding straight to the
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.diagnostics import Report, Severity

__all__ = ["Severity", "Diagnostic", "LintReport"]


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

    code: str                       # stable rule code, e.g. "C001"
    severity: Severity
    message: str
    rule: str = ""                  # rule slug, e.g. "holistic-merge"
    paper_section: str = ""         # e.g. "Section 5"
    columns: tuple[str, ...] = ()   # column names involved, if any
    span: tuple[int, int] | None = None  # char offsets in the SQL source
    statement_index: int | None = None   # which statement in a multi-stmt file
    suggestion: str = ""            # suggested fix, may be empty

    def format_line(self, *, location: str = "") -> str:
        """One-line rendering: ``C001 error: message (fix: ...)``."""
        prefix = f"{location}: " if location else ""
        where = ""
        if self.statement_index is not None:
            where = f"stmt {self.statement_index + 1}: "
        fix = f" (fix: {self.suggestion})" if self.suggestion else ""
        return (f"{prefix}{where}{self.code} {self.severity}: "
                f"{self.message}{fix}")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "rule": self.rule,
            "paper_section": self.paper_section,
            "columns": list(self.columns),
            "suggestion": self.suggestion,
        }
        if self.span is not None:
            out["span"] = list(self.span)
        if self.statement_index is not None:
            out["statement_index"] = self.statement_index
        return out


class LintReport(Report[Diagnostic]):
    """The diagnostics of one lint run, worst severity first."""

    records_key = "diagnostics"
    location_key = "file"

    @staticmethod
    def sort_key(diagnostic: Diagnostic) -> tuple:
        return (diagnostic.severity.rank, diagnostic.code)
