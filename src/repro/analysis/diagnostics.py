"""Structured findings emitted by the engine invariant analyzer.

A :class:`Finding` is one violation of an engine invariant: a stable
rule code (``S001``...), a severity, a human-readable message stating
*what* is wrong, a ``why`` stating which engine contract the invariant
protects, and a precise ``path:line`` anchor.  :class:`AnalysisReport`
is the shared :class:`repro.diagnostics.Report` ordered by location,
the form the CLI and CI gate use.

Severity semantics are shared with the query linter
(:class:`repro.diagnostics.Severity`): ``ERROR`` findings fail the CI
gate (exit code 1), ``WARNING`` findings are reported but do not block,
``INFO`` findings are advisory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.diagnostics import Report, Severity

__all__ = ["Finding", "AnalysisReport", "Severity"]


@dataclass(frozen=True)
class Finding:
    """One invariant violation."""

    code: str                  # stable rule code, e.g. "S001"
    severity: Severity
    message: str               # what is wrong
    why: str = ""              # which engine contract this protects
    path: str = ""             # project-root-relative file path
    line: int = 0              # 1-based anchor line (0 = whole file)
    rule: str = ""             # rule slug, e.g. "cancellation-coverage"
    suggestion: str = ""       # suggested fix, may be empty

    @property
    def anchor(self) -> str:
        if not self.path:
            return "<project>"
        return f"{self.path}:{self.line}" if self.line else self.path

    def format_line(self, *, location: str = "") -> str:
        """One-line rendering; the finding's own :attr:`anchor` says
        where it is, so the report's ``location`` is not repeated."""
        fix = f" (fix: {self.suggestion})" if self.suggestion else ""
        why = f" [why: {self.why}]" if self.why else ""
        return (f"{self.anchor}: {self.code} {self.severity}: "
                f"{self.message}{why}{fix}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "why": self.why,
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "suggestion": self.suggestion,
        }


class AnalysisReport(Report[Finding]):
    """The findings of one analyzer run, in file and line order."""

    records_key = "findings"
    location_key = "target"

    @staticmethod
    def sort_key(finding: Finding) -> tuple:
        return (finding.path, finding.line, finding.code)
