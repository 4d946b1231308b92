"""The analyzer driver: rule selection, suppressions, reporting.

:class:`Analyzer` runs a selection of the S-rules over an
:class:`~repro.analysis.project.AnalysisProject` and returns an
:class:`~repro.analysis.diagnostics.AnalysisReport`.  The selection
goes through :meth:`RULES.select <repro.diagnostics.RuleSet.select>`,
shared with the linter: an empty selection or an unknown code raises
:class:`~repro.errors.AnalysisError` up front rather than silently
running a subset.

Suppressions
------------
A finding is suppressed by the comment ``# repro: allow-<CODE>`` on the
anchored line or the line directly above it::

    import numpy  # repro: allow-S005

    # repro: allow-S006
    except Exception:
        pass

The suppression names one specific code: there is deliberately no
blanket ``allow-all`` form, so every exemption stays auditable by
grepping for the rule it exempts.  In markdown targets (the catalogue
docs) the same token works inside an HTML comment.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.diagnostics import AnalysisReport, Finding, Severity
from repro.analysis.project import AnalysisProject
from repro.analysis.rules import RULES

__all__ = ["Analyzer", "analyze_paths"]

#: The reserved code reported for target files that fail to parse.
PARSE_ERROR_CODE = "S000"


def _suppression_token(code: str) -> str:
    return f"repro: allow-{code}"


class Analyzer:
    """Run selected S-rules over a project (all rules by default)."""

    def __init__(self, *, rules: Optional[Iterable[str]] = None) -> None:
        self.rules = RULES.select(rules)

    def analyze(self, project: AnalysisProject) -> AnalysisReport:
        report = AnalysisReport()
        for file in project.files:
            if file.tree is None:
                report.append(Finding(
                    code=PARSE_ERROR_CODE, severity=Severity.ERROR,
                    rule="parse-error",
                    message=f"cannot parse: {file.parse_error}",
                    why="unparseable source cannot be analyzed, so "
                        "every invariant in this file is unchecked",
                    path=file.rel, line=1))
        for selected in self.rules:
            for finding in selected.fn(project):
                if not self._suppressed(project, finding):
                    report.append(finding)
        return report

    def _suppressed(self, project: AnalysisProject,
                    finding: Finding) -> bool:
        if not finding.path or finding.line <= 0:
            return False
        token = _suppression_token(finding.code)
        for text in self._anchor_context(project, finding):
            if token in text:
                return True
        return False

    @staticmethod
    def _anchor_context(project: AnalysisProject,
                        finding: Finding) -> list[str]:
        """The anchored line and the line above it."""
        lines: Optional[list[str]] = None
        for file in project.files:
            if file.rel == finding.path:
                lines = file.lines
                break
        if lines is None and finding.path in project.docs:
            lines = project.docs[finding.path].splitlines()
        if lines is None and project.errors_file is not None \
                and project.errors_file.rel == finding.path:
            lines = project.errors_file.lines
        if lines is None:
            candidate = project.root / finding.path
            if candidate.is_file():
                lines = candidate.read_text(
                    encoding="utf-8").splitlines()
        if not lines:
            return []
        index = finding.line - 1
        out = []
        if 0 <= index < len(lines):
            out.append(lines[index])
        if 0 <= index - 1 < len(lines):
            out.append(lines[index - 1])
        return out


def analyze_paths(paths: Iterable[Path | str], *,
                  root: Path | str | None = None,
                  rules: Optional[Iterable[str]] = None) -> AnalysisReport:
    """Convenience one-shot: build the project, run the analyzer."""
    analyzer = Analyzer(rules=rules)
    project = AnalysisProject(paths, root=root)
    return analyzer.analyze(project)
