"""Command-line interface: ``python -m repro.analysis``.

Usage::

    python -m repro.analysis src/repro            # analyze the engine
    python -m repro.analysis src/repro benchmarks # multiple targets
    python -m repro.analysis src/repro --rules S002,S003 --format json
    python -m repro.analysis --list-rules

Exit codes (stable, for CI gating -- shared with the query linter
via :func:`repro.diagnostics.run_cli`):

- ``0`` -- no error-severity findings (warnings allowed);
- ``1`` -- at least one error-severity finding (including parse
  errors, reported as S000);
- ``2`` -- usage problems (unknown flag, nonexistent path, unknown or
  empty rule selection), reported without a traceback.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.engine import Analyzer
from repro.analysis.project import AnalysisProject
from repro.analysis.rules import RULES
from repro.diagnostics import run_cli

__all__ = ["main"]


def _add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--project-root", default=None, metavar="DIR",
                        help="project root for docs/tests cross-"
                             "references (default: auto-detected from "
                             "the first path)")


def _reports(args: argparse.Namespace, codes: Optional[list[str]]
             ) -> list[tuple[AnalysisReport, str]]:
    analyzer = Analyzer(rules=codes)
    project = AnalysisProject(args.paths, root=args.project_root)
    return [(analyzer.analyze(project), " ".join(args.paths))]


def main(argv: Sequence[str] | None = None) -> int:
    return run_cli(
        argv, prog="python -m repro.analysis",
        description="Engine invariant analyzer: AST-based checks "
                    "S001-S010 over this repository's own source.",
        paths_help="files or directories to analyze "
                   "(e.g. src/repro benchmarks)",
        no_paths="no paths to analyze (try: src/repro)",
        rules=RULES, add_arguments=_add_arguments, reports=_reports,
        tally=True)
