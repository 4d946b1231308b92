"""Engine invariant analyzer + lock-order sanitizer.

Where the query linter checks *queries* against the paper's semantics
(C001-C010), this package checks the *engine's own source* against the
invariants that keep its subsystems coherent (S001-S010), and its
runtime half (:mod:`repro.analysis.locktrack`) watches the serve
layer's lock dynamics for ordering cycles and held-across-blocking
hazards.

Entry points::

    python -m repro.analysis src/repro          # CLI (exit 0/1/2)
    REPRO_SANITIZE=1 python -m pytest           # runtime sanitizer

Library use::

    from repro.analysis import analyze_paths
    report = analyze_paths(["src/repro"])
    assert report.ok, report.format_text()

Exports resolve lazily (PEP 562): the serve layer imports
:mod:`repro.analysis.locktrack` on its hot path, and that import must
not drag the whole analyzer (its AST rules and the
:mod:`repro.diagnostics` core it shares with the query linter) into
every server process.

See ``docs/ANALYSIS.md`` for the rule catalogue and suppression syntax.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "AnalysisProject",
    "AnalysisReport",
    "Analyzer",
    "Finding",
    "LockOrderViolation",
    "LockTracker",
    "RULES",
    "Severity",
    "analyze_paths",
    "find_project_root",
]

_EXPORTS = {
    "AnalysisProject": "repro.analysis.project",
    "AnalysisReport": "repro.analysis.diagnostics",
    "Analyzer": "repro.analysis.engine",
    "Finding": "repro.analysis.diagnostics",
    "LockOrderViolation": "repro.analysis.locktrack",
    "LockTracker": "repro.analysis.locktrack",
    "RULES": "repro.analysis.rules",
    "Severity": "repro.analysis.diagnostics",
    "analyze_paths": "repro.analysis.engine",
    "find_project_root": "repro.analysis.project",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
