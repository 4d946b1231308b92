"""The diagnostics core shared by ``repro.lint`` and ``repro.analysis``:
each pack's rule registry agrees with its documented catalogue, and
every repro CLI keeps its exit code when its reader has gone away."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from analysisutil import write_tree
from repro.diagnostics import EXIT_FINDINGS, EXIT_OK

ROOT = Path(__file__).resolve().parents[1]

_TABLE_ROW = re.compile(
    r"^\| ([A-Z]\d{3}) \| `([a-z0-9-]+)` \| ([a-z /]+) \|")


def _catalogue_rows(doc: str) -> dict[str, str]:
    return {code: slug for code, (slug, _) in _catalogue(doc).items()}


def _catalogue(doc: str) -> dict[str, tuple[str, str]]:
    """code -> (slug, severity) from a docs rule table."""
    text = (ROOT / "docs" / doc).read_text(encoding="utf-8")
    return {match.group(1): (match.group(2),
                             match.group(3).replace(" ", ""))
            for match in map(_TABLE_ROW.match, text.splitlines())
            if match}


@pytest.mark.parametrize("doc, module", [
    ("LINTING.md", "repro.lint.rules"),
    ("ANALYSIS.md", "repro.analysis.rules"),
])
def test_rule_table_matches_registry(doc, module):
    rules = importlib.import_module(module).RULES
    documented = _catalogue_rows(doc)
    assert set(rules) - set(documented) == set(), \
        f"registered but missing from docs/{doc}"
    assert set(documented) - set(rules) == set(), \
        f"documented in docs/{doc} but not registered"
    assert documented == {code: rule.slug for code, rule in rules.items()}


@pytest.mark.parametrize("doc, module", [
    ("LINTING.md", "repro.lint.rules"),
    ("ANALYSIS.md", "repro.analysis.rules"),
])
def test_rule_table_severities_match_registry(doc, module):
    """A rule that names a catalogue severity (the engine rules do; the
    query rules name a paper section instead) names the one its docs
    row gives -- ``--list-rules`` prints it."""
    rules = importlib.import_module(module).RULES
    documented = _catalogue(doc)
    named = {code: rule.severity for code, rule in rules.items()
             if rule.severity}
    assert named == {code: documented[code][1] for code in named}


SLOPPY_TREE = {
    "ROADMAP.md": "marker\n",
    "src/repro/compute/sloppy.py": """
        def run(rows):
            try:
                return len(rows)
            except:
                return 0
    """,
}


@pytest.mark.parametrize("case, expected", [
    ("lint-clean", EXIT_OK),
    ("lint-list-rules", EXIT_OK),
    ("analysis-s006", EXIT_FINDINGS),
    ("obs-empty-log", EXIT_OK),
])
def test_closed_stdout_keeps_exit_code(tmp_path, case, expected):
    """A reader that quits early (``| head``) must neither change the
    exit code a CI gate sees nor leak a traceback."""
    write_tree(tmp_path, SLOPPY_TREE)
    (tmp_path / "clean.sql").write_text(
        "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model, Year;\n",
        encoding="utf-8")
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    argv = {
        "lint-clean": ["repro.lint", tmp_path / "clean.sql"],
        "lint-list-rules": ["repro.lint", "--list-rules"],
        "analysis-s006": ["repro.analysis", tmp_path / "src",
                          "--project-root", tmp_path, "--rules", "S006"],
        "obs-empty-log": ["repro.obs", "--log", tmp_path / "empty.jsonl"],
    }[case]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", *map(str, argv)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": str(ROOT / "src")},
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == expected, proc.stderr
    assert proc.stderr == ""
