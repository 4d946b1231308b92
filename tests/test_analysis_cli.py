"""The ``python -m repro.analysis`` CLI: exit codes, output formats,
and graceful (traceback-free) failure on bad usage."""

import json
import subprocess
import sys

import pytest

from analysisutil import write_tree
from repro.analysis.cli import main
from repro.diagnostics import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE

CLEAN_SRC = {
    "ROADMAP.md": "marker\n",
    "src/repro/compute/quiet.py": """
        def run(rows):
            return len(rows)
    """,
}

DIRTY_SRC = {
    "ROADMAP.md": "marker\n",
    "src/repro/compute/sloppy.py": """
        def run(rows):
            try:
                return len(rows)
            except:
                return 0
    """,
}


def run_cli(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_SRC)
        assert run_cli([tmp_path / "src"]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_error_finding_exits_one(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY_SRC)
        assert run_cli([tmp_path / "src"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "S006" in out
        assert "1 error(s)" in out

    def test_nonexistent_path_exits_two_without_traceback(
            self, tmp_path, capsys):
        assert run_cli([tmp_path / "no-such-dir"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out

    def test_no_paths_exits_two(self, capsys):
        assert run_cli([]) == EXIT_USAGE
        assert "no paths" in capsys.readouterr().err

    @pytest.mark.parametrize("selection", ["", ","])
    def test_empty_rule_selection_exits_two(self, tmp_path, capsys,
                                            selection):
        write_tree(tmp_path, CLEAN_SRC)
        code = run_cli([tmp_path / "src", "--rules", selection])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "no rules" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_rule_code_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_SRC)
        code = run_cli([tmp_path / "src", "--rules", "S999"])
        assert code == EXIT_USAGE
        assert "S999" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self, tmp_path):
        write_tree(tmp_path, CLEAN_SRC)
        assert run_cli([tmp_path / "src", "--frobnicate"]) == EXIT_USAGE


class TestOutput:
    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY_SRC)
        code = run_cli([tmp_path / "src", "--format", "json"])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["ok"] is False
        [finding] = [f for f in payload["findings"]
                     if f["code"] == "S006"]
        assert finding["severity"] == "error"
        assert finding["line"] > 0

    def test_json_format_clean(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_SRC)
        assert run_cli([tmp_path / "src", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["ok"] is True

    def test_rule_selection_scopes_the_run(self, tmp_path, capsys):
        write_tree(tmp_path, DIRTY_SRC)
        # S006 would fire, but only S005 was requested
        code = run_cli([tmp_path / "src", "--rules", "s005"])
        assert code == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_list_rules_prints_catalogue(self, capsys):
        assert run_cli(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for code in ("S001", "S005", "S010"):
            assert code in out


class TestModuleEntrypoint:
    def test_python_dash_m_nonexistent_path(self, tmp_path):
        """The real subprocess surface: exit 2, stderr one-liner, and
        no traceback leaking out of ``python -m repro.analysis``."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             str(tmp_path / "ghost")],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_USAGE
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_python_dash_m_clean_run(self, tmp_path):
        write_tree(tmp_path, CLEAN_SRC)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis",
             str(tmp_path / "src"), "--project-root", str(tmp_path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "clean" in proc.stdout
