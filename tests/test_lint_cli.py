"""The ``python -m repro.lint`` CLI: exit codes, formats, rule filters."""

import json

import pytest

from repro.diagnostics import EXIT_FINDINGS as EXIT_LINT_ERRORS
from repro.diagnostics import EXIT_OK, EXIT_USAGE
from repro.errors import LintError
from repro.lint import Linter, lint_sql
from repro.lint.cli import main

CLEAN_SQL = "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model, Year;\n"
BAD_SQL = ("SELECT Model, GROUPING(Units) FROM Sales GROUP BY Model;\n"
           "SELECT FROBNICATE(x) FROM T GROUP BY y;\n")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = _write(tmp_path, "q.sql", CLEAN_SQL)
        assert main([path]) == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_lint_errors_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.sql", BAD_SQL)
        assert main([path]) == EXIT_LINT_ERRORS
        out = capsys.readouterr().out
        assert "C005" in out and "C010" in out

    def test_parse_error_exits_one(self, tmp_path, capsys):
        path = _write(tmp_path, "broken.sql", "SELECT FROM FROM;")
        assert main([path]) == EXIT_LINT_ERRORS
        assert "C000" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["/nonexistent/q.sql"]) == EXIT_USAGE

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, "q.sql", CLEAN_SQL)
        assert main([path, "--rules", "C999"]) == EXIT_USAGE

    def test_unknown_rule_reads_as_a_usage_error(self, tmp_path, capsys):
        # worded like repro.analysis, not as a lint failure; the library
        # still raises LintError
        path = _write(tmp_path, "q.sql", CLEAN_SQL)
        assert main([path, "--rules", "C001,C999"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: unknown rule code(s): C999; known codes are C001, ")
        with pytest.raises(LintError):
            Linter(rules=["C999"])

    def test_empty_rule_selection_is_usage_error(self, tmp_path, capsys):
        # --rules "" would run zero rules and report a hollow "clean";
        # the shared CLI core makes it an explicit usage error
        path = _write(tmp_path, "q.sql", CLEAN_SQL)
        assert main([path, "--rules", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "no rules" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("run", [
        lambda: Linter(rules=[]),
        lambda: lint_sql(CLEAN_SQL, rules=[]),
    ], ids=["Linter", "lint_sql"])
    def test_empty_rule_selection_raises_in_library(self, run):
        # the library APIs share the CLI's rule: no hollow "clean"
        with pytest.raises(LintError) as info:
            run()
        assert [d.code for d in info.value.diagnostics] == ["C000"]

    def test_lowercase_rule_codes_are_accepted(self, tmp_path, capsys):
        path = _write(tmp_path, "q.sql", CLEAN_SQL)
        assert main([path, "--rules", "c001"]) == EXIT_OK

    def test_py_without_self_check_is_usage_error(self, tmp_path, capsys):
        path = _write(tmp_path, "ex.py", "x = 1\n")
        assert main([path]) == EXIT_USAGE


class TestModes:
    def test_json_format(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.sql", BAD_SQL)
        assert main([path, "--format", "json"]) == EXIT_LINT_ERRORS
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"C005", "C010"} <= codes
        assert payload["ok"] is False
        assert payload["errors"] >= 2

    def test_rules_filter(self, tmp_path, capsys):
        path = _write(tmp_path, "bad.sql", BAD_SQL)
        assert main([path, "--rules", "C005",
                     "--format", "json"]) == EXIT_LINT_ERRORS
        payload = json.loads(capsys.readouterr().out)
        assert {d["code"] for d in payload["diagnostics"]} == {"C005"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for code in ("C001", "C002", "C003", "C004", "C005",
                     "C006", "C007", "C008", "C009", "C010"):
            assert code in out

    def test_self_check_lints_embedded_sql(self, tmp_path, capsys):
        source = ('QUERY = """SELECT Model, GROUPING(Units) '
                  'FROM Sales GROUP BY Model"""\n')
        path = _write(tmp_path, "example.py", source)
        assert main([path, "--self-check"]) == EXIT_LINT_ERRORS
        assert "C005" in capsys.readouterr().out

    def test_self_check_skips_fragments(self, tmp_path, capsys):
        # non-parsing string constants are not findings about the file
        source = 'DOC = "SELECT ... FROM somewhere"\nx = 1\n'
        path = _write(tmp_path, "example.py", source)
        assert main([path, "--self-check"]) == EXIT_OK

    def test_threshold_flag_drives_c009(self, tmp_path, capsys):
        sql = ("SELECT a, b, SUM(x) FROM T GROUP BY CUBE a, b;")
        path = _write(tmp_path, "q.sql", sql)
        # without a catalog the rule has no cardinalities, stays silent,
        # but the flag must at least be accepted
        assert main([path, "--threshold", "10"]) == EXIT_OK

    def test_multiple_files_worst_exit_wins(self, tmp_path, capsys):
        good = _write(tmp_path, "good.sql", CLEAN_SQL)
        bad = _write(tmp_path, "bad.sql", BAD_SQL)
        assert main([good, bad]) == EXIT_LINT_ERRORS
