"""The three lint surfaces wired end-to-end: strict cube entry points,
the strict SQL session + EXPLAIN diagnostics, and the shell toggle."""

import pytest
from lintutil import sales_catalog, sales_table

from repro.core.cube import agg, cube, grouping_sets_op, rollup
from repro.errors import LintError
from repro.lint import RULES, Linter
from repro.maintenance.materialized import MaterializedCube
from repro.shell import Shell
from repro.sql.executor import SQLSession


class TestRuleCatalogue:
    def test_at_least_eight_distinct_rules(self):
        """The acceptance bar: >= 8 distinct paper-grounded rule codes."""
        assert len(RULES) >= 8
        assert len({r.code for r in RULES.values()}) == len(RULES)
        for registered in RULES.values():
            assert registered.paper_section
            assert registered.summary

    @pytest.mark.parametrize("code", ["C001", "c001"])
    def test_selected_rule_runs_case_insensitively(self, code):
        report = Linter(rules=[code]).lint_cube_spec(
            sales_table(), ["Model", "Year"], [agg("MEDIAN", "Units")],
            algorithm="from-core")
        assert report.codes() == {"C001"}


class TestStrictCube:
    def test_holistic_through_merge_algorithm_raises(self):
        with pytest.raises(LintError) as info:
            cube(sales_table(), ["Model", "Year"],
                 [agg("MEDIAN", "Units")],
                 algorithm="from-core", strict=True)
        assert any(d.code == "C001" for d in info.value.diagnostics)

    def test_valid_query_untouched_by_strict(self):
        relaxed = cube(sales_table(), ["Model", "Year"],
                       [agg("SUM", "Units")])
        checked = cube(sales_table(), ["Model", "Year"],
                       [agg("SUM", "Units")], strict=True)
        assert checked.rows == relaxed.rows

    def test_non_strict_default_never_raises(self):
        out = cube(sales_table(), ["Model", "Year"],
                   [agg("MEDIAN", "Units")], algorithm="from-core")
        assert len(out) > 0

    def test_rollup_strict(self):
        with pytest.raises(LintError):
            rollup(sales_table(), ["Model", "Year"],
                   [agg("MEDIAN", "Units")],
                   algorithm="pipesort", strict=True)

    def test_grouping_sets_strict(self):
        out = grouping_sets_op(sales_table(), ["Model", "Year"],
                               [["Model"], ["Year"]],
                               [agg("SUM", "Units")], strict=True)
        assert len(out) > 0
        with pytest.raises(LintError):
            grouping_sets_op(sales_table(), ["Model", "Year"],
                             [["Model"], ["Year"]],
                             [agg("MEDIAN", "Units")],
                             algorithm="from-core", strict=True)

    def test_warnings_do_not_block_strict(self):
        # MEDIAN under auto is only a C008 warning: strict still runs
        out = cube(sales_table(), ["Model", "Year"],
                   [agg("MEDIAN", "Units")], strict=True)
        assert len(out) > 0


class TestStrictSql:
    def test_strict_session_raises_on_error(self):
        catalog, _ = sales_catalog()
        session = SQLSession(catalog, strict=True)
        with pytest.raises(LintError) as info:
            session.execute(
                "SELECT Model, GROUPING(Units) FROM Sales GROUP BY Model")
        assert any(d.code == "C005" for d in info.value.diagnostics)

    def test_strict_session_runs_valid_queries(self):
        catalog, _ = sales_catalog()
        relaxed = SQLSession(catalog).execute(
            "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model, Year")
        strict = SQLSession(catalog, strict=True).execute(
            "SELECT Model, SUM(Units) FROM Sales GROUP BY CUBE Model, Year")
        assert strict.rows == relaxed.rows

    def test_default_session_does_not_lint(self):
        catalog, _ = sales_catalog()
        session = SQLSession(catalog)
        # plan-time failure, not a LintError -- lint is opt-in
        from repro.errors import SQLPlanError
        with pytest.raises(SQLPlanError):
            session.execute(
                "SELECT Model, GROUPING(Units) FROM Sales GROUP BY Model")


class TestExplainDiagnostics:
    def test_explain_carries_lint_rows(self):
        catalog, _ = sales_catalog()
        session = SQLSession(catalog)
        result = session.execute(
            "EXPLAIN SELECT Model, MEDIAN(Units) FROM Sales "
            "GROUP BY CUBE Model, Year")
        lint_rows = [detail for step, detail in result.rows
                     if step == "lint"]
        assert any("C008" in detail for detail in lint_rows)

    def test_explain_never_raises_even_in_strict(self):
        catalog, _ = sales_catalog()
        session = SQLSession(catalog, strict=True)
        result = session.execute(
            "EXPLAIN SELECT Model, GROUPING(Units) FROM Sales "
            "GROUP BY Model")
        lint_rows = [detail for step, detail in result.rows
                     if step == "lint"]
        assert any("C005" in detail for detail in lint_rows)

    def test_clean_explain_has_no_lint_rows(self):
        catalog, _ = sales_catalog()
        session = SQLSession(catalog)
        result = session.execute(
            "EXPLAIN SELECT Model, SUM(Units) FROM Sales GROUP BY Model")
        assert not [s for s, _ in result.rows if s == "lint"]


class TestShellToggle:
    def test_lint_toggle_flips_session_strictness(self):
        shell = Shell()
        assert shell.session.strict is False
        assert "ON" in shell._meta("\\lint")
        assert shell.session.strict is True
        assert "OFF" in shell._meta("\\lint")
        assert shell.session.strict is False

    def test_strict_shell_reports_lint_error(self):
        shell = Shell()
        shell._meta("\\load sales")
        shell._meta("\\lint")
        out = shell.handle_line(
            "SELECT Model, GROUPING(Units) FROM Sales GROUP BY Model;")
        assert out.startswith("error:") and "C005" in out

    def test_help_mentions_lint(self):
        shell = Shell()
        assert "\\lint" in shell._meta("\\help")


class TestStrictMaintenance:
    def test_delete_holistic_without_base_rejected_up_front(self):
        with pytest.raises(LintError) as info:
            MaterializedCube(sales_table(), ["Model"],
                             [agg("MAX", "Units")],
                             retain_base=False, strict=True)
        assert any(d.code == "C002" for d in info.value.diagnostics)

    def test_safe_plan_builds_in_strict_mode(self):
        cube_ = MaterializedCube(sales_table(), ["Model"],
                                 [agg("SUM", "Units")],
                                 retain_base=False, strict=True)
        assert len(cube_) > 0
