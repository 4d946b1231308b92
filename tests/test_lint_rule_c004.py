"""C004 decoration-dependency: Section 3.5 -- an output column outside
GROUP BY is only defined when functionally dependent on a grouping
column."""

from lintutil import assert_fires, codes, sales_catalog, sales_table

from repro.core.cube import agg
from repro.core.decorations import Decoration
from repro.lint import lint_cube_spec, lint_sql
from repro.lint.diagnostics import Severity


class TestC004Sql:
    def test_nongrouped_output_is_error(self):
        catalog, _ = sales_catalog()
        report = lint_sql(
            "SELECT Model, Color, SUM(Units) FROM Sales GROUP BY Model",
            catalog=catalog)
        findings = assert_fires(report, "C004", count=1,
                                severity=Severity.ERROR)
        assert findings[0].columns == ("Color",)

    def test_grouped_and_aggregated_outputs_are_clean(self):
        catalog, _ = sales_catalog()
        report = lint_sql(
            "SELECT Model, SUM(Units) FROM Sales GROUP BY Model",
            catalog=catalog)
        assert "C004" not in codes(report)

    def test_grouping_expression_source_column_allowed(self):
        # a grouped column counts by its output name: GROUP BY Year
        # licenses Year (GROUP BY Year + 1 AS y would license only y)
        catalog, _ = sales_catalog()
        report = lint_sql(
            "SELECT Year, COUNT(*) FROM Sales GROUP BY Year",
            catalog=catalog)
        assert "C004" not in codes(report)


class TestC004Decorations:
    def test_violated_dependency_is_error(self):
        # Year -> Color does not hold: 1994 maps to black twice but
        # 1995 maps to white and NULL
        table = sales_table()
        decoration = Decoration("Color", ("Year",), {})
        report = lint_cube_spec(table, ["Model", "Year"],
                                [agg("SUM", "Units")],
                                decorations=[decoration])
        assert_fires(report, "C004", count=1,
                     contains="not functionally dependent")

    def test_holding_dependency_is_clean(self):
        # Model -> Model is trivially functional; use a real FD:
        # every Model has exactly one Year in this data
        table = sales_table(rows=[("Chevy", 1994, "black", 10),
                                  ("Chevy", 1994, "white", 12),
                                  ("Ford", 1995, "black", 7)])
        decoration = Decoration("Year", ("Model",), {})
        report = lint_cube_spec(table, ["Model"], [agg("SUM", "Units")],
                                kind="groupby",
                                decorations=[decoration])
        assert "C004" not in codes(report)
