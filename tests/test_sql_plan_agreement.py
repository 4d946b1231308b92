"""One plan for a grouped SELECT: the linter's C004 names exactly the
column execution rejects, EXPLAIN describes the filtered input and the
algorithm that actually runs, and a pinned algorithm uses the session's
budgets the way the library does."""

import re

import pytest

from repro import Catalog
from repro.compute.columnar import HAVE_NUMPY, ColumnarCubeAlgorithm
from repro.compute.external import ExternalCubeAlgorithm
from repro.core.cube import agg, cube_with_stats
from repro.data import SyntheticSpec, synthetic_table
from repro.errors import SQLPlanError
from repro.lint import lint_sql
from repro.sql import SQLSession


@pytest.fixture
def catalog(sales):
    catalog = Catalog()
    catalog.register("Sales", sales)
    return catalog


class TestLintAgreesWithExecution:
    CORPUS = [
        # grouping expressions license their output name only
        "SELECT Year, SUM(Units) FROM SALES GROUP BY Year + 1 AS y",
        "SELECT Year + 1, SUM(Units) FROM SALES GROUP BY Year + 1",
        # a table function's slot column is an output like any other
        "SELECT RANK(Units) AS r, SUM(Year) FROM SALES GROUP BY Model",
        # aggregates without GROUP BY group too
        "SELECT Model, SUM(Units) FROM SALES",
        "SELECT Model, Color, SUM(Units) FROM Sales GROUP BY Model",
        "SELECT Model, SUM(Units) FROM Sales GROUP BY Model",
        "SELECT Year, COUNT(*) FROM Sales GROUP BY Year",
        "SELECT Model, SUM(Units) AS total, total(ALL) AS share "
        "FROM Sales GROUP BY CUBE Model",
        "SELECT Model, GROUPING(Model), SUM(Units) FROM Sales "
        "GROUP BY CUBE Model",
        # HAVING and ORDER BY read grouped or aggregated columns too
        "SELECT Model, SUM(Units) FROM Sales GROUP BY Model "
        "HAVING Color = 'black'",
        "SELECT Model, SUM(Units) FROM Sales GROUP BY Model ORDER BY Color",
        "SELECT Model, SUM(Units) AS total FROM Sales GROUP BY Model "
        "HAVING SUM(Units) > 10 ORDER BY total DESC, Model",
    ]

    @pytest.mark.parametrize("sql", CORPUS, ids=range(len(CORPUS)))
    def test_c004_names_the_column_execution_rejects(self, catalog, sql):
        linted = [d.columns for d in lint_sql(sql, catalog=catalog)
                  if d.code == "C004"]
        try:
            SQLSession(catalog).execute(sql)
        except SQLPlanError as error:
            found = re.search(r"column '(\w+)' is neither grouped nor "
                              "aggregated", str(error))
            assert found, error
            assert linted == [(found.group(1),)]
        else:
            assert linted == []

    @pytest.mark.parametrize("clause", ["HAVING Color = 'black'",
                                        "ORDER BY Color"])
    def test_having_and_order_by_get_the_section_3_5_error(self, catalog,
                                                           clause):
        sql = f"SELECT Model, SUM(Units) FROM Sales GROUP BY Model {clause}"
        with pytest.raises(SQLPlanError, match="column 'Color' is neither "
                                               "grouped nor aggregated"):
            SQLSession(catalog).execute(sql)

    def test_strict_session_stops_before_the_cube(self, catalog):
        from repro.errors import LintError
        with pytest.raises(LintError, match="C004"):
            SQLSession(catalog, strict=True).execute(
                "SELECT Year, SUM(Units) FROM Sales GROUP BY Year + 1 AS y")


class TestExplainAgreesWithExecution:
    SQL = ("SELECT d0, d1, SUM(m) FROM FACTS WHERE d2 = 'v0' AND d0 = 'v1' "
           "GROUP BY CUBE d0, d1")

    @pytest.fixture
    def facts(self):
        catalog = Catalog()
        catalog.register("FACTS", synthetic_table(SyntheticSpec(
            cardinalities=(8, 4, 2), n_rows=3000, seed=71)))
        return catalog

    @staticmethod
    def first_compute(session):
        for root in session.last_analyze_roots:
            for span in root.walk():
                if span.name == "cube.compute":
                    return span
        raise AssertionError("no cube.compute span")

    @pytest.mark.parametrize("options", [
        {}, {"algorithm": "2^N"}, {"memory_budget": 5}],
        ids=["default", "pinned", "budget"])
    def test_algorithm_row_names_what_runs(self, facts, options):
        session = SQLSession(facts, **options)
        explain = dict(session.execute("EXPLAIN " + self.SQL).rows)
        session.execute("EXPLAIN ANALYZE " + self.SQL)
        ran = self.first_compute(session).attributes["algorithm"]
        assert explain["algorithm"].startswith(f"{ran}: ")

    def test_estimates_cover_the_filtered_input(self, facts):
        session = SQLSession(facts)
        explain = dict(session.execute("EXPLAIN " + self.SQL).rows)
        rows = session.execute(
            "SELECT d0, d1 FROM FACTS WHERE d2 = 'v0' AND d0 = 'v1'").rows
        d0 = len({row[0] for row in rows})
        d1 = len({row[1] for row in rows})
        assert explain["cardinalities"] == f"d0={d0}, d1={d1}"
        assert f"T={len(rows)})" in explain["expected rows"]

    def test_where_errors_raise_as_in_execution(self, facts):
        with pytest.raises(SQLPlanError, match="not allowed in WHERE"):
            SQLSession(facts).execute(
                "EXPLAIN SELECT d0, SUM(m) FROM FACTS WHERE SUM(m) > 1 "
                "GROUP BY d0")


def spy_budget(monkeypatch, cls, attribute):
    """Record ``attribute`` and the stats of every ``cls`` run."""
    seen = []
    original = cls.compute

    def compute(self, task, *args, **kwargs):
        result = original(self, task, *args, **kwargs)
        seen.append((getattr(self, attribute), result.stats))
        return result

    monkeypatch.setattr(cls, "compute", compute)
    return seen


class TestPinnedAlgorithmBudgets:
    SQL = "SELECT Model, Year, SUM(Units) FROM Sales GROUP BY CUBE Model, Year"

    def test_external_uses_the_session_memory_budget(self, monkeypatch,
                                                     catalog, sales):
        seen = spy_budget(monkeypatch, ExternalCubeAlgorithm,
                          "memory_budget")
        SQLSession(catalog, algorithm="external",
                   memory_budget=4).execute(self.SQL)
        cube_with_stats(sales, ["Model", "Year"], [agg("SUM", "Units")],
                        algorithm="external", memory_budget=4)
        (sql_budget, sql_stats), (lib_budget, lib_stats) = seen
        assert sql_budget == lib_budget == 4
        assert sql_stats.partitions == lib_stats.partitions

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed: "
                        "columnar takes the row path, no route")
    def test_columnar_uses_the_session_dense_budget(self, monkeypatch,
                                                    catalog):
        seen = spy_budget(monkeypatch, ColumnarCubeAlgorithm,
                          "dense_budget")
        SQLSession(catalog, algorithm="columnar",
                   dense_budget=2).execute(self.SQL)
        [(budget, stats)] = seen
        assert budget == 2
        assert stats.notes["route"] == "sparse"
