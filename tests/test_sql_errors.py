"""SQL error paths: the front-end must fail loudly and precisely."""

import pytest

from repro import Catalog, Table
from repro.errors import (
    CatalogError,
    SQLExecutionError,
    SQLPlanError,
    SQLSyntaxError,
)
from repro.sql import SQLSession, parse


@pytest.fixture
def session(sales):
    catalog = Catalog()
    catalog.register("Sales", sales)
    return SQLSession(catalog)


class TestSyntaxErrors:
    @pytest.mark.parametrize("sql", [
        "SELECT;",
        "SELECT FROM T;",
        "SELECT a FROM;",
        "SELECT a FROM T WHERE;",
        "SELECT a FROM T GROUP BY;",
        "SELECT a FROM T GROUP BY CUBE;",
        "SELECT a b c FROM T;",
        "SELECT a FROM T HAVING;",
        "SELECT a FROM T ORDER;",
        "SELECT a FROM T UNION;",
        "SELECT COUNT( FROM T;",
        "SELECT a IN FROM T;",
        "SELECT CASE END FROM T;",
        "SELECT a BETWEEN 1 FROM T;",
        "SELECT 'unterminated FROM T;",
    ], ids=range(15))
    def test_malformed_statements(self, sql):
        with pytest.raises(SQLSyntaxError):
            parse(sql)

    def test_error_carries_location(self):
        try:
            parse("SELECT a\nFROM !")
        except SQLSyntaxError as error:
            assert error.line == 2
        else:
            pytest.fail("expected a syntax error")


class TestPlanErrors:
    def test_unknown_table(self, session):
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM Missing;")

    def test_unknown_column_in_where(self, session):
        from repro.errors import ExpressionError
        with pytest.raises(ExpressionError):
            session.execute("SELECT Model FROM Sales WHERE Engine = 1;")

    def test_unknown_scalar_function(self, session):
        from repro.errors import ExpressionError
        with pytest.raises(ExpressionError):
            session.execute("SELECT Frobnicate(Model) FROM Sales;")

    def test_aggregate_in_where(self, session):
        with pytest.raises(SQLPlanError):
            session.execute(
                "SELECT Model FROM Sales WHERE SUM(Units) > 1;")

    def test_ungrouped_column(self, session):
        with pytest.raises(SQLPlanError):
            session.execute(
                "SELECT Color FROM Sales GROUP BY Model;")

    def test_grouping_of_ungrouped(self, session):
        with pytest.raises(SQLPlanError):
            session.execute(
                "SELECT GROUPING(Color) FROM Sales GROUP BY Model;")

    def test_star_with_grouping(self, session):
        with pytest.raises(SQLPlanError):
            session.execute("SELECT * FROM Sales GROUP BY Model;")

    def test_distinct_on_non_count(self, session):
        with pytest.raises(SQLPlanError):
            session.execute("SELECT SUM(DISTINCT Units) FROM Sales;")

    def test_where_error_precedes_bad_aggregate(self, session):
        from repro.errors import ExpressionError
        with pytest.raises(ExpressionError, match="Engine"):
            session.execute(
                "SELECT SUM(DISTINCT Units) FROM Sales WHERE Engine = 1;")

    def test_star_error_precedes_bad_aggregate(self, session):
        with pytest.raises(SQLPlanError, match="SELECT \\* cannot"):
            session.execute("SELECT *, SUM(DISTINCT Units) FROM Sales "
                            "GROUP BY Model;")

    def test_table_function_error_precedes_bad_aggregate(self, session):
        from repro.errors import ExpressionError
        with pytest.raises(ExpressionError, match="Engine"):
            session.execute("SELECT SUM(DISTINCT RANK(Engine)) FROM Sales "
                            "GROUP BY Model;")

    def test_non_scalar_subquery(self, session):
        with pytest.raises(SQLExecutionError):
            session.execute(
                "SELECT (SELECT Model, Year FROM Sales) FROM Sales;")

    def test_union_arity(self, session):
        with pytest.raises(SQLExecutionError):
            session.execute("SELECT Model FROM Sales UNION "
                            "SELECT Model, Year FROM Sales;")


class TestRecovery:
    def test_session_survives_errors(self, session):
        with pytest.raises(SQLSyntaxError):
            session.execute("SELEC nothing;")
        result = session.execute("SELECT COUNT(*) FROM Sales;")
        assert result.rows == [(8,)]

    def test_failed_dml_leaves_table_unchanged(self, session):
        before = len(session.catalog.get("Sales"))
        with pytest.raises(SQLExecutionError):
            session.execute("INSERT INTO Sales VALUES (1);")
        assert len(session.catalog.get("Sales")) == before

    def test_create_duplicate_table(self, session):
        with pytest.raises(CatalogError):
            session.execute("CREATE TABLE Sales (a STRING);")
