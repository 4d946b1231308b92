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


@pytest.fixture(params=["uncached", "cached"])
def any_session(request, sales):
    from repro.serve import CuboidCache
    catalog = Catalog()
    catalog.register("Sales", sales)
    cache = CuboidCache() if request.param == "cached" else None
    return SQLSession(catalog, cache=cache)


class TestGroupedErrorOrder:
    """Which error a grouped SELECT raises, and in what order, is the
    same with and without the cuboid cache."""

    def test_compute_error_precedes_grouped_output_error(self, any_session):
        from repro.errors import ExpressionError
        with pytest.raises(ExpressionError, match="Engine"):
            any_session.execute(
                "SELECT Color, SUM(Engine) FROM Sales GROUP BY Model;")

    def test_grouping_of_ungrouped_in_first_item(self, any_session):
        with pytest.raises(SQLPlanError, match=r"GROUPING\(Color\) "
                           "references a column that is not grouped"):
            any_session.execute(
                "SELECT GROUPING(Color), Year FROM Sales GROUP BY Model;")

    def test_errors_follow_select_item_order(self, any_session):
        with pytest.raises(SQLPlanError, match="column 'Year' is neither "
                           "grouped nor aggregated"):
            any_session.execute(
                "SELECT Year, GROUPING(Color) FROM Sales GROUP BY Model;")

    def test_distinct_error_precedes_grouped_output_error(self,
                                                          any_session):
        with pytest.raises(SQLPlanError,
                           match="DISTINCT is only supported with COUNT"):
            any_session.execute("SELECT Color, SUM(DISTINCT Units) "
                                "FROM Sales GROUP BY Model;")

    def test_alias_cell_coordinates_must_be_literals(self, any_session):
        with pytest.raises(SQLPlanError,
                           match="coordinates must be literals"):
            any_session.execute(
                "SELECT Model, SUM(Units) AS total, total(Year) AS t "
                "FROM Sales GROUP BY CUBE Model;")


class TestNegativeLiteralArguments:
    """``-1`` parses as ``0 - 1``; as an extra argument it is still a
    literal, so the function's own range check answers."""

    def test_negative_percentile_reaches_the_factory(self, session):
        from repro.errors import AggregateError
        with pytest.raises(AggregateError,
                           match=r"p must be in \[0, 100\], got -1"):
            session.execute("SELECT Model, APPROX_PERCENTILE(Units, -1) "
                            "FROM Sales GROUP BY Model;")

    def test_negative_tile_count_reaches_the_table_function(self, session):
        from repro.errors import AggregateError
        with pytest.raises(AggregateError,
                           match="n_tile needs n >= 1, got -2"):
            session.execute("SELECT Model, SUM(Units) FROM Sales "
                            "GROUP BY N_TILE(Units, -2);")

    def test_non_literal_argument_is_located_at_itself(self):
        sql = "SELECT PERCENTILE(Units, Year) FROM Sales GROUP BY Model;"
        with pytest.raises(SQLSyntaxError,
                           match="must be literals, found 'Year'") as info:
            parse(sql)
        assert info.value.column == sql.index("Year") + 1

    def test_arithmetic_on_a_negated_literal_is_rejected(self):
        with pytest.raises(SQLSyntaxError, match="found '\\+'"):
            parse("SELECT PERCENTILE(Units, -1 + 2) FROM Sales "
                  "GROUP BY Model;")
