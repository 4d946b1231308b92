"""The SQL binder (repro.sql.bind): one SELECT resolved once -- table-
function slots, dimensions, the grouping specification and aggregate
functions -- and recorded faults that surface as repro errors through
the session, EXPLAIN and the wire."""

import pytest

from repro import Catalog
from repro.aggregates.registry import default_registry
from repro.engine.expressions import ColumnRef
from repro.errors import GroupingError, SQLPlanError, UnknownAggregateError
from repro.serve import QueryClient, QueryServer
from repro.sql import SQLSession, parse
from repro.sql.bind import bind


def bound(sql):
    return bind(parse(sql).body, default_registry)


@pytest.fixture
def session(sales):
    catalog = Catalog()
    catalog.register("Sales", sales)
    return SQLSession(catalog)


class TestSlots:
    def test_walk_order_dedupes_by_key_and_rewrites(self):
        result = bound(
            "SELECT RANK(Units) AS r, SUM(Units) FROM Sales "
            "GROUP BY N_TILE(Year, 2) AS t, RANK(Units) "
            "HAVING MAX(CUMULATIVE(Units)) > 1;")
        assert [slot.column for slot in result.slots] == [
            "__tf0_rank", "__tf1_n_tile", "__tf2_cumulative"]
        assert [slot.key for slot in result.slots] == [
            ("RANK", repr(ColumnRef("Units")), ()),
            ("N_TILE", repr(ColumnRef("Year")), (2,)),
            ("CUMULATIVE", repr(ColumnRef("Units")), ())]
        item = result.select.items[0].expression
        assert isinstance(item, ColumnRef) and item.name == "__tf0_rank"
        assert [name for _, name in result.dims] == ["t", "__tf0_rank"]
        assert [a.name for a in result.aggregates] == [
            "SUM(Units)", "MAX(__tf2_cumulative)"]

    def test_missing_count_is_recorded_not_raised(self):
        (slot,) = bound("SELECT N_TILE(Units) AS t FROM Sales;").slots
        assert slot.compute is None
        assert isinstance(slot.error, SQLPlanError)
        assert "N_TILE(Units)" in str(slot.error)

    def test_binding_leaves_the_statement_untouched(self):
        select = parse("SELECT a, SUM(RANK(Units)) FROM Sales "
                       "GROUP BY CUBE N_TILE(Year, 2) AS a;").body
        before = repr(select)
        bind(select, default_registry)
        assert repr(select) == before


class TestAggregates:
    def test_first_seen_order_and_names(self):
        result = bound("SELECT Model, SUM(Units), SUM(Units), COUNT(*) "
                       "FROM Sales GROUP BY Model HAVING MIN(Year) > 0;")
        assert [a.name for a in result.aggregates] == [
            "SUM(Units)", "COUNT(*)", "MIN(Year)"]
        specs, keys = result.measures()
        assert [s.name for s in specs] == ["SUM(Units)", "COUNT(*)",
                                          "MIN(Year)"]
        assert keys[1] == ("COUNT", "*", False, ())

    def test_name_colliding_with_a_dimension_gets_a_suffix(self):
        select = parse("SELECT SUM(Units) FROM Sales "
                       "GROUP BY Model AS m;").body
        select.group.plain = [(ColumnRef("Model"), "SUM(Units)")]
        result = bind(select, default_registry)
        assert [a.name for a in result.aggregates] == ["SUM(Units)#0"]

    def test_holistic_functions_run_strict(self):
        (median,) = bound("SELECT MEDIAN(Units) FROM Sales "
                          "GROUP BY CUBE Model;").aggregates
        assert median.function.carrying is False

    def test_hidden_row_count_without_aggregates(self):
        specs, keys = bound("SELECT Model FROM Sales "
                            "GROUP BY Model;").measures()
        assert [s.name for s in specs] == ["__rows"]
        assert keys == (("COUNT", "*", False, ()),)

    @pytest.mark.parametrize("sql, error", [
        ("SELECT SUM(DISTINCT Units) FROM Sales;", SQLPlanError),
        ("SELECT FOO(DISTINCT Units) FROM Sales;", SQLPlanError),
        ("SELECT PERCENTILE(Units) FROM Sales;", SQLPlanError),
    ])
    def test_construction_errors_are_recorded(self, sql, error):
        result = bound(sql)
        (aggregate,) = result.aggregates
        assert aggregate.function is None
        assert isinstance(aggregate.error, error)
        with pytest.raises(error):
            result.measures()

    def test_unknown_name_keeps_its_class(self):
        from repro.sql.ast_nodes import AggregateCall
        from repro.sql.bind import bind_aggregate
        call = AggregateCall("NOPE", ColumnRef("Units"))
        aggregate = bind_aggregate(call, default_registry, "n")
        assert isinstance(aggregate.error, UnknownAggregateError)

    def test_duplicate_dimension_raises_only_when_asked(self):
        result = bound("SELECT Model FROM Sales GROUP BY Model, Model;")
        assert result.cube == () and result.plain == ("Model", "Model")
        with pytest.raises(GroupingError):
            result.spec()


class TestOneName:
    def test_explain_names_an_unaliased_table_function_dim_once(
            self, session):
        rows = dict(session.execute(
            "EXPLAIN SELECT SUM(Units) FROM Sales "
            "GROUP BY CUBE N_TILE(Units, 2), Model;").rows)
        assert rows["group"] == "CUBE __tf0_n_tile, Model"
        assert rows["cardinalities"] == "__tf0_n_tile=2, Model=2"


class TestBuiltinErrorsBecomePlanErrors:
    PERCENTILE = "SELECT PERCENTILE(Units) FROM Sales GROUP BY Model;"

    def test_session(self, session):
        with pytest.raises(SQLPlanError, match=r"PERCENTILE\(Units\)"):
            session.execute(self.PERCENTILE)
        with pytest.raises(SQLPlanError, match=r"N_TILE\(Units\)"):
            session.execute("SELECT N_TILE(Units) AS t FROM Sales;")

    def test_explain(self, session):
        with pytest.raises(SQLPlanError, match=r"PERCENTILE\(Units\)"):
            session.execute("EXPLAIN " + self.PERCENTILE)

    def test_wire_answers_an_error_and_keeps_the_connection(self, sales):
        catalog = Catalog()
        catalog.register("Sales", sales)
        with QueryServer(catalog) as server:
            with QueryClient(*server.address) as client:
                with pytest.raises(SQLPlanError, match="PERCENTILE"):
                    client.execute(self.PERCENTILE)
                rows = client.execute("SELECT COUNT(*) FROM Sales").rows
        assert rows == [(8,)]
