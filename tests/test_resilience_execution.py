"""Integration tests for resilient execution: deadlines and
cancellation through the public cube / SQL APIs, and graceful
degradation from an in-memory algorithm to the external one when the
memory budget is exceeded -- with the recovery visible as metrics and
span events."""

import pytest

from repro import Catalog, agg, cube
from repro.compute.columnar import HAVE_NUMPY, ColumnarCubeAlgorithm
from repro.core.cube import cube_with_stats
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ResilienceError,
    ResourceBudgetExceededError,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import tracing
from repro.resilience import ExecutionContext
from repro.sql.executor import SQLSession

DIMS = ["Model", "Year", "Color"]
AGGS = [agg("SUM", "Units", "Units")]

#: the columnar sparse route with numpy hidden and with numpy
SPARSE_COLUMNAR = [
    pytest.param(True, id="python"),
    pytest.param(False, id="numpy", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="numpy not installed")),
]


def _counter_value(name, **labels):
    return REGISTRY.counter(name, **labels).value


class TestDeadlines:
    def test_expired_deadline_stops_the_cube(self, sales):
        with pytest.raises(QueryTimeoutError):
            cube(sales, DIMS, AGGS, context=ExecutionContext(timeout=0))

    def test_timeout_is_catchable_as_cancellation(self, sales):
        with pytest.raises(QueryCancelledError):
            cube(sales, DIMS, AGGS, context=ExecutionContext(timeout=0))

    def test_generous_deadline_does_not_interfere(self, sales):
        bounded = cube(sales, DIMS, AGGS,
                       context=ExecutionContext(timeout=60.0),
                       sort_result=True)
        free = cube(sales, DIMS, AGGS, sort_result=True)
        assert bounded.rows == free.rows

    def test_timeout_increments_the_cancellation_counter(self, sales):
        before = _counter_value("repro_resilience_cancellations_total",
                                reason="timeout")
        with pytest.raises(QueryTimeoutError):
            cube(sales, DIMS, AGGS, context=ExecutionContext(timeout=0))
        after = _counter_value("repro_resilience_cancellations_total",
                               reason="timeout")
        assert after == before + 1


class TestCancellation:
    def test_pre_cancelled_context_never_computes(self, sales):
        ctx = ExecutionContext()
        ctx.cancel("test harness")
        with pytest.raises(QueryCancelledError) as info:
            cube(sales, DIMS, AGGS, context=ctx)
        assert "test harness" in str(info.value)

    def test_cancellation_increments_the_counter(self, sales):
        before = _counter_value("repro_resilience_cancellations_total",
                                reason="cancelled")
        ctx = ExecutionContext()
        ctx.cancel()
        with pytest.raises(QueryCancelledError):
            cube(sales, DIMS, AGGS, context=ctx)
        after = _counter_value("repro_resilience_cancellations_total",
                               reason="cancelled")
        assert after == before + 1


class TestGracefulDegradation:
    @pytest.mark.parametrize("algorithm", ["2^N", "naive-union",
                                           "from-core", "sort", "pipesort"])
    def test_budget_breach_degrades_with_identical_results(
            self, sales, algorithm):
        # budget of 2: even the sort algorithms, which release cells
        # eagerly chain by chain, hold more than two open cells at once
        ctx = ExecutionContext(memory_budget=2)
        result = cube_with_stats(sales, DIMS, AGGS, algorithm=algorithm,
                                 context=ctx, sort_result=True)
        expected = cube(sales, DIMS, AGGS, sort_result=True)
        assert result.table.rows == expected.rows
        assert result.stats.notes["degraded_from"] == algorithm
        assert result.stats.algorithm == "external"

    @pytest.mark.parametrize("hide_numpy", SPARSE_COLUMNAR)
    def test_sparse_columnar_budget_breach_degrades_with_identical_results(
            self, sales, hide_numpy, request):
        if hide_numpy:
            request.getfixturevalue("no_numpy")
        ctx = ExecutionContext(memory_budget=2)
        algorithm = ColumnarCubeAlgorithm(mode="sparse")
        result = cube_with_stats(sales, DIMS, AGGS, algorithm=algorithm,
                                 context=ctx, sort_result=True)
        expected = cube(sales, DIMS, AGGS, sort_result=True)
        assert result.table.rows == expected.rows
        assert result.stats.notes["degraded_from"] == "columnar"
        assert result.stats.algorithm == "external"

    def test_degradation_disabled_propagates_the_breach(self, sales):
        ctx = ExecutionContext(memory_budget=4, degrade=False)
        with pytest.raises(ResourceBudgetExceededError):
            cube(sales, DIMS, AGGS, algorithm="2^N", context=ctx)

    def test_external_is_exempt_from_its_own_budget(self, sales):
        # The external algorithm bounds its own residency; the context
        # accountant must not fail the very fallback meant to honor it.
        ctx = ExecutionContext(memory_budget=4)
        result = cube(sales, DIMS, AGGS, algorithm="external",
                      context=ctx, sort_result=True)
        assert result.rows == cube(sales, DIMS, AGGS, sort_result=True).rows

    def test_parallel_budget_breach_degrades_too(self, sales):
        ctx = ExecutionContext(memory_budget=4)
        result = cube_with_stats(sales, DIMS, AGGS, algorithm="parallel",
                                 context=ctx, sort_result=True)
        assert result.stats.notes["degraded_from"] == "parallel"
        assert (result.table.rows
                == cube(sales, DIMS, AGGS, sort_result=True).rows)

    def test_degradation_emits_metric_and_span_event(self, sales):
        before = _counter_value("repro_resilience_degradations_total",
                                from_algorithm="2^N")
        with tracing() as tracer:
            cube(sales, DIMS, AGGS, algorithm="2^N",
                 context=ExecutionContext(memory_budget=4))
        after = _counter_value("repro_resilience_degradations_total",
                               from_algorithm="2^N")
        assert after == before + 1
        spans = [s for root in tracer.finished() for s in root.walk()]
        degrade = [s for s in spans if s.name == "cube.degrade"]
        assert len(degrade) == 1
        assert degrade[0].attributes["from_algorithm"] == "2^N"
        assert degrade[0].attributes["to_algorithm"] == "external"
        events = [e["name"] for e in degrade[0].events]
        assert "budget_exceeded" in events

    def test_accountant_is_balanced_after_a_clean_run(self, sales):
        ctx = ExecutionContext(memory_budget=10_000)
        cube(sales, DIMS, AGGS, algorithm="2^N", context=ctx)
        assert ctx.resident_cells == 0
        assert ctx.peak_cells > 0

    @pytest.mark.parametrize("hide_numpy", SPARSE_COLUMNAR)
    def test_accountant_is_balanced_after_a_sparse_columnar_run(
            self, sales, hide_numpy, request):
        if hide_numpy:
            request.getfixturevalue("no_numpy")
        ctx = ExecutionContext(memory_budget=10_000)
        cube(sales, DIMS, AGGS, context=ctx,
             algorithm=ColumnarCubeAlgorithm(mode="sparse"))
        assert ctx.resident_cells == 0
        # the peak is the whole lattice: the Sales cube's 27 cells
        assert ctx.peak_cells == 27


class TestSQLSessionResilience:
    @pytest.fixture
    def session(self, sales):
        session = SQLSession(Catalog())
        session.register("Sales", sales)
        return session

    def test_constructor_validation(self):
        with pytest.raises(ResilienceError):
            SQLSession(Catalog(), statement_timeout=-1)
        with pytest.raises(ResilienceError):
            SQLSession(Catalog(), memory_budget=0)

    def test_statement_timeout_raises_query_timeout(self, session):
        session.statement_timeout = 0
        with pytest.raises(QueryTimeoutError):
            session.execute(
                "SELECT Model, Year, SUM(Units) FROM Sales "
                "GROUP BY CUBE Model, Year;")

    def test_session_survives_a_timeout(self, session):
        session.statement_timeout = 0
        with pytest.raises(QueryTimeoutError):
            session.execute("SELECT COUNT(*) FROM Sales;")
        session.statement_timeout = None
        result = session.execute("SELECT COUNT(*) FROM Sales;")
        assert len(result) == 1

    def test_memory_budget_degrades_sql_cube(self, session, sales):
        bounded = SQLSession(Catalog(), memory_budget=4)
        bounded.register("Sales", sales)
        sql = ("SELECT Model, Year, Color, SUM(Units) FROM Sales "
               "GROUP BY CUBE Model, Year, Color;")
        expected = session.execute(sql)
        got = bounded.execute(sql)
        assert sorted(map(repr, got.rows)) == sorted(map(repr, expected.rows))

    def test_explicit_context_wins_over_session_settings(self, session):
        ctx = ExecutionContext(timeout=0)
        with pytest.raises(QueryTimeoutError):
            session.execute("SELECT COUNT(*) FROM Sales;", context=ctx)

    def test_each_statement_gets_a_fresh_deadline(self, session):
        # the deadline must start at execute() time, not session creation
        session.statement_timeout = 60.0
        for _ in range(3):
            result = session.execute("SELECT COUNT(*) FROM Sales;")
            assert len(result) == 1
