"""Acceptance tests for the serving subsystem through SQL: a repeated
GROUP BY answerable from a prior CUBE must return bit-identical rows,
show ``cache_hit=True`` in EXPLAIN ANALYZE, and scan >=5x fewer rows
(``repro_view_rows_scanned_total`` vs ``repro_cube_rows_scanned_total``);
holistic aggregates and post-mutation queries must provably bypass or
invalidate."""

import pytest

from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.obs.metrics import REGISTRY
from repro.serve import CuboidCache
from repro.sql.executor import SQLSession

SPEC = SyntheticSpec(cardinalities=(8, 4, 2), n_rows=600, seed=71)

CUBE_SQL = "SELECT d0, d1, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d1, d2"
GROUPBY_SQL = "SELECT d0, SUM(m) FROM FACTS GROUP BY d0"


def _counter(name):
    assert REGISTRY.enabled
    return REGISTRY.counter(name).value


def canon(table):
    return sorted(repr(row) for row in table.rows)


@pytest.fixture
def cached():
    session = SQLSession(Catalog(), cache=CuboidCache())
    session.register("FACTS", synthetic_table(SPEC))
    return session


@pytest.fixture
def plain():
    session = SQLSession(Catalog())
    session.register("FACTS", synthetic_table(SPEC))
    return session


class TestWarmHit:
    def test_bit_identical_and_5x_fewer_rows_scanned(self, cached, plain):
        cold_base = _counter("repro_cube_rows_scanned_total")
        cube_result = cached.execute(CUBE_SQL)
        cold_scanned = _counter("repro_cube_rows_scanned_total") - cold_base
        assert canon(cube_result) == canon(plain.execute(CUBE_SQL))
        assert cold_scanned >= len(synthetic_table(SPEC))

        warm_view = _counter("repro_view_rows_scanned_total")
        warm_base = _counter("repro_cube_rows_scanned_total")
        warm_result = cached.execute(GROUPBY_SQL)
        view_scanned = _counter("repro_view_rows_scanned_total") - warm_view
        # the hit folded a stored cuboid, never rescanning the base
        assert _counter("repro_cube_rows_scanned_total") == warm_base

        assert canon(warm_result) == canon(plain.execute(GROUPBY_SQL))
        assert cached.cache.stats()["hits"] == 1
        assert view_scanned > 0
        assert cold_scanned >= 5 * view_scanned

    def test_explain_analyze_reports_cache_hit(self, cached):
        cached.execute(CUBE_SQL)
        result = cached.execute("EXPLAIN ANALYZE " + GROUPBY_SQL)
        text = "\n".join(" ".join(map(str, row)) for row in result.rows)
        assert "cache_hit=True" in text

    def test_repeated_cube_query_is_a_hit(self, cached, plain):
        first = cached.execute(CUBE_SQL)
        second = cached.execute(CUBE_SQL)
        assert canon(first) == canon(second) == canon(plain.execute(CUBE_SQL))
        assert cached.cache.stats()["hits"] == 1

    def test_rollup_served_from_cached_cube(self, cached, plain):
        cached.execute(CUBE_SQL)
        sql = "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY ROLLUP d0, d1"
        assert canon(cached.execute(sql)) == canon(plain.execute(sql))
        assert cached.cache.stats()["hits"] == 1

    def test_permuted_aliased_subset_hit(self, cached, plain):
        cached.execute(CUBE_SQL)
        sql = "SELECT d1 AS b, d0 AS a, SUM(m) AS s FROM FACTS GROUP BY d1, d0"
        result = cached.execute(sql)
        assert result.schema.names == ("b", "a", "s")
        assert canon(result) == canon(plain.execute(sql))
        assert cached.cache.stats()["hits"] == 1


class TestBypassAndInvalidation:
    def test_holistic_aggregate_bypasses(self, cached, plain):
        sql = "SELECT d0, MEDIAN(m) FROM FACTS GROUP BY d0"
        assert canon(cached.execute(sql)) == canon(plain.execute(sql))
        stats = cached.cache.stats()
        assert stats["bypasses"] >= 1
        assert stats["misses"] == 0
        assert len(cached.cache) == 0

    @pytest.mark.parametrize("dml", [
        "INSERT INTO FACTS VALUES ('v0', 'v0', 'v0', 99)",
        "DELETE FROM FACTS WHERE d0 = 'v0'",
        "UPDATE FACTS SET m = 0 WHERE d0 = 'v1'",
    ])
    def test_dml_invalidates_and_stays_correct(self, cached, plain, dml):
        cached.execute(CUBE_SQL)
        assert len(cached.cache) == 1
        cached.execute(dml)
        assert len(cached.cache) == 0
        assert cached.cache.stats()["evicted_invalidated"] == 1
        plain.execute(dml)
        assert canon(cached.execute(GROUPBY_SQL)) \
            == canon(plain.execute(GROUPBY_SQL))

    def test_stale_entry_never_matches_even_without_eager_hook(self, plain):
        """Version-keyed signatures alone keep answers correct: mutate
        the table behind the cache's back (no invalidate call) and the
        next probe must miss, not serve stale rows."""
        cache = CuboidCache()
        session = SQLSession(Catalog(), cache=cache)
        session.register("FACTS", synthetic_table(SPEC))
        session.execute(CUBE_SQL)
        # catalog-level mutation bumps the version; bypass the session's
        # own invalidation hook on purpose
        session.catalog.insert("FACTS", ("v0", "v0", "v0", 123))
        plain.execute("INSERT INTO FACTS VALUES ('v0', 'v0', 'v0', 123)")
        result = session.execute(GROUPBY_SQL)
        assert cache.stats()["hits"] == 0
        assert canon(result) == canon(plain.execute(GROUPBY_SQL))

    def test_where_clause_distinguishes_sources(self, cached):
        cached.execute(CUBE_SQL)
        filtered = "SELECT d0, SUM(m) FROM FACTS WHERE d1 = 'v0' GROUP BY d0"
        cached.execute(filtered)
        assert cached.cache.stats()["hits"] == 0
        assert cached.cache.stats()["misses"] == 2


class TestTableFunctionSlots:
    """Table-function columns are named positionally (``__tf0_n_tile``),
    so the cache's source key must carry the ordered call keys: two
    queries whose ``__tfN`` columns come from different calls may not
    share an entry."""

    FIRST = ("SELECT a, SUM(RANK(Units)) AS s FROM Sales "
             "GROUP BY CUBE N_TILE(Year, 2) AS a;")
    SWAPPED = ("SELECT a, SUM(RANK(Year)) AS s FROM Sales "
               "GROUP BY CUBE N_TILE(Units, 2) AS a;")

    def test_swapped_arguments_miss_and_match_uncached(self, sales):
        cached = SQLSession(Catalog(), cache=CuboidCache())
        cached.register("Sales", sales)
        plain = SQLSession(Catalog())
        plain.register("Sales", sales)

        first = cached.execute(self.FIRST)
        assert canon(first) == canon(plain.execute(self.FIRST)) \
            == ["(1, 9)", "(2, 25)", "(ALL, 34)"]
        swapped = cached.execute(self.SWAPPED)
        assert canon(swapped) == canon(plain.execute(self.SWAPPED)) \
            == ["(1, 4)", "(2, 20)", "(ALL, 24)"]
        stats = cached.cache.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 2
