"""Experiment S1 -- the serving layer's semantic cuboid cache.

Measures the warm-vs-cold asymmetry the cache exists for: a cold CUBE
pays full base-table scans (build + sizing), while a warm repeat -- or
any coarser GROUP BY contained in the cached cuboids -- folds a few
hundred resident cells.  The machine-independent half of the story
(rows scanned, cache counters) rides along in ``extra_info`` (part of
pytest-benchmark's own ``--benchmark-json`` report), so the asymmetry
can be read without trusting wall clocks.
"""

import pytest

from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.obs.metrics import REGISTRY
from repro.serve import CuboidCache
from repro.sql.executor import SQLSession

from conftest import show

CUBE_SQL = "SELECT d0, d1, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d1, d2"
GROUPBY_SQL = "SELECT d0, SUM(m) FROM FACTS GROUP BY d0"


@pytest.fixture(scope="module")
def serving_fact():
    return synthetic_table(SyntheticSpec(
        cardinalities=(10, 6, 4), n_rows=3000, seed=2026))


def make_session(fact, cache):
    catalog = Catalog()
    catalog.register("FACTS", fact)
    return SQLSession(catalog, cache=cache)


def _counter(name):
    return REGISTRY.counter(name).value


def test_cold_cube_compute(benchmark, serving_fact):
    """Every round recomputes the CUBE from the base table (a fresh
    cache each call, so nothing is ever warm)."""
    def cold():
        return make_session(serving_fact, CuboidCache()).execute(CUBE_SQL)

    before = _counter("repro_cube_rows_scanned_total")
    result = cold()
    scanned = _counter("repro_cube_rows_scanned_total") - before
    benchmark(cold)
    benchmark.extra_info["counters"] = {
        "base_rows_scanned": scanned,
        "result_rows": len(result),
    }
    assert scanned >= len(serving_fact)


def test_warm_repeat_cube_hit(benchmark, serving_fact):
    """The identical CUBE again: answered from the resident cuboids."""
    cache = CuboidCache()
    session = make_session(serving_fact, cache)
    cold_result = session.execute(CUBE_SQL)

    warm_result = benchmark(lambda: session.execute(CUBE_SQL))
    assert sorted(map(repr, warm_result.rows)) \
        == sorted(map(repr, cold_result.rows))
    stats = cache.stats()
    assert stats["hits"] >= 1
    benchmark.extra_info["cache"] = stats


def test_warm_contained_groupby_hit(benchmark, serving_fact):
    """A coarser GROUP BY served from the cached CUBE's cuboids -- the
    containment case; rows scanned collapse from the base-table scan to
    the d0 cuboid's cells."""
    cache = CuboidCache()
    session = make_session(serving_fact, cache)
    session.execute(CUBE_SQL)  # admit

    view_before = _counter("repro_view_rows_scanned_total")
    reference = session.execute(GROUPBY_SQL)
    view_scanned = _counter("repro_view_rows_scanned_total") - view_before

    benchmark(lambda: session.execute(GROUPBY_SQL))
    stats = cache.stats()
    assert stats["hits"] >= 1
    benchmark.extra_info["counters"] = {
        "view_rows_scanned": view_scanned,
        "result_rows": len(reference),
    }
    benchmark.extra_info["cache"] = stats
    # the headline ratio: warm work is >=5x below the base-table scan
    assert len(serving_fact) >= 5 * view_scanned
    show("Serving cache: warm GROUP BY d0 from cached CUBE",
         f"base rows {len(serving_fact)} vs cuboid cells {view_scanned} "
         f"({len(serving_fact) / max(view_scanned, 1):.0f}x fewer)")
