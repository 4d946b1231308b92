"""Experiment S2 -- streaming ingest vs eager invalidation.

The serve cache's worst enemy is a steady write stream: every SQL DML
statement eagerly invalidates the table's cached cuboids, so a 10:1
read/write workload rebuilds the cube over and over and the hit rate
collapses.  Routing the same writes through
:class:`~repro.maintenance.StreamIngestor` instead folds each batch
into the cached ancestors as a delta (Section 6's insert-distributive /
delete-algebraic maintenance), re-keys them to the new catalog
versions, and the cache stays hot.

The machine-independent half (hit rates, delta-merge counters) rides in
``extra_info`` (part of pytest-benchmark's ``--benchmark-json``
report), so the asymmetry can be read without trusting wall clocks.
"""

from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.maintenance import StreamIngestor
from repro.serve import CuboidCache
from repro.sql.executor import SQLSession

from conftest import show

CUBE_SQL = "SELECT d0, d1, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d1, d2"

#: ten distinct reads, all answerable from the warm CUBE's cuboids
READS = [
    "SELECT d0, SUM(m) FROM FACTS GROUP BY d0",
    "SELECT d1, SUM(m) FROM FACTS GROUP BY d1",
    "SELECT d2, SUM(m) FROM FACTS GROUP BY d2",
    "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY d0, d1",
    "SELECT d0, d2, SUM(m) FROM FACTS GROUP BY d0, d2",
    "SELECT d1, d2, SUM(m) FROM FACTS GROUP BY d1, d2",
    "SELECT d1, d0, SUM(m) FROM FACTS GROUP BY d1, d0",
    "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY ROLLUP d0, d1",
    "SELECT d0, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d2",
    "SELECT d0, d1, d2, SUM(m) FROM FACTS GROUP BY d0, d1, d2",
]
ROUNDS = 15  # one write + ten reads per round -- the 10:1 mix


def make_session():
    catalog = Catalog()
    catalog.register("FACTS", synthetic_table(SyntheticSpec(
        cardinalities=(8, 4, 2), n_rows=600, seed=71)))
    cache = CuboidCache()
    return SQLSession(catalog, cache=cache), catalog, cache


def write_row(i):
    return (f"v{i % 8}", f"v{i % 4}", f"v{i % 2}", i)


def hit_rate(cache):
    stats = cache.stats()
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def run_eager():
    """The baseline: writes go through SQL DML, which invalidates."""
    session, _, cache = make_session()
    session.execute(CUBE_SQL)  # warm
    for i in range(ROUNDS):
        d0, d1, d2, m = write_row(i)
        session.execute(f"INSERT INTO FACTS VALUES "
                        f"('{d0}', '{d1}', '{d2}', {m})")
        for sql in READS:
            session.execute(sql)
    return cache


def run_streaming():
    """The same 10:1 mix with writes delta-merged by the ingestor."""
    session, catalog, cache = make_session()
    ingestor = StreamIngestor(catalog, cache, max_ops=1)
    session.execute(CUBE_SQL)  # warm
    for i in range(ROUNDS):
        ingestor.submit("FACTS", inserts=[write_row(i)])
        for sql in READS:
            session.execute(sql)
    return cache, ingestor


def test_eager_invalidation_collapses(benchmark):
    cache = run_eager()
    rate = hit_rate(cache)
    benchmark(run_eager)
    benchmark.extra_info["cache"] = cache.stats()
    benchmark.extra_info["hit_rate"] = round(rate, 4)
    # every write destroys the cuboids the next ten reads wanted
    assert rate < 0.5
    show("streaming ingest: eager-invalidation baseline (10:1 mix)",
         f"hit rate {rate:.1%} over {ROUNDS} rounds -- "
         f"{cache.stats()['misses']} rebuilds")


def test_streaming_ingest_keeps_cache_hot(benchmark):
    cache, ingestor = run_streaming()
    rate = hit_rate(cache)
    stats = cache.stats()
    benchmark(run_streaming)
    benchmark.extra_info["cache"] = stats
    benchmark.extra_info["ingest"] = ingestor.snapshot()
    benchmark.extra_info["hit_rate"] = round(rate, 4)
    assert rate >= 0.9  # the tentpole claim
    assert stats["delta_merged"] >= ROUNDS
    show("streaming ingest: delta-merged writes (10:1 mix)",
         f"hit rate {rate:.1%} over {ROUNDS} rounds -- "
         f"{stats['delta_merged']} delta merges, "
         f"{stats['delta_invalidated']} invalidations")


def test_results_identical_under_both_paths(benchmark):
    """The speed story is only admissible if the answers match: after
    the full workload, every read under the streaming path must be
    bit-identical to a cache-less recompute over the same final base."""
    def both():
        session, catalog, cache = make_session()
        ingestor = StreamIngestor(catalog, cache, max_ops=1)
        session.execute(CUBE_SQL)
        for i in range(ROUNDS):
            ingestor.submit("FACTS", inserts=[write_row(i)])
        cold = SQLSession(catalog)  # no cache: recompute from base
        for sql in READS:
            warm_rows = sorted(map(repr, session.execute(sql).rows))
            cold_rows = sorted(map(repr, cold.execute(sql).rows))
            assert warm_rows == cold_rows
        return cache.stats()

    stats = benchmark(both)
    benchmark.extra_info["cache"] = stats
    assert stats["delta_merged"] >= ROUNDS
