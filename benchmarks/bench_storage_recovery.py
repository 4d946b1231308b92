"""Experiment ST -- the cost of durability.

Three measurements back the storage engine's performance claims
(docs/STORAGE.md):

- **WAL write-through overhead**: the Figure 2 maintenance workload
  (batched inserts into a materialized cube over the synthetic fact
  table) runs journaled and in-memory, interleaved; the median
  per-pair ratio must stay under 1.25x.  Group commit is what makes
  this hold -- one chunked op record and one fsync per transaction.
- **Recovery time vs log length**: replaying a WAL suffix is linear
  in the number of journaled transactions; the per-length timings
  land in ``extra.recovery_ms_by_txns``.
- **Cold vs warm first query**: a query server restarted against its
  ``--data-dir`` answers the first repeated query from a recovered
  cuboid instead of recomputing; both latencies are recorded.

All three land in ``extra_info`` (pytest-benchmark's
``--benchmark-json`` report).
"""

import os
import random
import shutil
import statistics
import tempfile
import time

from repro import agg
from repro.data import SyntheticSpec, synthetic_table
from repro.maintenance import MaterializedCube
from repro.storage import CubeStore

from conftest import show

_ROUNDS = 9
_BATCHES = 3
_BATCH_SIZE = 100

_AGGS = [agg("SUM", "m", "total"), agg("AVG", "m", "avg")]


def _build_cube():
    table = synthetic_table(SyntheticSpec(
        cardinalities=(6, 5, 4), n_rows=4000, seed=21))
    return MaterializedCube(table, ["d0", "d1", "d2"], _AGGS)


def _workload(seed=1, size=_BATCH_SIZE):
    rng = random.Random(seed)
    return [("insert", (f"v{rng.randrange(6)}", f"v{rng.randrange(5)}",
                        f"v{rng.randrange(4)}", rng.randrange(100)))
            for _ in range(size)]


def _run_in_memory(batch):
    cube = _build_cube()
    started = time.perf_counter()
    for _ in range(_BATCHES):
        cube.apply_batch(list(batch))
    return time.perf_counter() - started


def _run_durable(batch):
    scratch = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        with CubeStore(os.path.join(scratch, "s")) as store:
            cube = _build_cube()
            store.attach(cube, "c")
            started = time.perf_counter()
            for _ in range(_BATCHES):
                cube.apply_batch(list(batch))
            return time.perf_counter() - started
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_wal_write_through_overhead(benchmark):
    batch = _workload()
    _run_in_memory(batch)  # warm both paths
    _run_durable(batch)
    ratios = []
    for _ in range(_ROUNDS):
        durable = _run_durable(batch)
        in_memory = _run_in_memory(batch)
        ratios.append(durable / in_memory)
    ratio = statistics.median(ratios)
    benchmark(_run_durable, batch)
    benchmark.extra_info["wal_overhead_ratio"] = round(ratio, 4)
    show("WAL write-through overhead (Figure 2 maintenance workload)",
         f"median durable/in-memory ratio over {_ROUNDS} interleaved "
         f"pairs of {_BATCHES}x{_BATCH_SIZE}-op batches: {ratio:.4f}x "
         f"(bound 1.25x)")
    assert ratio < 1.25, (
        f"durability costs {ratio:.4f}x on the maintenance workload; "
        "bound is 1.25x")


def test_recovery_time_vs_log_length(benchmark):
    lengths = (25, 100, 400)
    timings = {}

    def populate(scratch, n_txns):
        data_dir = os.path.join(scratch, "s")
        with CubeStore(data_dir) as store:
            cube = _build_cube()
            store.attach(cube, "c")
            for _, row in _workload(seed=2, size=n_txns):
                cube.insert(row)  # one journaled txn per insert
        return data_dir

    def recover(data_dir):
        with CubeStore(data_dir) as store:
            cube = _build_cube()
            store.attach(cube, "c")
            return store.replayed["c"]

    for n_txns in lengths:
        scratch = tempfile.mkdtemp(prefix="repro-bench-store-")
        try:
            data_dir = populate(scratch, n_txns)
            started = time.perf_counter()
            replayed = recover(data_dir)
            timings[n_txns] = (time.perf_counter() - started) * 1000
            assert replayed == n_txns
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    # benchmark the longest log's recovery path
    scratch = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        data_dir = populate(scratch, lengths[-1])
        benchmark(recover, data_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    benchmark.extra_info["recovery_ms_by_txns"] = {
        str(k): round(v, 2) for k, v in timings.items()}
    show("Recovery time vs WAL length",
         "  ".join(f"{k} txns: {v:.1f}ms" for k, v in timings.items()))


def test_cold_vs_warm_first_query(benchmark):
    from repro.engine.catalog import Catalog
    from repro.serve.cache import CuboidCache
    from repro.serve.client import QueryClient
    from repro.serve.server import QueryServer

    def catalog():
        cat = Catalog()
        cat.register("FACTS", synthetic_table(SyntheticSpec(
            cardinalities=(8, 6, 5), n_rows=6000, seed=33)))
        return cat

    sql = ("SELECT d0, d1, d2, SUM(m) FROM FACTS "
           "GROUP BY CUBE d0, d1, d2")
    scratch = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        data_dir = os.path.join(scratch, "serve")
        with QueryServer(catalog(), cache=CuboidCache(), port=0,
                         data_dir=data_dir) as server:
            with QueryClient(*server.address) as client:
                started = time.perf_counter()
                cold_rows = sorted(map(repr, client.execute(sql).rows))
                cold_ms = (time.perf_counter() - started) * 1000

        def warm_first_query():
            with QueryServer(catalog(), cache=CuboidCache(), port=0,
                             data_dir=data_dir) as server:
                assert server.restored_entries >= 1
                with QueryClient(*server.address) as client:
                    started = time.perf_counter()
                    rows = sorted(map(repr, client.execute(sql).rows))
                    elapsed = (time.perf_counter() - started) * 1000
                    hits = client.stats()["cache"]["hits"]
            return rows, elapsed, hits

        rows, warm_ms, hits = benchmark(warm_first_query)
        assert rows == cold_rows
        assert hits >= 1  # answered from the recovered cuboid
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    benchmark.extra_info["cold_first_query_ms"] = round(cold_ms, 2)
    benchmark.extra_info["warm_first_query_ms"] = round(warm_ms, 2)
    show("Cold vs warm restart first-query latency",
         f"cold (computed): {cold_ms:.1f}ms  "
         f"warm (recovered cuboid): {warm_ms:.1f}ms")
