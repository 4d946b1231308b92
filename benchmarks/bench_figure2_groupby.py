"""Experiment F2 -- Figure 2: GROUP BY partitions then aggregates.

Benchmarks the two physical GROUP BY strategies (hash, sort) on the
same grouping and asserts they agree -- the partition-then-aggregate
semantics of Figure 2.  A scaling sweep additionally pits the
vectorized columnar backend against the from-core row path on the full
cube of the same workload: results must be bit-identical, and with
numpy installed the largest size must clear a 5x speedup.
"""

import time

from repro.aggregates import Average, CountStar, Max, Min, Sum
from repro.compute import FromCoreAlgorithm, build_task
from repro.compute.columnar import ColumnarCubeAlgorithm, HAVE_NUMPY
from repro.core.grouping import cube_sets
from repro.data import SyntheticSpec, synthetic_table
from repro.engine.groupby import AggregateSpec, hash_group_by, sort_group_by

from conftest import show


def test_figure2_hash_group_by(benchmark, medium_fact):
    specs = [AggregateSpec(Sum(), "m", "total"),
             AggregateSpec(Average(), "m", "avg")]
    result = benchmark(hash_group_by, medium_fact, ["d0", "d1"], specs)
    assert len(result.table) == len(
        {row[:2] for row in medium_fact})  # one row per partition


def test_figure2_sort_group_by(benchmark, medium_fact):
    specs = [AggregateSpec(Sum(), "m", "total"),
             AggregateSpec(Average(), "m", "avg")]
    result = benchmark(sort_group_by, medium_fact, ["d0", "d1"], specs)
    hashed = hash_group_by(medium_fact, ["d0", "d1"], specs)
    assert result.table.equals_bag(hashed.table)


def test_figure2_groups_are_disjoint_and_cover(benchmark, medium_fact):
    """'It partitions the relation into disjoint tuple sets and then
    aggregates over each set' -- the group COUNTs add back to T."""
    from repro.aggregates import CountStar

    def total_of_counts():
        result = hash_group_by(medium_fact, ["d0"],
                               [AggregateSpec(CountStar(), "*", "n")])
        return sum(row[1] for row in result.table)

    total = benchmark(total_of_counts)
    assert total == len(medium_fact)
    show("Figure 2: GROUP BY partitions cover the input",
         f"sum of group counts = {total} = T")


def _aggregation_task(n_rows):
    table = synthetic_table(SyntheticSpec(
        cardinalities=(6, 5, 4), n_rows=n_rows, seed=21))
    specs = [AggregateSpec(Sum(), "m", "total"),
             AggregateSpec(Min(), "m", "lo"),
             AggregateSpec(Max(), "m", "hi"),
             AggregateSpec(Average(), "m", "avg"),
             AggregateSpec(CountStar(), "*", "n")]
    return build_task(table, ["d0", "d1", "d2"], specs, cube_sets(3))


def _bit_rows(table):
    return sorted(tuple(map(repr, row)) for row in table.rows)


def test_figure2_columnar_vs_row_path(benchmark):
    """The columnar hot path earns its keep on long scans: same cube,
    same bits, a multiple of the row path's throughput."""
    sizes = (2000, 8000, 32000)
    row_path = FromCoreAlgorithm()
    columnar = ColumnarCubeAlgorithm()
    speedups = {}
    for n_rows in sizes:
        task = _aggregation_task(n_rows)
        t_row = min(_timed(row_path, task) for _ in range(3))
        t_col = min(_timed(columnar, task) for _ in range(3))
        assert _bit_rows(columnar.compute(task).table) == \
            _bit_rows(row_path.compute(task).table), n_rows
        speedups[n_rows] = t_row / t_col
    largest = sizes[-1]
    task = _aggregation_task(largest)
    result = benchmark(columnar.compute, task)
    benchmark.extra_info["counters"] = result.stats.as_dict()
    # without numpy the columnar cube is the row path's ("fallback")
    benchmark.extra_info["route"] = result.stats.notes.get(
        "route", result.stats.notes.get("fallback"))
    benchmark.extra_info["speedup_vs_row_path"] = {
        str(n): round(s, 2) for n, s in speedups.items()}
    show("Columnar vs row-path cube (bit-identical)",
         "\n".join(f"rows={n}: {s:.1f}x" for n, s in speedups.items()))
    if HAVE_NUMPY:
        assert speedups[largest] >= 5.0, (
            f"columnar speedup regressed: {speedups[largest]:.1f}x < 5x "
            f"at {largest} rows")


def _timed(algorithm, task):
    started = time.perf_counter()
    algorithm.compute(task)
    return time.perf_counter() - started
