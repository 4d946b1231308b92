"""Property tests for the ComputeStats contract across algorithms.

Invariants that hold for every algorithm on every input (the
Iter/Final accounting of Figure 7):

- ``end_calls == cells_produced * n_functions`` -- exactly one Final
  per aggregate per emitted cell;
- ``start_calls >= cells_produced`` -- every emitted cell was Init'd
  at least once (algorithms may Init transient scratchpads too);
- ``cells_produced`` equals the result relation's row count;
- ``merged()`` is associative, so partition-parallel coalescing is
  order-insensitive.
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.aggregates import CountStar, Sum
from repro.compute import build_task
from repro.compute.optimizer import ALGORITHMS, make_algorithm
from repro.compute.stats import COUNTER_FIELDS, ComputeStats
from repro.core.grouping import cube_sets
from repro.engine.groupby import AggregateSpec
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.types import DataType

N_DIMS = 2


def make_table(rows):
    schema = Schema([Column("d0", DataType.STRING),
                     Column("d1", DataType.INTEGER),
                     Column("m", DataType.FLOAT, nullable=True)])
    return Table(schema, rows)


def make_task(rows, n_functions):
    functions = [AggregateSpec(Sum(), "m", "s"),
                 AggregateSpec(CountStar(), "*", "n")][:n_functions]
    return build_task(make_table(rows), ["d0", "d1"], functions,
                      cube_sets(N_DIMS))


row_strategy = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=1, max_value=3),
    st.one_of(st.none(), st.integers(min_value=-5, max_value=5)
              .map(float)))


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(row_strategy, max_size=25),
       name=st.sampled_from(sorted(ALGORITHMS)),
       n_functions=st.integers(min_value=1, max_value=2))
def test_stats_invariants_all_algorithms(rows, name, n_functions):
    if name == "external":
        algorithm = make_algorithm(name, memory_budget=4)  # force spills
    else:
        algorithm = make_algorithm(name)
    result = algorithm.compute(make_task(rows, n_functions))
    stats = result.stats

    assert stats.cells_produced == len(result.table)
    assert stats.end_calls == stats.cells_produced * n_functions
    assert stats.start_calls >= stats.cells_produced
    for field in COUNTER_FIELDS:
        assert getattr(stats, field) >= 0
    assert stats.max_resident_cells >= 0


def stats_strategy():
    counters = {field: st.integers(min_value=0, max_value=100)
                for field in COUNTER_FIELDS}
    counters["max_resident_cells"] = st.integers(min_value=0, max_value=100)
    return st.fixed_dictionaries(counters).map(
        lambda values: ComputeStats(algorithm="prop", **values))


def clone(stats):
    return dataclasses.replace(stats, notes=dict(stats.notes))


@settings(max_examples=50, deadline=None)
@given(a=stats_strategy(), b=stats_strategy(), c=stats_strategy())
def test_merged_is_associative(a, b, c):
    left = clone(a).merged(clone(b)).merged(clone(c))
    bc = clone(b).merged(clone(c))
    right = clone(a).merged(bc)
    for field in COUNTER_FIELDS:
        assert getattr(left, field) == getattr(right, field)
    assert left.max_resident_cells == right.max_resident_cells


@settings(max_examples=50, deadline=None)
@given(a=stats_strategy(), b=stats_strategy())
def test_merged_sums_counters_and_maxes_residency(a, b):
    expected = {field: getattr(a, field) + getattr(b, field)
                for field in COUNTER_FIELDS}
    expected_resident = max(a.max_resident_cells, b.max_resident_cells)
    merged = clone(a).merged(clone(b))
    for field in COUNTER_FIELDS:
        assert getattr(merged, field) == expected[field]
    assert merged.max_resident_cells == expected_resident


def test_parallel_resident_counts_live_worker_cubes():
    """The merge peak includes every worker-local core still alive
    while the coordinator folds it in -- not just the combined core."""
    rows = [("a", 1, 1.0), ("b", 2, 2.0)] * 3
    result = make_algorithm("parallel", n_workers=3).compute(
        make_task(rows, 1))
    # each of the 3 contiguous partitions holds both core cells, and the
    # combined core has the same 2; the whole lattice is only 7 cells
    # (2 core + 2 + 2 + the global total)
    assert len(result.table) == 7
    assert result.stats.max_resident_cells == 3 * 2 + 2
