"""Experiment C2 -- the distributive / algebraic / holistic trichotomy.

Measures the consequence the paper derives from the taxonomy: holistic
functions must take the 2^N path (and pay for it), while distributive
and algebraic functions compute from the core.  Also measures the
carrying-mode holistic scratchpad blow-up, quantifying *why* the paper
calls constant-size scratchpads "the key to algebraic functions".
"""

import pytest

from repro import agg
from repro.aggregates import Median, Sum, Average
from repro.compute import FromCoreAlgorithm, TwoNAlgorithm, build_task
from repro.core.cube import cube_with_stats
from repro.core.grouping import cube_sets
from repro.engine.groupby import AggregateSpec

from conftest import show


def task_for(table, fn):
    return build_task(table, ["d0", "d1", "d2"],
                      [AggregateSpec(fn, "m", "v")], cube_sets(3))


@pytest.mark.parametrize("function,expected", [
    ("SUM", "columnar"),
    ("AVG", "columnar"),
    ("MEDIAN", "2^N"),
], ids=["distributive", "algebraic", "holistic"])
def test_optimizer_routes_by_class(benchmark, medium_fact, function,
                                   expected):
    if function == "MEDIAN":
        aggregates = [agg(Median(carrying=False), "m", "v")]
    else:
        aggregates = [agg(function, "m", "v")]
    result = benchmark(cube_with_stats, medium_fact, ["d0", "d1", "d2"],
                       aggregates)
    assert result.stats.algorithm == expected
    if expected == "columnar":  # 2,000 rows: past COLUMNAR_ROW_THRESHOLD
        assert result.stats.notes["route"] == "dense"
        assert result.stats.base_scans == 1


def test_holistic_pays_txn_iter_calls(benchmark, medium_fact):
    """Holistic: T x 2^N Iter calls (no shortcut exists)."""
    task = task_for(medium_fact, Median(carrying=False))
    stats = benchmark(TwoNAlgorithm().compute, task).stats
    assert stats.iter_calls == len(medium_fact) * 8


def test_distributive_computes_from_core_cheaply(benchmark, medium_fact):
    task = task_for(medium_fact, Sum())
    stats = benchmark(FromCoreAlgorithm().compute, task).stats
    assert stats.iter_calls == len(medium_fact)


def test_carrying_holistic_scratchpads_are_unbounded(benchmark,
                                                     medium_fact):
    """Carrying-mode holistic 'works' but its scratchpads hold the whole
    multiset -- the grand-total cell carries all T values, exactly the
    unboundedness that defines holistic functions (contrast AVG's
    2-tuple)."""
    values = medium_fact.column_values("m")

    def total_scratchpad_length():
        fn = Median(carrying=True)
        # core scratchpads, one per group, then merged into the total --
        # the same dataflow the from-core cube performs
        core = {}
        for row, value in zip(medium_fact.rows, values):
            handle = core.setdefault(row[:3], fn.start())
            fn.next(handle, value)
        total = fn.start()
        for handle in core.values():
            total = fn.merge(total, handle)
        return len(total)

    carried = benchmark(total_scratchpad_length)
    assert carried == len(medium_fact)  # the whole multiset, not O(1)
    from repro.aggregates import Average as Avg
    avg_handle = Avg().start()
    for value in values:
        avg_handle = Avg().next(avg_handle, value)
    assert len(avg_handle) == 2  # the algebraic contrast


def test_algebraic_handle_is_constant_size(benchmark, medium_fact):
    """AVG's scratchpad is the fixed (sum, count) pair at every level --
    merging never grows it."""
    fn = Average()
    handle = fn.start()
    for value in range(1000):
        handle = fn.next(handle, value)
    assert len(handle) == 2  # still an M-tuple, M = 2

    def cube_avg():
        task = task_for(medium_fact, Average())
        return FromCoreAlgorithm().compute(task)

    result = benchmark(cube_avg)
    assert result.stats.cells_produced == len(result.table)
    show("taxonomy: AVG handle stays (sum, count) through "
         f"{result.stats.merge_calls} merges", str(handle)[:60])
