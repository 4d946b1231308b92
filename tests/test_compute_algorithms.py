"""Per-algorithm behaviour and the Section 5 cost-shape claims,
checked on machine-independent counters."""

import pytest

from repro import Table, agg
from repro.aggregates import Median, Sum
from repro.compute import (
    ArrayCubeAlgorithm,
    ExternalCubeAlgorithm,
    FromCoreAlgorithm,
    NaiveUnionAlgorithm,
    ParallelCubeAlgorithm,
    SortCubeAlgorithm,
    TwoNAlgorithm,
    build_task,
)
from repro.core.grouping import GroupingSpec, cube_sets
from repro.engine.groupby import AggregateSpec
from repro.errors import CubeError, NotMergeableError
from repro.types import ALL


def make_task(table, dims, functions=None, masks=None):
    functions = functions or [AggregateSpec(Sum(), "Units", "u")]
    masks = masks if masks is not None else cube_sets(len(dims))
    return build_task(table, dims, functions, masks)


@pytest.fixture
def task(sales):
    return make_task(sales, ["Model", "Year", "Color"])


@pytest.fixture
def reference(task):
    return NaiveUnionAlgorithm().compute(task).table


class TestNaiveUnion:
    def test_scans_equal_2n(self, task):
        # "64 scans of the data" for 6D; here 2^3 = 8
        result = NaiveUnionAlgorithm().compute(task)
        assert result.stats.base_scans == 8

    def test_cardinality(self, task):
        result = NaiveUnionAlgorithm().compute(task)
        assert len(result.table) == 27


class TestTwoN:
    def test_single_scan(self, task):
        assert TwoNAlgorithm().compute(task).stats.base_scans == 1

    def test_iter_calls_are_t_times_2n(self, task, sales):
        # "the 2^N-algorithm invokes the Iter() function T x 2^N times"
        stats = TwoNAlgorithm().compute(task).stats
        assert stats.iter_calls == len(sales) * 2 ** 3

    def test_matches_reference(self, task, reference):
        assert TwoNAlgorithm().compute(task).table.equals_bag(reference)

    def test_handles_holistic(self, sales, reference):
        task = make_task(sales, ["Model", "Year", "Color"],
                         [AggregateSpec(Median(carrying=False), "Units",
                                        "u")])
        result = TwoNAlgorithm().compute(task)
        assert len(result.table) == 27  # runs fine in strict mode


class TestFromCore:
    def test_single_scan_and_t_iter_calls(self, task, sales):
        # super-aggregates come from merges, not Iter: exactly T calls
        stats = FromCoreAlgorithm().compute(task).stats
        assert stats.base_scans == 1
        assert stats.iter_calls == len(sales)
        assert stats.merge_calls > 0

    def test_iter_reduction_factor(self, sales):
        # "reducing the number of calls by approximately a factor of T"
        task = make_task(sales, ["Model", "Year", "Color"])
        twon = TwoNAlgorithm().compute(task).stats
        core = FromCoreAlgorithm().compute(task).stats
        assert twon.iter_calls / core.iter_calls == 2 ** 3

    def test_matches_reference(self, task, reference):
        assert FromCoreAlgorithm().compute(task).table.equals_bag(reference)

    def test_rejects_strict_holistic(self, sales):
        task = make_task(sales, ["Model"],
                         [AggregateSpec(Median(carrying=False), "Units",
                                        "u")])
        with pytest.raises(NotMergeableError):
            FromCoreAlgorithm().compute(task)

    def test_carrying_holistic_works(self, sales):
        task = make_task(sales, ["Model"],
                         [AggregateSpec(Median(carrying=True), "Units",
                                        "u")])
        result = FromCoreAlgorithm().compute(task)
        rows = {row[0]: row[1] for row in result.table}
        assert rows[ALL] == Median().aggregate(
            sales.column_values("Units"))

    def test_rollup_masks(self, sales, reference):
        spec = GroupingSpec.for_rollup(("Model", "Year", "Color"))
        task = make_task(sales, ["Model", "Year", "Color"],
                         masks=spec.grouping_sets())
        result = FromCoreAlgorithm().compute(task)
        assert len(result.table) == 15
        assert set(result.table.rows) <= set(reference.rows)


class TestArray:
    def test_matches_reference(self, task, reference):
        assert ArrayCubeAlgorithm().compute(task).table.equals_bag(reference)

    def test_projection_order_smallest_first(self, sales):
        # Model has 2 values, Year 2, Color 2 -- tie; use figure4 where
        # Model(2) < Year(3) = Color(3)
        from repro.data import figure4_sales_table
        task = make_task(figure4_sales_table(), ["Year", "Model", "Color"])
        stats = ArrayCubeAlgorithm().compute(task).stats
        assert stats.notes["projection_order"][0] == "Model"

    def test_rejects_non_distributive(self, sales):
        from repro.aggregates import Average
        task = make_task(sales, ["Model"],
                         [AggregateSpec(Average(), "Units", "u")])
        with pytest.raises(CubeError):
            ArrayCubeAlgorithm().compute(task)

    def test_rejects_non_numeric(self):
        table = Table([("g", "STRING"), ("x", "STRING")],
                      [("a", "hello")])
        task = make_task(table, ["g"],
                         [AggregateSpec(Sum(), "x", "u")])
        with pytest.raises(CubeError):
            ArrayCubeAlgorithm().compute(task)

    def test_null_only_cells_give_null_sum(self):
        table = Table([("g", "STRING"), ("x", "INTEGER")],
                      [("a", None), ("b", 5)])
        task = make_task(table, ["g"], [AggregateSpec(Sum(), "x", "u")])
        result = ArrayCubeAlgorithm().compute(task).table
        rows = {row[0]: row[1] for row in result}
        assert rows["a"] is None
        assert rows["b"] == 5

    def test_min_max_count(self, sales, task):
        functions = [AggregateSpec(Sum(), "Units", "s")]
        from repro.aggregates import Count, CountStar, Max, Min
        task = make_task(sales, ["Model", "Year"], [
            AggregateSpec(Min(), "Units", "lo"),
            AggregateSpec(Max(), "Units", "hi"),
            AggregateSpec(Count(), "Units", "n"),
            AggregateSpec(CountStar(), "*", "rows"),
        ])
        reference = NaiveUnionAlgorithm().compute(task).table
        assert ArrayCubeAlgorithm().compute(task).table.equals_bag(reference)

    def test_integral_float_results_stay_floats(self):
        # the row path's SUM of 1.5 + 2.5 is 4.0, and MIN/MAX over
        # floats return floats: repr-identical, not merely equal
        from repro.aggregates import Max, Min
        table = Table([("g", "STRING"), ("x", "FLOAT")],
                      [("a", 1.5), ("a", 2.5), ("b", 2.0)])
        task = make_task(table, ["g"], [AggregateSpec(Sum(), "x", "s"),
                                        AggregateSpec(Min(), "x", "lo"),
                                        AggregateSpec(Max(), "x", "hi")])
        reference = NaiveUnionAlgorithm().compute(task).table
        result = ArrayCubeAlgorithm().compute(task).table
        assert sorted(map(repr, result.rows)) == \
            sorted(map(repr, reference.rows))

    def test_empty_input(self):
        table = Table([("g", "STRING"), ("x", "INTEGER")])
        task = make_task(table, ["g"], [AggregateSpec(Sum(), "x", "u")])
        result = ArrayCubeAlgorithm().compute(task).table
        assert result.rows == [(ALL, None)]

    @pytest.mark.parametrize("backend", ["installed", "python"])
    @pytest.mark.parametrize("rows,function", [
        ([("a", 2 ** 53), ("a", 1), ("b", 3)], "SUM"),  # past float64
        ([("a", 2 ** 53 + 1), ("b", 3)], "MAX"),
        ([("a", -0.0)], "SUM"),
        ([("a", 3.0), ("a", 2), ("b", 1)], "MAX"),  # mixed int/float
    ], ids=["sum-2^53", "max-2^53", "sum-negative-zero", "max-mixed"])
    def test_exact_like_the_row_path(self, rows, function, backend,
                                     monkeypatch):
        from repro.aggregates import Max
        from repro.compute.columnar import batch
        if backend == "python":
            monkeypatch.setattr(batch, "_numpy", None)
        fn = Sum() if function == "SUM" else Max()
        table = Table([("d", "STRING"), ("v", "ANY")], rows)
        task = make_task(table, ["d"], [AggregateSpec(fn, "v", "x")])
        reference = NaiveUnionAlgorithm().compute(task).table
        result = ArrayCubeAlgorithm().compute(task).table
        assert sorted(map(repr, result.rows)) == \
            sorted(map(repr, reference.rows))


class TestSort:
    def test_matches_reference(self, task, reference):
        assert SortCubeAlgorithm().compute(task).table.equals_bag(reference)

    def test_chain_count_is_binomial(self, task):
        # C(3, 1) = 3 chains for a 3D cube
        stats = SortCubeAlgorithm().compute(task).stats
        assert stats.notes["chains"] == 3
        assert stats.sort_operations == 3

    def test_rollup_is_one_sort(self, sales):
        spec = GroupingSpec.for_rollup(("Model", "Year", "Color"))
        task = make_task(sales, ["Model", "Year", "Color"],
                         masks=spec.grouping_sets())
        stats = SortCubeAlgorithm().compute(task).stats
        assert stats.sort_operations == 1  # a rollup is a single chain
        assert stats.notes["decomposition"] == "greedy"

    def test_resident_cells_bounded_by_chain_length(self, task):
        # only one chain's open scratchpads are live at a time
        stats = SortCubeAlgorithm().compute(task).stats
        assert stats.max_resident_cells <= 4  # longest chain in 3D


class TestExternal:
    def test_matches_reference(self, task, reference):
        result = ExternalCubeAlgorithm(memory_budget=3).compute(task)
        assert result.table.equals_bag(reference)

    def test_partitions_scale_with_budget(self, task):
        tight = ExternalCubeAlgorithm(memory_budget=2).compute(task).stats
        loose = ExternalCubeAlgorithm(memory_budget=100).compute(task).stats
        assert tight.partitions > loose.partitions
        assert loose.partitions == 1
        assert loose.spills == 0

    def test_two_passes(self, task):
        stats = ExternalCubeAlgorithm(memory_budget=2).compute(task).stats
        assert stats.passes == 2

    def test_invalid_budget(self):
        with pytest.raises(CubeError):
            ExternalCubeAlgorithm(memory_budget=0)

    def test_rejects_strict_holistic(self, sales):
        task = make_task(sales, ["Model"],
                         [AggregateSpec(Median(carrying=False), "Units",
                                        "u")])
        with pytest.raises(NotMergeableError):
            ExternalCubeAlgorithm().compute(task)


class TestParallel:
    def test_matches_reference(self, task, reference):
        for workers in (1, 2, 4, 7):
            result = ParallelCubeAlgorithm(n_workers=workers).compute(task)
            assert result.table.equals_bag(reference)

    def test_sequential_mode_matches(self, task, reference):
        result = ParallelCubeAlgorithm(n_workers=3,
                                       use_threads=False).compute(task)
        assert result.table.equals_bag(reference)

    def test_partition_count(self, task):
        stats = ParallelCubeAlgorithm(n_workers=4).compute(task).stats
        assert stats.partitions == 4

    def test_rejects_strict_holistic(self, sales):
        task = make_task(sales, ["Model"],
                         [AggregateSpec(Median(carrying=False), "Units",
                                        "u")])
        with pytest.raises(NotMergeableError):
            ParallelCubeAlgorithm().compute(task)

    def test_invalid_workers(self):
        with pytest.raises(CubeError):
            ParallelCubeAlgorithm(n_workers=0)


class TestEmptyInput:
    @pytest.mark.parametrize("algorithm", [
        NaiveUnionAlgorithm(), TwoNAlgorithm(), FromCoreAlgorithm(),
        SortCubeAlgorithm(), ExternalCubeAlgorithm(),
        ParallelCubeAlgorithm(n_workers=2),
    ], ids=lambda a: a.name)
    def test_global_total_row_survives(self, algorithm):
        table = Table([("g", "STRING"), ("x", "INTEGER")])
        task = make_task(table, ["g"],
                         [AggregateSpec(Sum(), "x", "u")])
        result = algorithm.compute(task).table
        assert result.rows == [(ALL, None)]
