"""Cross-algorithm equivalence, property-based.

Every algorithm must produce the identical bag of cube rows on any
input -- the central correctness property.  hypothesis generates random
relations (dimension counts, cardinalities, NULLs, duplicates) and the
suite cross-checks every algorithm against the naive union.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Table
from repro.aggregates import Average, Count, CountStar, Max, Median, Min, Sum
from repro.compute import (
    ArrayCubeAlgorithm,
    ColumnarCubeAlgorithm,
    ExternalCubeAlgorithm,
    FromCoreAlgorithm,
    NaiveUnionAlgorithm,
    ParallelCubeAlgorithm,
    SortCubeAlgorithm,
    TwoNAlgorithm,
    build_task,
)
from repro.compute.columnar import HAVE_NUMPY
from repro.core.grouping import cube_sets, rollup_sets
from repro.engine.groupby import AggregateSpec

from repro.compute import PipeSortAlgorithm
from repro.cluster import ClusterCubeAlgorithm

MERGEABLE_ALGORITHMS = [
    TwoNAlgorithm(),
    FromCoreAlgorithm(),
    SortCubeAlgorithm(),
    PipeSortAlgorithm(),
    ExternalCubeAlgorithm(memory_budget=4),
    ParallelCubeAlgorithm(n_workers=3, use_threads=False),
    ColumnarCubeAlgorithm(),
    ColumnarCubeAlgorithm(mode="dense"),
    ClusterCubeAlgorithm(n_workers=2),
]


def random_tables(max_dims=3, allow_nulls=True):
    """Strategy: (n_dims, rows) with string dims and int measures."""
    dim_value = st.sampled_from(["a", "b", "c", "d"])
    if allow_nulls:
        dim_value = st.one_of(dim_value, st.none())
    measure = st.one_of(st.integers(-50, 50), st.none())
    return st.integers(1, max_dims).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(*([dim_value] * n), measure),
                min_size=0, max_size=25)))


def build(n_dims, rows, specs, masks=None):
    columns = [(f"d{i}", "STRING") for i in range(n_dims)]
    columns.append(("x", "INTEGER"))
    table = Table(columns, rows)
    dims = [f"d{i}" for i in range(n_dims)]
    return build_task(table, dims, specs,
                      masks if masks is not None else cube_sets(n_dims))


class TestCrossAlgorithmEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(data=random_tables())
    def test_all_algorithms_agree_on_sum_count(self, data):
        n_dims, rows = data
        specs = [AggregateSpec(Sum(), "x", "s"),
                 AggregateSpec(Count(), "x", "c"),
                 AggregateSpec(CountStar(), "*", "n")]
        task = build(n_dims, rows, specs)
        reference = NaiveUnionAlgorithm().compute(task).table
        for algorithm in MERGEABLE_ALGORITHMS:
            result = algorithm.compute(task).table
            assert result.equals_bag(reference), algorithm.name

    @settings(max_examples=40, deadline=None)
    @given(data=random_tables())
    def test_array_agrees_on_distributive(self, data):
        n_dims, rows = data
        specs = [AggregateSpec(Sum(), "x", "s"),
                 AggregateSpec(Min(), "x", "lo"),
                 AggregateSpec(Max(), "x", "hi")]
        task = build(n_dims, rows, specs)
        reference = NaiveUnionAlgorithm().compute(task).table
        assert ArrayCubeAlgorithm().compute(task).table.equals_bag(reference)

    @settings(max_examples=40, deadline=None)
    @given(data=random_tables())
    def test_algebraic_merge_is_exact(self, data):
        n_dims, rows = data
        specs = [AggregateSpec(Average(), "x", "avg")]
        task = build(n_dims, rows, specs)
        reference = NaiveUnionAlgorithm().compute(task).table
        from_core = FromCoreAlgorithm().compute(task).table
        assert from_core.equals_bag(reference)

    @settings(max_examples=30, deadline=None)
    @given(data=random_tables(max_dims=2))
    def test_holistic_via_twon_matches_carrying_from_core(self, data):
        n_dims, rows = data
        strict_task = build(n_dims, rows,
                            [AggregateSpec(Median(carrying=False), "x",
                                           "m")])
        carrying_task = build(n_dims, rows,
                              [AggregateSpec(Median(carrying=True), "x",
                                             "m")])
        strict = TwoNAlgorithm().compute(strict_task).table
        carrying = FromCoreAlgorithm().compute(carrying_task).table
        assert strict.equals_bag(carrying)

    @settings(max_examples=40, deadline=None)
    @given(data=random_tables())
    def test_rollup_masks_agree(self, data):
        n_dims, rows = data
        specs = [AggregateSpec(Sum(), "x", "s")]
        masks = rollup_sets(n_dims)
        task = build(n_dims, rows, specs, masks=masks)
        reference = NaiveUnionAlgorithm().compute(task).table
        for algorithm in MERGEABLE_ALGORITHMS:
            assert algorithm.compute(task).table.equals_bag(reference), \
                algorithm.name


def _bit_rows(table):
    """Rows as (type-name, repr) pairs, sorted: repr of a float is its
    shortest round-trip form, so equal pairs means bit-identical values
    and no silent int/float coercion between algorithms."""
    return sorted(tuple((type(v).__name__, repr(v)) for v in row)
                  for row in table.rows)


class TestColumnarBitIdentity:
    """The adversarial workload from the columnar bugfix sweep: NaN
    floats, NULL measures, all-NULL (empty) groups, and a distributive +
    holistic aggregate mix.  Every algorithm pair -- columnar included,
    on both backends and both routes -- must be *bit-identical*, not
    just bag-equal."""

    NAN = float("nan")
    ROWS = [
        ("a", "x", 1.5, 10),
        ("a", "x", NAN, None),     # NaN must not poison MIN/MAX
        ("a", "y", -2.25, 3),
        ("b", "x", NAN, 7),
        ("b", None, 0.5, None),    # NULL dimension value
        ("b", "y", None, -4),      # NULL measure
        (None, "y", 3.75, 12),
        ("c", "x", NAN, None),     # group whose MIN/MAX/SUM are all NULL
        ("c", "x", None, None),
        ("a", "x", 1.5, 10),       # exact duplicate row
        ("d", "y", 2.0, 5),        # integral floats: MIN/MAX/SUM must
        ("d", "y", 4.0, None),     # come back 2.0/4.0/6.0, never 2/4/6
    ]

    def _task(self, specs):
        table = Table([("d0", "STRING"), ("d1", "STRING"),
                       ("f", "FLOAT"), ("x", "INTEGER")], self.ROWS)
        return build_task(table, ["d0", "d1"], specs, cube_sets(2))

    def _specs(self):
        return [AggregateSpec(Sum(), "x", "s"),
                AggregateSpec(Sum(), "f", "fs"),
                AggregateSpec(Min(), "f", "lo"),
                AggregateSpec(Max(), "f", "hi"),
                AggregateSpec(Count(), "f", "c"),
                AggregateSpec(CountStar(), "*", "n"),
                AggregateSpec(Average(), "x", "avg"),
                AggregateSpec(Median(carrying=True), "x", "med")]

    def test_all_algorithm_pairs_bit_identical(self):
        task = self._task(self._specs())
        results = {"naive": _bit_rows(
            NaiveUnionAlgorithm().compute(task).table)}
        for algorithm in MERGEABLE_ALGORITHMS:
            key = f"{algorithm.name}:{id(algorithm)}"
            results[key] = _bit_rows(algorithm.compute(task).table)
        reference = results["naive"]
        for key, rows in results.items():
            assert rows == reference, f"{key} diverged from naive union"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_columnar_residual_notes(self):
        """Median has no vector kernel, so columnar must take the
        residual path for it and still agree."""
        task = self._task(self._specs())
        result = ColumnarCubeAlgorithm().compute(task)
        assert result.stats.notes.get("residual") == ["MEDIAN"]

    def test_empty_input_all_algorithms(self):
        table = Table([("d0", "STRING"), ("d1", "STRING"),
                       ("f", "FLOAT"), ("x", "INTEGER")])
        task = build_task(table, ["d0", "d1"], self._specs(), cube_sets(2))
        reference = _bit_rows(NaiveUnionAlgorithm().compute(task).table)
        for algorithm in MERGEABLE_ALGORITHMS:
            assert _bit_rows(algorithm.compute(task).table) == reference

    def test_mixed_int_float_column_stays_exact(self):
        """A measure column mixing int- and float-typed values: the
        winner's *type* in MIN/MAX depends on which value won, which a
        float64 buffer can't represent -- so the numpy backend must
        route extremes through the exact row path (SUM stays
        vectorized: any float in a group makes the row path's sum a
        float, which the kernels reproduce)."""
        rows = [("a", "x", 2, 1), ("a", "x", 3.0, 2), ("a", "y", 2.0, 3),
                ("b", "x", 5, 4), ("b", "x", 1.5, 5), ("b", "y", 7, 6)]
        table = Table([("d0", "STRING"), ("d1", "STRING"),
                       ("m", "ANY"), ("x", "INTEGER")], rows)
        specs = [AggregateSpec(Min(), "m", "lo"),
                 AggregateSpec(Max(), "m", "hi"),
                 AggregateSpec(Sum(), "m", "s")]
        task = build_task(table, ["d0", "d1"], specs, cube_sets(2))
        reference = _bit_rows(FromCoreAlgorithm().compute(task).table)
        for mode in ("sparse", "dense"):
            algorithm = ColumnarCubeAlgorithm(mode=mode)
            assert _bit_rows(algorithm.compute(task).table) == \
                reference, mode
        if HAVE_NUMPY:
            result = ColumnarCubeAlgorithm().compute(task)
            assert result.stats.notes.get("residual") == ["MIN", "MAX"]

    @settings(max_examples=40, deadline=None)
    @given(data=random_tables())
    def test_columnar_matches_from_core_bitwise(self, data):
        n_dims, rows = data
        specs = [AggregateSpec(Sum(), "x", "s"),
                 AggregateSpec(Min(), "x", "lo"),
                 AggregateSpec(Average(), "x", "avg"),
                 AggregateSpec(CountStar(), "*", "n")]
        task = build(n_dims, rows, specs)
        reference = _bit_rows(FromCoreAlgorithm().compute(task).table)
        for mode in ("sparse", "dense"):
            algorithm = ColumnarCubeAlgorithm(mode=mode)
            assert _bit_rows(algorithm.compute(task).table) == \
                reference, mode


class TestStructuralInvariants:
    @settings(max_examples=50, deadline=None)
    @given(data=random_tables(allow_nulls=False))
    def test_cube_cardinality_law(self, data):
        """Dense inputs obey the paper's law exactly: Π(Ci + 1)."""
        n_dims, rows = data
        if not rows:
            return
        task = build(n_dims, rows, [AggregateSpec(CountStar(), "*", "n")])
        result = TwoNAlgorithm().compute(task).table
        cardinalities = task.cardinalities()
        import math
        upper = math.prod(c + 1 for c in cardinalities)
        assert len(result) <= upper
        # exact when the core is the full cross product
        core_size = len({task.dim_values(r) for r in task.rows})
        if core_size == math.prod(cardinalities):
            assert len(result) == upper

    @settings(max_examples=50, deadline=None)
    @given(data=random_tables())
    def test_rollup_subset_of_cube(self, data):
        n_dims, rows = data
        specs = [AggregateSpec(Sum(), "x", "s")]
        cube_result = TwoNAlgorithm().compute(
            build(n_dims, rows, specs)).table
        rollup_result = TwoNAlgorithm().compute(
            build(n_dims, rows, specs, masks=rollup_sets(n_dims))).table
        assert set(rollup_result.rows) <= set(cube_result.rows)

    @settings(max_examples=50, deadline=None)
    @given(data=random_tables())
    def test_global_total_consistency(self, data):
        """The (ALL,...,ALL) SUM equals the plain column sum."""
        from repro.types import ALL
        n_dims, rows = data
        task = build(n_dims, rows, [AggregateSpec(Sum(), "x", "s")])
        result = TwoNAlgorithm().compute(task).table
        total_row = [row for row in result
                     if all(v is ALL for v in row[:n_dims])]
        assert len(total_row) == 1
        real = [r[-1] for r in rows if r[-1] is not None]
        expected = sum(real) if real else None
        assert total_row[0][-1] == expected
