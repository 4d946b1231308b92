"""The columnar backend in isolation: batch encoding, kernel parity
between the numpy and pure-python implementations, route selection,
and optimizer integration.

Cross-algorithm agreement lives in test_compute_equivalence.py; these
tests pin the pieces the equivalence suite cannot see (handle formats,
encoding order, notes, the threshold gate).
"""

import math

import pytest

from repro import Table
from repro.aggregates import (
    Average,
    Count,
    CountStar,
    Max,
    Median,
    Min,
    Sum,
    Variance,
)
from repro.compute import build_task, choose_algorithm
from repro.compute.columnar import (
    COLUMNAR_ROW_THRESHOLD,
    ColumnarCubeAlgorithm,
    ColumnBatch,
    HAVE_NUMPY,
    KERNELS,
    kernel_for,
    kernel_needs_numeric,
)
from repro.compute.columnar.batch import numpy_backend
from repro.compute.columnar.kernels import make_state
from repro.compute.optimizer import explain_choice
from repro.core.grouping import cube_sets
from repro.engine.groupby import AggregateSpec

NAN = float("nan")


def make_task(rows, specs, n_dims=2):
    columns = [(f"d{i}", "STRING") for i in range(n_dims)]
    columns += [("f", "FLOAT"), ("x", "ANY")]
    table = Table(columns, rows)
    dims = [f"d{i}" for i in range(n_dims)]
    return build_task(table, dims, specs, cube_sets(n_dims))


class TestColumnBatch:
    def test_dict_encoding_is_first_seen_order(self):
        batch = ColumnBatch.from_columns(
            {"d": ["b", "a", "b", "c", "a"]}, {})
        column = batch.dims[0]
        assert column.values == ["b", "a", "c"]
        assert list(column.codes) == [0, 1, 0, 2, 1]
        assert column.cardinality == 3
        assert batch.cardinalities() == [3]

    def test_null_dimension_values_encode(self):
        batch = ColumnBatch.from_columns({"d": [None, "a", None]}, {})
        assert batch.dims[0].values == [None, "a"]
        assert list(batch.dims[0].codes) == [0, 1, 0]

    def test_numeric_detection(self):
        batch = ColumnBatch.from_columns({}, {
            "ints": [1, 2, None],
            "floats": [1.5, NAN, None],
            "strings": ["u", None, "v"],
            "bools": [True, False, None],
        })
        by_name = {column.name: column for column in batch.aggs}
        assert by_name["ints"].numeric
        assert by_name["floats"].numeric
        assert not by_name["strings"].numeric  # no float64 image
        assert not by_name["bools"].numeric    # bool is not a measure
        assert by_name["strings"].data is None

    def test_validity_and_nan_masks(self):
        batch = ColumnBatch.from_columns({}, {"f": [1.0, None, NAN]})
        column = batch.aggs[0]
        assert list(column.valid) == [1, 0, 1]  # NaN is a present value
        assert list(column.nan) == [0, 0, 1]

    def test_float_mask_and_mixed_detection(self):
        batch = ColumnBatch.from_columns({}, {
            "ints": [1, 2, None],
            "floats": [1.5, 2.0, None],
            "mixed": [1, 2.0, 3],
        })
        by_name = {column.name: column for column in batch.aggs}
        assert list(by_name["mixed"].floats) == [0, 1, 0]
        assert not by_name["ints"].mixed_number_types
        assert not by_name["floats"].mixed_number_types
        assert by_name["mixed"].mixed_number_types

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            ColumnBatch.from_columns({"d": ["a"]}, {"x": [1, 2]})

    def test_from_task_matches_row_layout(self):
        rows = [("a", "p", 1.0, 10), ("b", "q", NAN, None)]
        task = make_task(rows, [AggregateSpec(Sum(), "x", "s"),
                                AggregateSpec(Min(), "f", "lo")])
        batch = ColumnBatch.from_task(task)
        assert batch.n_rows == 2
        assert [c.name for c in batch.dims] == ["d0", "d1"]
        assert [c.name for c in batch.aggs] == ["s", "lo"]
        assert batch.aggs[0].raw == [10, None]
        assert batch.aggs[1].raw == [1.0, NAN]


class TestKernelRegistry:
    def test_every_tagged_aggregate_resolves(self):
        for fn, expected in ((CountStar(), "count_star"),
                             (Count(), "count"), (Sum(), "sum"),
                             (Min(), "min"), (Max(), "max"),
                             (Average(), "avg"), (Variance(), "var")):
            assert kernel_for(fn) == expected

    def test_holistic_has_no_kernel(self):
        assert kernel_for(Median()) is None

    def test_count_kernels_run_on_anything(self):
        assert not kernel_needs_numeric(CountStar())
        assert not kernel_needs_numeric(Count())
        assert kernel_needs_numeric(Sum())
        assert kernel_needs_numeric(Min())


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestKernelParity:
    """Both backends must finish to the same values through fn.end."""

    VALUES = [3, None, 1.5, NAN, -2, 7.25, None, 0, NAN, 4]
    SLOTS = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0]
    SIZE = 3

    def _handles(self, kernel_name, xp):
        import numpy as np
        batch = ColumnBatch.from_columns({}, {"x": list(self.VALUES)})
        column = batch.aggs[0]
        slots = (np.asarray(self.SLOTS, dtype=np.int64)
                 if xp is not None else self.SLOTS)
        state = make_state(kernel_name, self.SIZE, xp)
        state.scatter(slots, column)
        return [state.handle(i) for i in range(self.SIZE)]

    @pytest.mark.parametrize("kernel_name,fn", [
        ("count_star", CountStar()), ("count", Count()), ("sum", Sum()),
        ("min", Min()), ("max", Max()), ("avg", Average())])
    def test_backends_agree_exactly(self, kernel_name, fn):
        import numpy as np
        py = self._handles(kernel_name, None)
        vec = self._handles(kernel_name, np)
        # repr comparison: bit-exact for floats and NaN-safe
        assert [repr(fn.end(h)) for h in py] == \
            [repr(fn.end(h)) for h in vec]

    def test_var_backends_agree_approximately(self):
        import numpy as np
        fn = Variance()
        py = self._handles("var", None)
        vec = self._handles("var", np)
        for a, b in zip(py, vec):
            assert fn.end(a) == pytest.approx(fn.end(b), nan_ok=True)

    def test_integral_floats_keep_float_type(self):
        """Regression: the numpy decode used to intify every integral
        accumulator, so MIN over [2.0, 6.0] came back 2 where the row
        path holds 2.0."""
        import numpy as np
        batch = ColumnBatch.from_columns({}, {"x": [2.0, 4.0, 6.0, 8.0]})
        column = batch.aggs[0]
        slots = np.asarray([0, 1, 0, 1], dtype=np.int64)
        for kernel_name, fn in (("sum", Sum()), ("min", Min()),
                                ("max", Max()), ("avg", Average())):
            state = make_state(kernel_name, 2, np)
            state.scatter(slots, column)
            for group in range(2):
                value = fn.end(state.handle(group))
                assert type(value) is float, (kernel_name, value)

    def test_min_skips_nan_on_both_backends(self):
        import numpy as np
        for xp in (None, np):
            handles = self._handles("min", xp)
            assert not any(isinstance(h, float) and math.isnan(h)
                           for h in handles if h is not None)


class TestColumnarAlgorithm:
    ROWS = [("a", "p", 1.5, 10), ("a", "q", NAN, 3), ("b", "p", 2.0, None),
            ("b", "q", None, 7), ("a", "p", -1.0, 2)]
    SPECS = [AggregateSpec(Sum(), "x", "s"), AggregateSpec(Min(), "f", "lo"),
             AggregateSpec(CountStar(), "*", "n")]

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            ColumnarCubeAlgorithm(mode="bogus")

    def test_auto_routes_by_dense_budget(self):
        task = make_task(self.ROWS, self.SPECS)
        dense = ColumnarCubeAlgorithm(dense_budget=1 << 20).compute(task)
        sparse = ColumnarCubeAlgorithm(dense_budget=1).compute(task)
        assert dense.stats.notes["route"] == "dense"
        assert sparse.stats.notes["route"] == "sparse"
        assert dense.table.equals_bag(sparse.table)

    def test_backend_note(self):
        task = make_task(self.ROWS, self.SPECS)
        forced = ColumnarCubeAlgorithm(force_python=True).compute(task)
        assert forced.stats.notes["backend"] == "python"
        auto = ColumnarCubeAlgorithm().compute(task)
        expected = "numpy" if HAVE_NUMPY else "python"
        assert auto.stats.notes["backend"] == expected

    def test_all_holistic_falls_back_to_row_path(self):
        task = make_task(self.ROWS,
                         [AggregateSpec(Median(carrying=True), "x", "m")])
        result = ColumnarCubeAlgorithm().compute(task)
        assert result.stats.algorithm == "columnar"
        assert result.stats.notes["fallback"] == "from-core"

    def test_non_numeric_measure_joins_residual(self):
        rows = [("a", "p", 1.0, "u"), ("b", "q", 2.0, "v"),
                ("a", "q", 3.0, "u")]
        specs = [AggregateSpec(Min(), "f", "lo"),
                 AggregateSpec(Max(), "x", "hi")]  # MAX over strings
        task = make_task(rows, specs)
        result = ColumnarCubeAlgorithm().compute(task)
        assert result.stats.notes["residual"] == ["MAX"]
        from repro.compute import NaiveUnionAlgorithm
        assert result.table.equals_bag(
            NaiveUnionAlgorithm().compute(task).table)

    def test_numpy_backend_helper(self):
        assert numpy_backend(force_python=True) is None
        if HAVE_NUMPY:
            import numpy as np
            assert numpy_backend() is np


class TestOptimizerIntegration:
    def _big_task(self, measure):
        rows = [(f"g{i % 7}", f"h{i % 5}", float(i % 11), measure(i))
                for i in range(COLUMNAR_ROW_THRESHOLD)]
        return make_task(rows, [AggregateSpec(Sum(), "x", "s"),
                                AggregateSpec(Min(), "f", "lo")])

    def test_long_numeric_scan_selects_columnar(self):
        task = self._big_task(lambda i: i)
        assert isinstance(choose_algorithm(task), ColumnarCubeAlgorithm)
        assert "columnar" in explain_choice(task)

    def test_short_scan_stays_on_row_path(self):
        task = make_task(self.ROWS if hasattr(self, "ROWS") else
                         [("a", "p", 1.0, 1)],
                         [AggregateSpec(Sum(), "x", "s")])
        assert not isinstance(choose_algorithm(task), ColumnarCubeAlgorithm)

    def test_non_numeric_measures_stay_on_row_path(self):
        task = self._big_task(lambda i: f"s{i}")
        assert not isinstance(choose_algorithm(task), ColumnarCubeAlgorithm)


class TestTableColumns:
    def test_columns_transposes(self):
        table = Table([("a", "STRING"), ("x", "INTEGER")],
                      [("p", 1), ("q", 2)])
        assert table.columns() == {"a": ["p", "q"], "x": [1, 2]}
        assert table.columns(["x"]) == {"x": [1, 2]}

    def test_empty_table(self):
        table = Table([("a", "STRING"), ("x", "INTEGER")])
        assert table.columns() == {"a": [], "x": []}

    def test_feeds_from_columns(self):
        table = Table([("d", "STRING"), ("x", "INTEGER")],
                      [("p", 1), ("q", None), ("p", 3)])
        columns = table.columns()
        batch = ColumnBatch.from_columns({"d": columns["d"]},
                                         {"x": columns["x"]})
        assert batch.n_rows == 3
        assert batch.dims[0].values == ["p", "q"]
        assert list(batch.aggs[0].valid) == [1, 0, 1]


def _cube_reprs(table):
    return sorted(map(repr, table.rows))


def _from_core(task):
    from repro.compute import FromCoreAlgorithm
    return _cube_reprs(FromCoreAlgorithm().compute(task).table)


def _through_the_cache(table, dims, specs, masks):
    """Every grouping set answered by a PartialCube (the cache's miss
    path), as one relation."""
    from repro.compute.view_selection import PartialCube
    cube = PartialCube(table, dims, specs, materialize=list(masks),
                       universe=list(masks))
    return sorted(repr(row) for mask in masks
                  for row in cube.answer(mask).rows)


#: every columnar route on both backends, plus the array algorithm
DENSE_ROUTES = [
    pytest.param(lambda: ColumnarCubeAlgorithm(mode="dense"),
                 id="columnar-dense"),
    pytest.param(lambda: ColumnarCubeAlgorithm(mode="dense",
                                               force_python=True),
                 id="columnar-dense-python"),
    pytest.param(lambda: ColumnarCubeAlgorithm(mode="sparse"),
                 id="columnar-sparse"),
    pytest.param(lambda: ColumnarCubeAlgorithm(mode="sparse",
                                               force_python=True),
                 id="columnar-sparse-python"),
]


class TestHashEqualDimensionValues:
    """``1``, ``1.0`` and ``True`` hash equal, so they share one code.
    Every grouped value must still be the one from-core reports: the
    value of the first row that reached the cell, in core cells and in
    super-aggregates alike."""

    ROWS = [(1.0, "x", 1), (1, "y", 2), (True, "z", 3)] * 200

    def task(self):
        table = Table([("d", "ANY"), ("e", "STRING"), ("m", "INTEGER")],
                      self.ROWS)
        return build_task(table, ["d", "e"], [AggregateSpec(Sum(), "m", "s")],
                          cube_sets(2))

    @pytest.mark.parametrize("make", DENSE_ROUTES + [
        pytest.param(lambda: __import__(
            "repro.compute.array_cube", fromlist=["x"]).ArrayCubeAlgorithm(),
            id="array")])
    def test_routes_report_from_core_values(self, make):
        task = self.task()
        got = _cube_reprs(make().compute(task).table)
        assert got == _from_core(task)
        assert "(1, 'y', 400)" in got and "(True, 'z', 600)" in got
        assert "(1.0, ALL, 1200)" in got and "(ALL, 'z', 600)" in got


class TestNegativeZeroSum:
    """A SUM over only ``-0.0`` is ``-0.0`` on every path, in core and
    super-aggregate cells; AVG stays ``0.0`` and a group whose values
    are all NULL still sums to NULL."""

    ROWS = [("a", "p", -0.0), ("a", "q", -0.0), ("b", "p", 2.5),
            ("b", "q", -0.0), ("c", "p", None), ("c", "q", None)]
    SPECS = [AggregateSpec(Sum(), "m", "s"), AggregateSpec(Average(), "m", "a")]

    def table(self):
        return Table([("d", "STRING"), ("e", "STRING"), ("m", "FLOAT")],
                     self.ROWS)

    @pytest.mark.parametrize("make", DENSE_ROUTES)
    def test_cache_less_routes(self, make):
        task = build_task(self.table(), ["d", "e"], self.SPECS, cube_sets(2))
        got = _cube_reprs(make().compute(task).table)
        assert got == _from_core(task)
        assert "('a', ALL, -0.0, 0.0)" in got
        assert "('c', ALL, None, None)" in got

    @pytest.mark.parametrize("hide_numpy", [False, True])
    def test_through_the_cache(self, hide_numpy, monkeypatch):
        from repro.compute.columnar import batch as columnar_batch
        if hide_numpy:
            monkeypatch.setattr(columnar_batch, "_numpy", None)
        masks = cube_sets(2)
        task = build_task(self.table(), ["d", "e"], self.SPECS, masks)
        got = _through_the_cache(self.table(), ["d", "e"], self.SPECS,
                                 masks)
        assert got == _from_core(task)
        assert "('a', 'p', -0.0, 0.0)" in got


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestUfuncAtOrder:
    """The kernels' scatter and lattice fold rely on ``ufunc.at``
    applying a repeated index in index order, as Python's left fold
    does: float addition is not associative, so any other order would
    change a SUM's last digits."""

    def test_add_at_folds_a_repeated_index_left_to_right(self):
        import numpy as np
        values = [1.0, 1e16, -1e16]
        for ordered, expected in ((values, 0.0), (values[::-1], 1.0)):
            acc = np.zeros(1)
            np.add.at(acc, np.zeros(3, dtype=np.int64), np.array(ordered))
            left_fold = 0.0
            for value in ordered:
                left_fold += value
            assert acc[0] == left_fold == expected


class TestSignedZeroExtremes:
    """``0.0`` and ``-0.0`` compare equal, so MIN/MAX keep whichever
    zero reached the cell first (the row path's strict comparison).
    ``np.minimum``/``np.maximum`` return the later one on a tie, so a
    column holding both zeros stays off the numpy extreme kernels."""

    def task(self):
        rng = __import__("random").Random(5)
        rows = [(rng.choice("abc"), rng.choice("pqrs"),
                 rng.choice([0.0, -0.0, 1.5])) for _ in range(600)]
        table = Table([("d", "STRING"), ("e", "STRING"), ("m", "FLOAT")],
                      rows)
        return build_task(table, ["d", "e"],
                          [AggregateSpec(Min(), "m", "lo"),
                           AggregateSpec(Max(), "m", "hi")], cube_sets(2))

    # the pure-python dense route folds slabs in slot order, not
    # from-core's parent order, so its ties are not compared here
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ColumnarCubeAlgorithm(mode="dense"),
                     id="columnar-dense", marks=pytest.mark.skipif(
                         not HAVE_NUMPY, reason="numpy not installed")),
        pytest.param(lambda: ColumnarCubeAlgorithm(mode="sparse"),
                     id="columnar-sparse"),
        pytest.param(lambda: ColumnarCubeAlgorithm(mode="sparse",
                                                   force_python=True),
                     id="columnar-sparse-python"),
    ])
    def test_routes_keep_the_first_zero(self, make):
        task = self.task()
        got = _cube_reprs(make().compute(task).table)
        assert got == _from_core(task)
