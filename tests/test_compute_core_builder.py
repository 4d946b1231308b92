"""The one builder of a cached cuboid's core: ``PartialCube`` on the
columnar kernels (``repro.compute.columnar.core``).

For every registered mergeable aggregate, over tables with NULLs, NaN,
mixed int/float measures, duplicate rows, no rows and one row, a
kernel-built :class:`PartialCube` must be indistinguishable from the
row-built one it replaced:

(a) answers repr-identical to :class:`FromCoreAlgorithm`, mask by mask;
(b) ``_counts`` / ``_accepted`` equal to a direct count made here;
(c) ``sizes`` equal to :func:`view_sizes` over the rows;
(d) nothing but plain python values in the stored state (no numpy
    scalar), which therefore survives the restricted unpickler;
(e) the same state with numpy hidden;
(f) an ``apply_delta`` on it equals a cold rebuild.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.registry import default_registry
from repro.compute import FromCoreAlgorithm, build_task, view_sizes
from repro.compute.columnar import batch as columnar_batch
from repro.compute.view_selection import PartialCube
from repro.engine.groupby import AggregateSpec
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import DeltaRequiresInvalidationError
from repro.storage.serde import restricted_loads
from repro.types import ALL, DataType

NAN = float("nan")
DIMS = ["a", "b"]
MASKS = (3, 2, 1, 0)
SCHEMA = Schema([Column("a", DataType.STRING), Column("b", DataType.STRING),
                 Column("m", DataType.ANY)])

TABLES = {
    "nulls": [("x", "p", 4), ("x", "p", None), ("y", "q", None),
              ("y", "p", 2), (None, "p", 5), ("x", None, 1)],
    "nan": [("x", "p", 1.5), ("x", "p", NAN), ("y", "q", NAN),
            ("y", "p", 0.25), ("x", "q", 8.0), ("y", "p", NAN)],
    "mixed": [("x", "p", 3), ("x", "p", 3.0), ("y", "q", 2.5),
              ("y", "p", 7), ("x", "q", 1), ("y", "q", 2), ("x", "p", 0.5)],
    "duplicates": [("x", "p", 6), ("x", "p", 6), ("y", "q", 1),
                   ("x", "p", 6), ("y", "q", 1), ("y", "q", 9)],
    "empty": [],
    "one_row": [("x", "p", 7)],
}

MERGEABLE = [name for name in default_registry.names()
             if name != "CENTER_OF_MASS"]  # wants (mass, position) pairs


def make_function(name):
    try:
        return default_registry.create(name)
    except TypeError:  # top-N style functions need their n
        return default_registry.create(name, 3)


def build(rows, specs):
    return PartialCube(Table(SCHEMA, list(rows)), DIMS, list(specs),
                       materialize=list(MASKS), universe=list(MASKS))


def project(mask, dim_values):
    return tuple(value if mask & (1 << i) else ALL
                 for i, value in enumerate(dim_values))


def reference_answers(rows, specs):
    """mask -> repr of from-core's rows for that grouping set."""
    task = build_task(Table(SCHEMA, list(rows)), DIMS, list(specs), MASKS)
    result = FromCoreAlgorithm().compute(task).table.rows
    return {mask: [repr(row) for row in result
                   if all((row[i] is not ALL) == bool(mask & (1 << i))
                          for i in range(len(DIMS)))]
            for mask in MASKS}


def answers(cube):
    return {mask: [repr(row) for row in cube.answer(mask).rows]
            for mask in MASKS}


def direct_counts(rows, functions):
    counts = {mask: {} for mask in MASKS}
    accepted = {mask: {} for mask in MASKS}
    for *dim_values, value in rows:
        for mask in MASKS:
            coordinate = project(mask, dim_values)
            counts[mask][coordinate] = counts[mask].get(coordinate, 0) + 1
            per_fn = accepted[mask].setdefault(coordinate,
                                               [0] * len(functions))
            for position, fn in enumerate(functions):
                per_fn[position] += bool(fn.accepts(value))
    return counts, accepted


def leaves(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(key)
            yield from leaves(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from leaves(item)
    else:
        yield value


def assert_plain_python(cube):
    for store in (cube._views, cube._counts, cube._accepted):
        for leaf in leaves(store):
            assert not type(leaf).__module__.startswith("numpy"), (
                f"{type(leaf)!r} escaped into the stored state")
    for leaf in leaves([cube._counts, cube._accepted]):
        assert type(leaf) in (int, str, type(None), type(ALL))


def assert_matches_rows(cube, rows, specs):
    assert answers(cube) == reference_answers(rows, specs)          # (a)
    counts, accepted = direct_counts(rows,
                                     [spec.function for spec in specs])
    assert cube._counts == counts                                    # (b)
    assert cube._accepted == accepted
    task = build_task(Table(SCHEMA, list(rows)), DIMS, list(specs), MASKS)
    assert cube.sizes == view_sizes(task)                            # (c)
    assert cube.stats.base_scans == 1
    assert_plain_python(cube)                                        # (d)


#: the quantile sketches cannot bin a NaN on any path (row path included)
CASES = [(name, table) for name in MERGEABLE for table in sorted(TABLES)
         if not (name.startswith("APPROX_") and table == "nan")]


@pytest.mark.parametrize("name,table", CASES)
class TestEveryMergeableAggregate:
    def test_built_state_matches_the_row_path(self, name, table):
        specs = [AggregateSpec(make_function(name), "m", "v")]
        assert_matches_rows(build(TABLES[table], specs), TABLES[table],
                            specs)

    def test_state_survives_the_restricted_unpickler(self, name, table):
        if name in ("MODE", "MOST_FREQUENT") and table == "nan":
            pytest.skip("MODE tallies NaN by identity; no pickle keeps it")
        specs = [AggregateSpec(make_function(name), "m", "v")]
        cube = build(TABLES[table], specs)
        restored = restricted_loads(pickle.dumps(cube, protocol=4))
        assert answers(restored) == answers(cube)
        assert restored._task.rows == []

    def test_same_state_without_numpy(self, name, table, monkeypatch):
        specs = [AggregateSpec(make_function(name), "m", "v")]
        with_numpy = build(TABLES[table], specs)
        # hide numpy from the backend probe, as the no-numpy CI leg does
        monkeypatch.setattr(columnar_batch, "_numpy", None)
        without = build(TABLES[table], specs)
        assert_matches_rows(without, TABLES[table], specs)           # (e)
        assert repr(without._views) == repr(with_numpy._views)


def test_ints_beyond_float64_stay_exact():
    # a float64 accumulator rounds past 2**53; python ints never do, so
    # such columns are row-folded -- through the cache and cache-less
    from repro.compute import ColumnarCubeAlgorithm
    rows = [("x", "p", 2 ** 60 + 1), ("x", "p", 3), ("y", "q", 2 ** 53 + 1),
            ("x", "q", 2 ** 60 + 5)]
    specs = [AggregateSpec(make_function(name), "m", name.lower())
             for name in ("SUM", "MAX", "AVG", "COUNT")]
    assert_matches_rows(build(rows, specs), rows, specs)
    task = build_task(Table(SCHEMA, rows), DIMS, specs, MASKS)
    assert (sorted(map(repr, ColumnarCubeAlgorithm().compute(task).table))
            == sorted(map(repr, FromCoreAlgorithm().compute(task).table)))


def test_center_of_mass_stays_residual_and_exact():
    rows = [(a, b, None if m is None else (m, 2 * m + 1))
            for a, b, m in TABLES["nulls"]]
    specs = [AggregateSpec(make_function("CENTER_OF_MASS"), "m", "v")]
    assert_matches_rows(build(rows, specs), rows, specs)


#: one cube carrying kernel-built, residual (VAR, MEDIAN) and COUNT(*)
#: positions side by side -- the shape a cache entry has
MIXED_LIST = ("SUM", "COUNT", "COUNT(*)", "MIN", "MAX", "AVG", "VAR",
              "MEDIAN")


def mixed_specs():
    return [AggregateSpec(make_function(name), "m", f"v{i}")
            for i, name in enumerate(MIXED_LIST)]


measures = st.sampled_from([None, NAN, 0, 1, 2, -3, 7, 1000, 2.5, 1.0,
                            0.1, -4.75])
generated_rows = st.lists(
    st.tuples(st.sampled_from(["x", "y", "z", None]),
              st.sampled_from(["p", "q", None]), measures),
    max_size=24)


class TestMixedAggregateLists:
    @settings(max_examples=40, deadline=None)
    @given(rows=generated_rows)
    def test_property_kernel_and_residual_positions_agree(self, rows):
        specs = mixed_specs()
        assert_matches_rows(build(rows, specs), rows, specs)

    @settings(max_examples=15, deadline=None)
    @given(rows=generated_rows)
    def test_property_same_without_numpy(self, rows):
        specs = mixed_specs()
        with_numpy = build(rows, specs)
        saved = columnar_batch._numpy
        columnar_batch._numpy = None
        try:
            without = build(rows, specs)
        finally:
            columnar_batch._numpy = saved
        assert answers(without) == answers(with_numpy)
        assert without._counts == with_numpy._counts
        assert without._accepted == with_numpy._accepted

    def test_requested_positions_are_all_that_is_finalized(self):
        cube = build(TABLES["mixed"], mixed_specs())
        full = cube.answer(1).rows
        before = cube.stats.end_calls
        picked = cube.answer(1, positions=[5, 0]).rows
        assert cube.stats.end_calls - before == 2 * len(full)
        n = len(DIMS)
        assert [repr(row) for row in picked] == [
            repr(row[:n] + (row[n + 5], row[n + 0])) for row in full]
        assert tuple(cube.answer(1, positions=[5, 0]).schema.names[n:]) == (
            "v5", "v0")


WELFORD = {"VAR", "VARIANCE", "STDDEV", "STDEV"}
INSERTS = [("x", "q", 3), ("z", "p", 8.5), ("y", "p", None)]
DELETES = [("y", "p", 2)]


@pytest.mark.parametrize("name", MERGEABLE)
def test_delta_on_a_kernel_built_cube_equals_a_cold_rebuild(name):   # (f)
    fn = make_function(name)
    specs = [AggregateSpec(fn, "m", "v")]
    base = TABLES["nulls"] + TABLES["duplicates"]
    warm = build(base, specs)
    before = answers(warm)
    try:
        warm.apply_delta(INSERTS, DELETES)
    except DeltaRequiresInvalidationError:
        # non-delta-exact sketch or a delete-holistic extreme: declined
        # before anything changed
        assert answers(warm) == before
        return
    survivors = list(base)
    survivors.remove(DELETES[0])
    cold = build(survivors + INSERTS, specs)
    assert warm._counts == cold._counts
    assert warm._accepted == cold._accepted
    assert warm.sizes == cold.sizes
    if name in WELFORD:  # documented 1-ULP family (test_streaming_delta)
        for mask in MASKS:
            for wrow, crow in zip(sorted(warm.answer(mask).rows, key=repr),
                                  sorted(cold.answer(mask).rows, key=repr)):
                assert wrow[:-1] == crow[:-1]
                assert wrow[-1] == pytest.approx(crow[-1], rel=1e-9)
        return
    assert ({m: sorted(rows) for m, rows in answers(warm).items()}
            == {m: sorted(rows) for m, rows in answers(cold).items()})


class TestThroughTheCache:
    SQL = ("SELECT a, b, SUM(m) AS s, COUNT(m) AS c, MIN(m) AS lo, "
           "MAX(m) AS hi, AVG(m) AS mean, COUNT(*) AS n FROM T "
           "GROUP BY CUBE a, b")

    def session(self, cache, rows):
        from repro.engine.catalog import Catalog
        from repro.sql import SQLSession
        catalog = Catalog()
        catalog.register("T", Table(SCHEMA, list(rows)))
        return SQLSession(catalog, cache=cache)

    def test_dump_restore_round_trip_restores_the_entry(self):
        from repro.serve.cache import CuboidCache
        from repro.sql import SQLSession
        rows = TABLES["nulls"] + TABLES["mixed"]
        cache = CuboidCache()
        session = self.session(cache, rows)
        cold = [repr(row) for row in session.execute(self.SQL).rows]
        assert cache.stats()["misses"] == 1
        uncached = self.session(None, rows).execute(self.SQL).rows
        assert cold == [repr(row) for row in uncached]

        revived = CuboidCache()
        assert revived.restore_state(cache.dump_state(),
                                     catalog=session.catalog) == 1
        warm = SQLSession(session.catalog, cache=revived)
        assert [repr(row) for row in warm.execute(self.SQL).rows] == cold
        assert revived.stats()["hits"] == 1

    def test_empty_table_answers_like_the_uncached_path(self):
        from repro.serve.cache import CuboidCache
        cached = self.session(CuboidCache(), []).execute(self.SQL).rows
        uncached = self.session(None, []).execute(self.SQL).rows
        assert [repr(r) for r in cached] == [repr(r) for r in uncached]
        assert len(cached) == 1 and cached[0][:2] == (ALL, ALL)
