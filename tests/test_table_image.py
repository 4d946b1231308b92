"""The table-resident columnar image: encode once per table version.

A table keeps the columns queries have encoded (``Table.memo``, a
:class:`~repro.compute.columnar.batch.TableImage` stamped with
``Table.version``), and a later batch over the same version selects
them instead of re-encoding.  These tests pin:

- reuse: a second query selects the same buffer objects, no encode;
- invalidation: every mutator, at every layer that can reach one,
  drops the image, and later answers equal a fresh table's;
- derived tables (WHERE), computed dimensions, one measure feeding
  several aggregates, awkward dimension values, the no-numpy backend;
- lifetime: no task, cube or checkpoint holds on to the table.
"""

import gc
import pickle

import pytest

from repro.aggregates import Average, CountStar, Min, Sum
from repro.compute import ColumnarCubeAlgorithm, FromCoreAlgorithm, build_task
from repro.compute.columnar import batch as columnar_batch
from repro.compute.columnar.batch import ColumnBatch, TableImage
from repro.compute.view_selection import PartialCube
from repro.core.grouping import cube_sets
from repro.engine.catalog import Catalog
from repro.engine.expressions import col
from repro.engine.groupby import AggregateSpec
from repro.engine.operators import filter_rows
from repro.engine.table import Table
from repro.maintenance.ingest import StreamIngestor
from repro.serve.cache import CuboidCache
from repro.sql import SQLSession
from repro.storage.serde import restricted_loads

NAN = float("nan")
COLUMNS = [("d", "ANY"), ("e", "STRING"), ("m", "ANY")]
ROWS = [("a", "p", 1), ("b", "q", 2.5), ("a", "q", None), ("c", "p", 4),
        ("b", "p", 3), ("a", "p", -2)]
DIMS = ["d", "e"]


def specs():
    return [AggregateSpec(Sum(), "m", "s"), AggregateSpec(Average(), "m", "a"),
            AggregateSpec(Min(), "m", "lo"),
            AggregateSpec(CountStar(), "*", "n")]


def cube_reprs(table, dims=DIMS, algorithm=None):
    task = build_task(table, dims, specs(), cube_sets(len(dims)))
    result = (algorithm or ColumnarCubeAlgorithm()).compute(task)
    return sorted(map(repr, result.table.rows))


def fresh_copy(table):
    return Table(table.schema, list(table.rows))


@pytest.fixture
def encodes(monkeypatch):
    """Count every column encode the batch module performs."""
    calls = []
    encode, build = columnar_batch._encode, columnar_batch._build_agg_column
    monkeypatch.setattr(columnar_batch, "_encode",
                        lambda values: calls.append("dim") or encode(values))
    monkeypatch.setattr(
        columnar_batch, "_build_agg_column",
        lambda name, raw: calls.append("agg") or build(name, raw))
    return calls


class TestReuse:
    def test_second_query_selects_the_same_buffers(self, encodes):
        table = Table(COLUMNS, ROWS)
        first = ColumnBatch.from_task(build_task(table, DIMS, specs(),
                                                 cube_sets(2)))
        assert isinstance(table.memo, TableImage)
        # d, e, m, and the COUNT(*) ones: one encode each
        assert sorted(encodes) == ["agg", "agg", "dim", "dim"]
        encodes.clear()
        second = ColumnBatch.from_task(build_task(
            table, ["e", (col("d"), "alias")], specs()[:1], cube_sets(2)))
        assert encodes == []
        assert second.dims[0].codes is first.dims[1].codes
        assert second.dims[1].codes is first.dims[0].codes
        assert second.dims[1].name == "alias"
        assert second.aggs[0].data is first.aggs[0].data

    def test_one_measure_feeds_sum_avg_min_from_one_column(self, encodes):
        table = Table(COLUMNS, ROWS)
        batch = ColumnBatch.from_task(build_task(table, DIMS, specs(),
                                                 cube_sets(2)))
        sum_col, avg_col, min_col, ones = batch.aggs
        assert sum_col.valid is avg_col.valid is min_col.valid
        assert [c.name for c in batch.aggs] == ["s", "a", "lo", "n"]
        assert list(ones.raw) == [1] * len(ROWS)
        assert encodes.count("agg") == 2

    def test_repeated_cube_answers_do_not_change(self):
        table = Table(COLUMNS, ROWS)
        cold = cube_reprs(table)
        assert cube_reprs(table) == cold == cube_reprs(
            table, algorithm=FromCoreAlgorithm())


def mutators():
    """name -> (catalog, table name) -> mutate the table once."""
    def sql(statement):
        return lambda catalog, name: SQLSession(catalog).execute(statement)

    def ingest(catalog, name):
        ingestor = StreamIngestor(catalog)
        ingestor.submit(name, inserts=[("z", "q", 9)],
                        deletes=[("a", "p", 1)])
        ingestor.flush()

    return {
        "Table.append": lambda c, n: c.get(n).append(("z", "p", 5)),
        "Table.extend": lambda c, n: c.get(n).extend([("z", "p", 5)]),
        "Table.delete_where": lambda c, n: c.get(n).delete_where(
            lambda row: row[0] == "b"),
        "Table.delete_row": lambda c, n: c.get(n).delete_row(("c", "p", 4)),
        "Catalog.insert": lambda c, n: c.insert(n, ("z", "p", 5)),
        "Catalog.delete": lambda c, n: c.delete(n, ("a", "p", -2)),
        "Catalog.update": lambda c, n: c.update(n, ("b", "p", 3),
                                                ("b", "p", 30)),
        "SQL INSERT": sql("INSERT INTO T VALUES ('z', 'q', 7)"),
        "SQL DELETE": sql("DELETE FROM T WHERE e = 'q'"),
        "SQL UPDATE": sql("UPDATE T SET m = 8 WHERE d = 'a'"),
        "StreamIngestor flush": ingest,
    }


@pytest.mark.parametrize("name", sorted(mutators()))
def test_every_mutator_drops_the_image(name):
    catalog = Catalog()
    table = catalog.register("T", Table(COLUMNS, ROWS))
    cube_reprs(table)
    version = table.version
    assert isinstance(table.memo, TableImage)
    mutators()[name](catalog, "T")
    assert table.version > version
    assert table.memo is None
    assert cube_reprs(table) == cube_reprs(fresh_copy(table))


def test_a_column_encoded_across_a_mutation_is_not_kept(monkeypatch):
    table = Table(COLUMNS, ROWS)
    encode = columnar_batch._encode

    def racing(values):  # a writer lands while a reader encodes
        table.append(("z", "p", 5))
        return encode(values)

    monkeypatch.setattr(columnar_batch, "_encode", racing)
    ColumnBatch.from_task(build_task(table, DIMS, specs(), cube_sets(2)))
    assert table.memo is None
    monkeypatch.setattr(columnar_batch, "_encode", encode)
    assert cube_reprs(table) == cube_reprs(fresh_copy(table))


def test_concurrent_readers_and_a_writer_under_the_server_lock():
    """The server's read/write lock is the only synchronisation: readers
    share (and race to fill) one image, the writer's mutations drop it.
    Every answer must equal a fresh table's at the rows the reader saw."""
    import sys
    import threading

    from repro.serve.server import VersionedRWLock

    table = Table(COLUMNS, ROWS * 20)
    lock = VersionedRWLock()
    failures: list = []

    def reader():
        for _ in range(12):
            with lock.read():
                got = cube_reprs(table)
                want = cube_reprs(fresh_copy(table),
                                  algorithm=FromCoreAlgorithm())
            if got != want:
                failures.append((len(table), got, want))

    def writer():
        for n in range(6):
            with lock.write():
                table.append(("w", "q", n))

    threads = [threading.Thread(target=reader) for _ in range(5)]
    threads.append(threading.Thread(target=writer))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(table) == len(ROWS) * 20 + 6


def test_a_stale_task_does_not_read_a_newer_image():
    table = Table(COLUMNS, ROWS)
    stale = build_task(table, DIMS, specs(), cube_sets(2))
    table.append(("z", "p", 5))
    cube_reprs(table)  # the image now describes the new version
    batch = ColumnBatch.from_task(stale)
    assert batch.n_rows == len(ROWS)
    assert len(batch.dims[0].codes) == len(ROWS)


def test_where_derived_tables_get_their_own_image():
    table = Table(COLUMNS, ROWS)
    cube_reprs(table)
    derived = filter_rows(table, col("e").eq("p"))
    assert derived.memo is None
    got = cube_reprs(derived)
    assert isinstance(derived.memo, TableImage)
    assert got == cube_reprs(fresh_copy(derived),
                             algorithm=FromCoreAlgorithm())
    session = SQLSession(Catalog(), algorithm="columnar")
    session.register("T", table)
    where = session.execute(
        "SELECT d, e, SUM(m) FROM T WHERE e = 'p' GROUP BY CUBE d, e")
    plain = SQLSession(Catalog(), algorithm="from-core")
    plain.register("T", fresh_copy(table))
    assert [repr(r) for r in where.rows] == [repr(r) for r in plain.execute(
        "SELECT d, e, SUM(m) FROM T WHERE e = 'p' GROUP BY CUBE d, e").rows]


def test_plain_and_computed_dimensions_in_one_query(encodes):
    table = Table(COLUMNS, ROWS)
    cube_reprs(table)  # d, e and m are now in the image
    encodes.clear()
    dims = ["d", (col("e"), "e2"), (col("m") * 2, "twice")]
    task = build_task(table, dims, specs(), cube_sets(3))
    assert task.source.dims == (0, 1, None)
    batch = ColumnBatch.from_task(task)
    assert encodes == ["dim"]  # only the computed dimension
    assert batch.dims[2].values == [2, 5.0, None, 8, 6, -4]
    assert cube_reprs(table, dims) == cube_reprs(
        fresh_copy(table), dims, FromCoreAlgorithm())


@pytest.mark.parametrize("hide_numpy", [False, True])
@pytest.mark.parametrize("mode", ["dense", "sparse"])
def test_null_nan_and_hash_equal_dimension_values(mode, hide_numpy,
                                                  monkeypatch):
    if hide_numpy:
        monkeypatch.setattr(columnar_batch, "_numpy", None)
    rows = [(1.0, "p", 1), (None, "q", 2), (1, "p", 3), (NAN, "q", 4),
            (True, "q", 5), (NAN, "p", 6), (None, "p", 7)] * 3
    table = Table(COLUMNS, rows)
    algorithm = ColumnarCubeAlgorithm(mode=mode)
    first = cube_reprs(table, algorithm=algorithm)
    assert first == cube_reprs(table, algorithm=algorithm)  # from the image
    assert first == cube_reprs(fresh_copy(table),
                               algorithm=FromCoreAlgorithm())
    cache = _through_the_cache(table)
    assert cache == _through_the_cache(fresh_copy(table))


def _through_the_cache(table):
    cube = PartialCube(table, DIMS, specs(), materialize=cube_sets(2),
                       universe=cube_sets(2))
    return sorted(repr(row) for mask in cube_sets(2)
                  for row in cube.answer(mask).rows)


class TestLifetime:
    def test_a_task_does_not_keep_its_table_alive(self, encodes):
        table = Table(COLUMNS, ROWS)
        task = build_task(table, DIMS, specs(), cube_sets(2))
        assert task.source.table() is table
        del table
        gc.collect()
        assert task.source.table() is None
        batch = ColumnBatch.from_task(task)  # encodes from the rows
        assert batch.n_rows == len(ROWS)
        # still one encode per source column: SUM, AVG and MIN share m
        assert sorted(encodes) == ["agg", "agg", "dim", "dim"]
        assert "source" not in pickle.loads(pickle.dumps(task)).__dict__

    def test_a_partial_cube_drops_its_source(self):
        cube = PartialCube(Table(COLUMNS, ROWS), DIMS, specs())
        assert cube._task.source is None and cube._task.rows == []

    def test_pickled_table_carries_no_image(self):
        table = Table(COLUMNS, ROWS)
        cube_reprs(table)
        blob = pickle.dumps(table, protocol=4)
        assert b"TableImage" not in blob
        restored = restricted_loads(blob)
        assert restored.memo is None and restored.rows == table.rows
        assert cube_reprs(restored) == cube_reprs(table)

    def test_cache_checkpoint_holds_no_table(self):
        catalog = Catalog()
        catalog.register("T", Table(COLUMNS, ROWS))
        cache = CuboidCache()
        session = SQLSession(catalog, cache=cache)
        sql = "SELECT d, e, SUM(m), COUNT(*) FROM T GROUP BY CUBE d, e"
        cold = [repr(r) for r in session.execute(sql).rows]
        blob = cache.dump_state()
        for raw in restricted_loads(blob):
            assert b"repro.engine.table" not in raw
            assert b"TableImage" not in raw
            entry = restricted_loads(raw)
            assert entry.engine._task.source is None
        revived = CuboidCache()
        assert revived.restore_state(blob, catalog=catalog) == 1
        warm = SQLSession(catalog, cache=revived)
        assert [repr(r) for r in warm.execute(sql).rows] == cold
        assert revived.stats()["hits"] == 1


class TestPositionalPicks:
    """Plain column references are picked by position (build_task and
    the SQL projection share the rule); computed items still see a row
    context.  Either way the rows are the ones evaluation would give."""

    def test_build_task_rows(self):
        table = Table(COLUMNS, ROWS)
        dims = ["e", (col("m") + 1, "m1")]
        task = build_task(table, dims, specs(), cube_sets(2))
        assert task.rows == [
            (e, None if m is None else m + 1, m, m, m, 1)
            for _, e, m in ROWS]
        assert task.source.aggs == (2, 2, 2, "*")
        empty = build_task(Table(COLUMNS), DIMS, specs(), cube_sets(2))
        assert empty.rows == []

    @pytest.mark.parametrize("sql,expected", [
        ("SELECT e, d AS x, d FROM T", lambda d, e, m: (e, d, d)),
        ("SELECT m FROM T", lambda d, e, m: (m,)),
        ("SELECT * FROM T", lambda d, e, m: (d, e, m)),
        ("SELECT m, *, e FROM T", lambda d, e, m: (m, d, e, m, e)),
        ("SELECT d, m + 1 AS n FROM T",
         lambda d, e, m: (d, None if m is None else m + 1)),
    ])
    def test_projection_matches_row_evaluation(self, sql, expected):
        session = SQLSession(Catalog())
        session.register("T", Table(COLUMNS, ROWS))
        result = session.execute(sql)
        assert [repr(r) for r in result.rows] == [
            repr(expected(*row)) for row in ROWS]

    def test_grouped_projection_reorders_by_position(self):
        session = SQLSession(Catalog(), algorithm="from-core")
        session.register("T", Table(COLUMNS, ROWS))
        result = session.execute(
            "SELECT SUM(m) AS s, e, d FROM T GROUP BY CUBE d, e")
        cube = FromCoreAlgorithm().compute(build_task(
            Table(COLUMNS, ROWS), DIMS, [AggregateSpec(Sum(), "m", "s")],
            cube_sets(2))).table
        assert result.schema.names == ("s", "e", "d")
        assert sorted(map(repr, result.rows)) == sorted(
            repr((s, e, d)) for d, e, s in cube.rows)
