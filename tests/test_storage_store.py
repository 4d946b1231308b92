"""The durable cube store (:mod:`repro.storage.store`): journaled
transactions, checkpoint/recover round trips, epoch reconciliation,
signature validation, and the query server's warm restart."""

import os

import pytest

from repro import agg
from repro.engine.table import Table
from repro.errors import StorageError
from repro.maintenance.materialized import MaterializedCube
from repro.storage import CubeStore


def _base():
    table = Table([("Model", "STRING"), ("Year", "INTEGER"),
                   ("Units", "INTEGER")])
    table.extend([("Chevy", 1994, 50),
                  ("Chevy", 1995, 85),
                  ("Ford", 1994, 60),
                  ("Ford", 1995, 100)])
    return table


def _make_cube():
    return MaterializedCube(_base(), ["Model", "Year"],
                            [agg("SUM", "Units", "Units")])


def _snapshot(cube):
    return [tuple(row) for row in cube.as_table(sort_result=True)]


@pytest.fixture
def data_dir(tmp_path):
    return str(tmp_path / "store")


class TestJournalRoundTrip:
    def test_committed_transactions_replay_on_reopen(self, data_dir):
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            assert store.attach(cube, "sales") is False  # fresh
            cube.insert(("Chevy", 1996, 30))
            cube.delete(("Ford", 1994, 60))
            expected = _snapshot(cube)
        with CubeStore(data_dir) as store:
            recovered = _make_cube()
            assert store.attach(recovered, "sales") is True
            assert _snapshot(recovered) == expected
            assert store.replayed["sales"] == 2

    def test_update_and_batch_replay(self, data_dir):
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            store.attach(cube, "sales")
            cube.update(("Chevy", 1994, 50), ("Chevy", 1994, 70))
            cube.apply_batch([("insert", ("Ford", 1996, 10)),
                              ("delete", ("Chevy", 1995, 85))])
            expected = _snapshot(cube)
        with CubeStore(data_dir) as store:
            recovered = _make_cube()
            store.attach(recovered, "sales")
            assert _snapshot(recovered) == expected

    def test_rolled_back_transaction_leaves_no_durable_trace(
            self, data_dir):
        from repro.errors import MaintenanceError
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            store.attach(cube, "sales")
            cube.insert(("Chevy", 1996, 30))
            expected = _snapshot(cube)
            with pytest.raises(MaintenanceError):
                cube.apply_batch([
                    ("insert", ("Ford", 1996, 40)),
                    ("delete", ("Nissan", 2000, 1)),  # not in base
                ])
        with CubeStore(data_dir) as store:
            recovered = _make_cube()
            store.attach(recovered, "sales")
            assert _snapshot(recovered) == expected

    def test_two_cubes_journal_independently(self, data_dir):
        with CubeStore(data_dir) as store:
            first, second = _make_cube(), _make_cube()
            store.attach(first, "a")
            store.attach(second, "b")
            first.insert(("Chevy", 1996, 1))
            second.insert(("Ford", 1996, 2))
            expect_a, expect_b = _snapshot(first), _snapshot(second)
        with CubeStore(data_dir) as store:
            ra, rb = _make_cube(), _make_cube()
            store.attach(ra, "a")
            store.attach(rb, "b")
            assert _snapshot(ra) == expect_a
            assert _snapshot(rb) == expect_b

    def test_committed_nan_row_delete_replays(self, data_dir):
        # the replayed delete carries a NaN of its own; the base row is
        # found by value (NaN equal to NaN), so the store still opens
        nan_row = ("x", float("nan"))

        def make():
            table = Table([("g", "STRING"), ("x", "FLOAT")],
                          [("x", 1.0), nan_row])
            return MaterializedCube(table, ["g"], [agg("SUM", "x", "s"),
                                                   agg("COUNT", "*", "n")])

        with CubeStore(data_dir) as store:
            cube = make()
            store.attach(cube, "probe")
            cube.delete(nan_row)
            live = [repr(tuple(row)) for row in cube.as_table().rows]
        with CubeStore(data_dir) as store:
            recovered = make()
            store.attach(recovered, "probe")
            assert store.replayed["probe"] == 1
            assert [repr(tuple(row))
                    for row in recovered.as_table().rows] == live

    def test_duplicate_attach_name_rejected(self, data_dir):
        with CubeStore(data_dir) as store:
            store.attach(_make_cube(), "sales")
            with pytest.raises(StorageError):
                store.attach(_make_cube(), "sales")


class TestCheckpoint:
    def test_checkpoint_resets_wal_and_survives(self, data_dir):
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            store.attach(cube, "sales")
            cube.insert(("Chevy", 1996, 30))
            store.checkpoint()
            assert store.epoch == 1
            assert store.wal.position > 0  # fresh epoch record
            expected = _snapshot(cube)
        with CubeStore(data_dir) as store:
            recovered = _make_cube()
            assert store.attach(recovered, "sales") is True
            assert store.replayed["sales"] == 0  # all in the checkpoint
            assert _snapshot(recovered) == expected

    def test_post_checkpoint_transactions_replay_on_top(self, data_dir):
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            store.attach(cube, "sales")
            cube.insert(("Chevy", 1996, 30))
            store.checkpoint()
            cube.insert(("Ford", 1996, 40))
            expected = _snapshot(cube)
        with CubeStore(data_dir) as store:
            recovered = _make_cube()
            store.attach(recovered, "sales")
            assert store.replayed["sales"] == 1
            assert _snapshot(recovered) == expected

    def test_signature_mismatch_refuses_recovery(self, data_dir):
        with CubeStore(data_dir) as store:
            store.attach(_make_cube(), "sales")
            store.checkpoint()
        with CubeStore(data_dir) as store:
            different = MaterializedCube(
                _base(), ["Model"], [agg("SUM", "Units", "Units")])
            with pytest.raises(StorageError):
                store.attach(different, "sales")

    def test_page_reuse_bounds_file_growth(self, data_dir):
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            store.attach(cube, "sales")
            store.checkpoint()
            settled = store.pages.n_pages
            for _ in range(5):
                store.checkpoint()
            # old blobs are freed after every flip, so repeated
            # checkpoints recycle pages instead of extending the file
            assert store.pages.n_pages <= settled + 2

    def test_stats_shape(self, data_dir):
        with CubeStore(data_dir) as store:
            store.attach(_make_cube(), "sales")
            store.checkpoint()
            stats = store.stats()
            assert stats["epoch"] == 1
            assert stats["checkpoints"] == 1
            assert stats["cubes"] == ["sales"]
            assert stats["cache_checkpointed"] is False


class TestEpochReconciliation:
    def test_stale_log_is_superseded_by_checkpoint(self, data_dir):
        with CubeStore(data_dir) as store:
            cube = _make_cube()
            store.attach(cube, "sales")
            cube.insert(("Chevy", 1996, 30))
            store.checkpoint()
            expected = _snapshot(cube)
        # simulate the crash window between header flip and rotation:
        # put an epoch-0 log with bogus committed work in place
        from repro.storage.wal import WriteAheadLog
        wal_path = os.path.join(data_dir, "cube.wal")
        os.remove(wal_path)
        with WriteAheadLog(wal_path, epoch=0) as stale:
            stale.append("begin", 99, "sales")
            stale.append("op", 99, "sales", ("insert", ("Ford", 1800, 1)))
            stale.append("commit", 99, "sales", sync=True)
        with CubeStore(data_dir) as store:
            recovered = _make_cube()
            store.attach(recovered, "sales")
            # the stale transaction must NOT replay over the checkpoint
            assert _snapshot(recovered) == expected
            assert store.wal.epoch == store.epoch == 1

    def test_future_log_epoch_is_an_error(self, data_dir):
        CubeStore(data_dir).close()
        from repro.storage.wal import WriteAheadLog
        wal_path = os.path.join(data_dir, "cube.wal")
        os.remove(wal_path)
        WriteAheadLog(wal_path, epoch=7).close()
        with pytest.raises(StorageError):
            CubeStore(data_dir)


class TestWarmServerRestart:
    def test_cuboid_cache_survives_restart(self, tmp_path):
        from repro.serve.cache import CuboidCache
        from repro.serve.client import QueryClient
        from repro.serve.server import QueryServer
        from repro.serve.__main__ import _demo_catalog

        data_dir = str(tmp_path / "serve-data")
        sql = "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY CUBE d0, d1"

        with QueryServer(_demo_catalog(), cache=CuboidCache(), port=0,
                         data_dir=data_dir) as server:
            with QueryClient(*server.address) as client:
                cold = sorted(map(repr, client.execute(sql).rows))

        with QueryServer(_demo_catalog(), cache=CuboidCache(), port=0,
                         data_dir=data_dir) as server:
            assert server.restored_entries >= 1
            with QueryClient(*server.address) as client:
                warm = sorted(map(repr, client.execute(sql).rows))
                stats = client.stats()
                records = client.log(n=5)["records"]
        assert warm == cold
        assert stats["cache"]["hits"] >= 1
        assert stats["storage"]["restored_entries"] >= 1
        assert any(r.get("recovered") for r in records)

    def test_checkpoint_op_requires_data_dir(self):
        from repro.serve.cache import CuboidCache
        from repro.serve.client import QueryClient
        from repro.serve.server import QueryServer
        from repro.serve.__main__ import _demo_catalog
        from repro.errors import ServeError

        with QueryServer(_demo_catalog(), cache=CuboidCache(),
                         port=0) as server:
            with QueryClient(*server.address) as client:
                with pytest.raises(ServeError):
                    client.checkpoint()

    def test_explicit_checkpoint_op(self, tmp_path):
        from repro.serve.cache import CuboidCache
        from repro.serve.client import QueryClient
        from repro.serve.server import QueryServer
        from repro.serve.__main__ import _demo_catalog

        with QueryServer(_demo_catalog(), cache=CuboidCache(), port=0,
                         data_dir=str(tmp_path / "d")) as server:
            with QueryClient(*server.address) as client:
                stats = client.checkpoint()
        assert stats["checkpoints"] >= 1

    def test_dml_invalidated_entries_do_not_restore(self, tmp_path):
        # table version changes between checkpoint and restart -> the
        # cached cuboids are stale and must be dropped, not served
        from repro.serve.cache import CuboidCache
        from repro.engine.catalog import Catalog
        from repro.serve.server import QueryServer
        from repro.serve.client import QueryClient
        from repro.data import SyntheticSpec, synthetic_table

        def catalog():
            cat = Catalog()
            cat.register("FACTS", synthetic_table(
                SyntheticSpec(cardinalities=(4, 2), n_rows=50, seed=9)))
            return cat

        data_dir = str(tmp_path / "d")
        sql = "SELECT d0, SUM(m) FROM FACTS GROUP BY d0"
        with QueryServer(catalog(), cache=CuboidCache(), port=0,
                         data_dir=data_dir) as server:
            with QueryClient(*server.address) as client:
                client.execute(sql)

        bumped = catalog()
        bumped.get("FACTS")  # same data...
        # ...but a registration bump changes the version
        bumped.register("FACTS", synthetic_table(
            SyntheticSpec(cardinalities=(4, 2), n_rows=50, seed=9)),
            replace=True)
        with QueryServer(bumped, cache=CuboidCache(), port=0,
                         data_dir=data_dir) as server:
            assert server.restored_entries == 0
