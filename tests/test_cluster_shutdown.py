"""Graceful shutdown leaves nothing behind: a SIGTERM'd server -- either
front end -- must drain its queries, flush buffered ingest, checkpoint
its ``--data-dir``, exit 0, and release every shared-memory segment --
``/dev/shm`` ends exactly as clean as it started."""

import glob
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.client import QueryClient

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _slab_files(pid=None):
    pattern = f"/dev/shm/repro_slab_{pid}_*" if pid is not None \
        else "/dev/shm/repro_slab_*"
    return glob.glob(pattern)


def _spawn_server(data_dir, flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", *flags, "--port", "0",
         "--data-dir", data_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    # the asyncio server prints its durable line before the banner
    for _ in range(5):
        banner = process.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)", banner)
        if match:
            break
    else:
        process.kill()
        raise AssertionError(f"no banner: {banner!r}")
    assert ("asyncio" in banner) == ("--asyncio" in flags)
    return process, (match.group(1), int(match.group(2)))


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="needs a POSIX shared-memory mount to observe")
class TestSigtermDrain:
    """``python -m repro.serve --asyncio``; the subclass below runs the
    same contract against the default (threaded) front end."""

    FLAGS: tuple = ("--asyncio",)

    def test_sigterm_drains_checkpoints_and_leaves_no_shm(self, tmp_path):
        data_dir = str(tmp_path / "serve-data")
        process, address = _spawn_server(data_dir, self.FLAGS)
        try:
            with QueryClient(*address, timeout=30.0) as client:
                assert client.ping()
                result = client.execute(
                    "SELECT d0, d1, SUM(m) FROM FACTS "
                    "GROUP BY CUBE d0, d1")
                assert len(result.rows) > 0
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        # the drain released every slab this server ever created
        assert _slab_files(process.pid) == []
        # ... and the checkpoint made the data directory warm: a
        # restart on the same directory restores cuboid entries
        restart, address = _spawn_server(data_dir, self.FLAGS)
        try:
            with QueryClient(*address, timeout=30.0) as client:
                client.execute("SELECT d0, d1, SUM(m) FROM FACTS "
                               "GROUP BY CUBE d0, d1")
                stats = client.stats()
            assert stats["cache"]["hits"] >= 1  # recovered cuboid
            restart.send_signal(signal.SIGTERM)
            assert restart.wait(timeout=30.0) == 0
        finally:
            if restart.poll() is None:
                restart.kill()
                restart.wait(timeout=10.0)
        assert _slab_files(restart.pid) == []

    def test_sigterm_mid_workload_still_exits_clean(self, tmp_path):
        """Queries in flight when the signal lands are drained, not
        dropped: the server answers them, then exits 0."""
        import threading
        process, address = _spawn_server(str(tmp_path / "busy-data"),
                                         self.FLAGS)
        answered = []

        def hammer():
            try:
                with QueryClient(*address, timeout=30.0) as client:
                    while True:
                        client.execute(
                            "SELECT d0, SUM(m) FROM FACTS GROUP BY d0")
                        answered.append(1)
            except Exception:  # noqa: BLE001 -- ends when the server does
                pass

        noise = threading.Thread(target=hammer, daemon=True)
        noise.start()
        try:
            deadline = time.monotonic() + 10.0
            while not answered and time.monotonic() < deadline:
                time.sleep(0.01)
            assert answered, "hammer never completed a query"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            noise.join(timeout=10.0)
        assert _slab_files(process.pid) == []


class TestSigtermDrainDefaultFrontEnd(TestSigtermDrain):
    FLAGS = ()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="needs a POSIX shared-memory mount to observe")
def test_in_process_drain_sweeps_slabs_and_pools():
    """shutdown_async itself (no signals involved) releases segments
    and worker pools -- the primitive every exit path shares."""
    import asyncio

    from repro.cluster import MANAGER
    from repro.cluster.pool import _POOLS, get_pool
    from repro.compute.columnar.batch import ColumnBatch
    from repro.engine.catalog import Catalog
    from repro.serve import AsyncQueryServer

    async def scenario():
        server = AsyncQueryServer(Catalog())
        await server.start_async()
        get_pool(2)
        batch = ColumnBatch.from_columns({"d": [1]}, {"m": [2]})
        shm = MANAGER.create_for(batch)
        assert os.path.exists(f"/dev/shm/{shm.name}")
        await server.shutdown_async()
        return shm.name

    name = asyncio.run(scenario())
    assert MANAGER.active() == 0
    assert not _POOLS
    assert not os.path.exists(f"/dev/shm/{name}")


@pytest.mark.parametrize("front_end", ["threaded", "asyncio"])
def test_buffered_ingest_survives_shutdown(front_end):
    """An ingest buffered without ``flush`` is applied by the shutdown
    of either front end, not lost with the process."""
    import asyncio

    from repro.data import SyntheticSpec, synthetic_table
    from repro.engine.catalog import Catalog
    from repro.serve import AsyncQueryServer, QueryServer

    catalog = Catalog()
    catalog.register("FACTS", synthetic_table(SyntheticSpec(
        cardinalities=(4, 3, 2), n_rows=50, seed=9)))
    row = ("zz", "zz", "zz", 7)
    if front_end == "threaded":
        server = QueryServer(catalog, ingest_max_age_s=1e9)
        with server:
            _buffer_one_insert(server.address, row)
    else:
        server = AsyncQueryServer(catalog, ingest_max_age_s=1e9)

        async def scenario():
            await server.start_async()
            await asyncio.to_thread(_buffer_one_insert, server.address, row)
            await server.shutdown_async()

        asyncio.run(scenario())
    assert server.ingestor.pending_ops() == 0
    assert row in catalog.get("FACTS").rows


def _buffer_one_insert(address, row):
    with QueryClient(*address) as client:
        assert client.ingest("FACTS", inserts=[row])["pending"] == 1
