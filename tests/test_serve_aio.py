"""The asyncio serving front end: wire compatibility with the threaded
server, every request through the shared serving core (its admission,
shedding and query log included), and the graceful drain contract."""

import asyncio
import json

import pytest

from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.errors import ServeError
from repro.obs.querylog import QUERY_LOG
from repro.serve import AsyncQueryServer
from repro.sql.executor import SQLSession


def make_catalog():
    catalog = Catalog()
    catalog.register("FACTS", synthetic_table(SyntheticSpec(
        cardinalities=(4, 3, 2), n_rows=200, seed=9)))
    return catalog


def canon(rows):
    return sorted(map(repr, rows))


def run(coroutine):
    return asyncio.run(coroutine)


async def _call(reader, writer, message):
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
    return json.loads(line)


class TestAsyncServerEndToEnd:
    def test_query_matches_local_session(self):
        sql = "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY ROLLUP d0, d1"
        local = SQLSession(make_catalog())
        expected = canon(local.execute(sql).rows)

        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                assert (await _call(reader, writer,
                                    {"id": 1, "op": "ping"}))["ok"]
                reply = await _call(reader, writer,
                                    {"id": 2, "op": "query", "sql": sql})
                assert reply["ok"], reply
                assert reply["trace"]
                from repro.serve.protocol import decode_table
                writer.close()
                return canon(decode_table(reply).rows)
            finally:
                await server.shutdown_async()

        assert run(scenario()) == expected

    def test_malformed_and_oversized_lines_answer_with_errors(self):
        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                writer.write(b"{not json\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                assert not reply["ok"]
                assert reply["error"]["type"] == "ServeError"
                # the connection survives a malformed line
                assert (await _call(reader, writer,
                                    {"id": 1, "op": "ping"}))["ok"]
                writer.close()
            finally:
                await server.shutdown_async()

        run(scenario())

    def test_stats_and_query_log_ops_work(self):
        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                await _call(reader, writer, {
                    "id": 1, "op": "query",
                    "sql": "SELECT d0, SUM(m) FROM FACTS GROUP BY d0"})
                stats = await _call(reader, writer,
                                    {"id": 2, "op": "stats"})
                assert stats["ok"]
                assert stats["stats"]["cache"]["misses"] >= 1
                assert stats["stats"]["inflight"] == 0
                log = await _call(reader, writer, {"id": 3, "op": "log"})
                assert log["ok"]
                assert len(log["records"]) >= 1
                assert log["summary"]["total"] >= 1
                writer.close()
            finally:
                await server.shutdown_async()

        run(scenario())

    def test_ingest_op_merges_into_the_cache(self):
        sql = "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY CUBE d0, d1"

        async def scenario():
            from repro.serve.protocol import decode_table, encode_rows
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            try:
                reader, writer = await asyncio.open_connection(
                    *server.address)
                await _call(reader, writer,
                            {"id": 1, "op": "query", "sql": sql})
                reply = await _call(reader, writer, {
                    "id": 2, "op": "ingest", "table": "FACTS",
                    "inserts": encode_rows([("zz", "zz", "zz", 7)]),
                    "flush": True})
                assert reply["ok"], reply
                assert reply["trace"]
                assert reply["flushed"]["merged"] >= 1
                warm = await _call(reader, writer,
                                   {"id": 3, "op": "query", "sql": sql})
                stats = await _call(reader, writer,
                                    {"id": 4, "op": "stats"})
                assert stats["stats"]["cache"]["hits"] >= 1
                assert stats["stats"]["ingest"]["inserts_applied"] == 1
                bad = await _call(reader, writer, {
                    "id": 5, "op": "ingest", "table": "NOPE",
                    "inserts": encode_rows([("a", "b", "c", 1)])})
                assert not bad["ok"]
                assert bad["error"]["type"] == "CatalogError"
                writer.close()
                return decode_table(warm).rows
            finally:
                await server.shutdown_async()

        rows = run(scenario())
        finest = {row[:2]: row[2] for row in rows
                  if "zz" in row[:2]}
        assert finest[("zz", "zz")] == 7

    def test_concurrent_connections_share_the_cache(self):
        sql = "SELECT d0, SUM(m) FROM FACTS GROUP BY CUBE d0, d1"

        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            try:
                async def one_client():
                    reader, writer = await asyncio.open_connection(
                        *server.address)
                    reply = await _call(reader, writer, {
                        "id": 1, "op": "query", "sql": sql})
                    writer.close()
                    return canon(reply["rows"])

                results = await asyncio.gather(
                    *[one_client() for _ in range(8)])
                assert len({tuple(r) for r in results}) == 1
                return server.cache.stats()
            finally:
                await server.shutdown_async()

        stats = run(scenario())
        assert stats["hits"] >= 1  # later clients reused the cuboid

    def test_threaded_lifecycle_is_unavailable(self):
        server = AsyncQueryServer(make_catalog())
        with pytest.raises(ServeError, match="start_async"):
            server.start()
        with pytest.raises(ServeError, match="shutdown_async"):
            server.shutdown()

    def test_over_limit_query_sheds_with_trace_and_log_record(self):
        """The shared admission sheds an async statement exactly as it
        does a threaded one: a traced ServerOverloadedError answer and
        a ``shed`` record in the query log."""
        sql = "SELECT d0, SUM(m) FROM FACTS GROUP BY d0"

        async def scenario():
            server = AsyncQueryServer(make_catalog(), max_inflight=1,
                                      max_queue=0)

            async def first_admitted():
                while server.admission.inflight < 1:
                    await asyncio.sleep(0.01)

            await server.start_async()
            try:
                first = await asyncio.open_connection(*server.address)
                second = await asyncio.open_connection(*server.address)
                with server.lock.write():
                    # admitted, then parked on the RW lock this test holds
                    blocked = asyncio.create_task(_call(
                        *first, {"id": 1, "op": "query", "sql": sql}))
                    await asyncio.wait_for(first_admitted(), timeout=10.0)
                    shed = await _call(
                        *second, {"id": 2, "op": "query", "sql": sql})
                answered = await blocked
                for _, writer in (first, second):
                    writer.close()
                return shed, answered
            finally:
                await server.shutdown_async()

        shed, answered = run(scenario())
        assert answered["ok"], answered
        assert not shed["ok"]
        assert shed["error"]["type"] == "ServerOverloadedError"
        assert shed["trace"]
        records = [record for record in QUERY_LOG.snapshot(outcome="shed")
                   if record.trace_id == shed["trace"]]
        assert len(records) == 1
        assert records[0].statement == sql


class TestGracefulDrain:
    def test_shutdown_waits_for_inflight_queries(self):
        sql = "SELECT d0, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d1, d2"
        local = SQLSession(make_catalog())
        expected = canon(local.execute(sql).rows)

        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            reader, writer = await asyncio.open_connection(*server.address)

            async def client():
                reply = await _call(reader, writer,
                                    {"id": 1, "op": "query", "sql": sql})
                writer.close()
                return reply

            async def stopper():
                await asyncio.sleep(0.02)
                await server.shutdown_async()

            reply, _ = await asyncio.gather(client(), stopper())
            assert reply["ok"], reply
            from repro.serve.protocol import decode_table
            return canon(decode_table(reply).rows)

        assert run(scenario()) == expected

    def test_shutdown_is_idempotent_and_refuses_new_connections(self):
        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            address = server.address
            await server.shutdown_async()
            await server.shutdown_async()  # second call: clean no-op
            with pytest.raises(OSError):
                reader, writer = await asyncio.open_connection(*address)
                # if the TCP connect itself won, the server closes us
                # immediately: the read must see EOF
                data = await asyncio.wait_for(reader.read(1), timeout=5.0)
                writer.close()
                if data == b"":
                    raise ConnectionResetError("closed by server")

        run(scenario())

    def test_shutdown_releases_cluster_resources(self):
        """The drain must sweep worker pools and /dev/shm slabs."""
        from repro.cluster import MANAGER
        from repro.cluster.pool import _POOLS, get_pool
        from repro.compute.columnar.batch import ColumnBatch

        async def scenario():
            server = AsyncQueryServer(make_catalog())
            await server.start_async()
            # simulate cluster activity during serving
            get_pool(2)
            batch = ColumnBatch.from_columns({"d": [1, 2]}, {"m": [3, 4]})
            MANAGER.create_for(batch)
            assert MANAGER.active() == 1
            await server.shutdown_async()

        run(scenario())
        assert MANAGER.active() == 0
        assert not _POOLS
