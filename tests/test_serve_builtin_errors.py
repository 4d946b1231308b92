"""A builtin exception inside a query or an ingest is a server bug, not
a query error -- but the client still gets an error response, the
connection stays usable, and the admission slot and RW lock are
released.  Checked on the threaded and the asyncio front ends."""

import asyncio
import json

import pytest

from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.errors import ServeError
from repro.serve import AsyncQueryServer, QueryClient, QueryServer
from repro.sql.executor import SQLSession

COUNT = "SELECT COUNT(*) FROM FACTS"


def make_catalog():
    catalog = Catalog()
    catalog.register("FACTS", synthetic_table(SyntheticSpec(
        cardinalities=(4, 3, 2), n_rows=50, seed=5)))
    return catalog


@pytest.fixture
def boom_query(monkeypatch):
    """``SQLSession.execute`` raises a builtin error for one statement."""
    original = SQLSession.execute

    def execute(self, sql, **kwargs):
        if "BOOM" in sql:
            raise RuntimeError("boom")
        return original(self, sql, **kwargs)

    monkeypatch.setattr(SQLSession, "execute", execute)


def boom_ingest(monkeypatch, server):
    def submit(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(server.ingestor, "submit", submit)


def assert_boom(response):
    assert response["ok"] is False
    assert response["error"] == {"type": "RuntimeError", "message": "boom"}
    assert response["trace"]


class TestThreadedServer:
    def test_query(self, boom_query, capsys):
        with QueryServer(make_catalog()) as server:
            with QueryClient(*server.address) as client:
                with pytest.raises(ServeError, match="RuntimeError: boom"):
                    client.execute("SELECT 'BOOM' FROM FACTS")
                assert client.execute(COUNT).rows == [(50,)]
            assert server.admission.inflight == 0
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_ingest(self, monkeypatch, capsys):
        with QueryServer(make_catalog()) as server:
            boom_ingest(monkeypatch, server)
            with QueryClient(*server.address) as client:
                with pytest.raises(ServeError, match="RuntimeError: boom"):
                    client.ingest("FACTS", inserts=[("v0", "v0", "v0", 1)])
                assert client.execute(COUNT).rows == [(50,)]
            assert server.admission.inflight == 0
        assert "RuntimeError: boom" in capsys.readouterr().err


async def _call(reader, writer, message):
    writer.write(json.dumps(message).encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=30.0)
    return json.loads(line)


def _run_async(request, *, monkeypatch=None):
    """Send ``request``, then a COUNT(*), on one asyncio connection."""
    async def scenario():
        server = AsyncQueryServer(make_catalog())
        if monkeypatch is not None:
            boom_ingest(monkeypatch, server)
        await server.start_async()
        try:
            reader, writer = await asyncio.open_connection(*server.address)
            failed = await _call(reader, writer, request)
            counted = await _call(reader, writer,
                                  {"id": 2, "op": "query", "sql": COUNT})
            writer.close()
            return failed, counted, server.admission.inflight
        finally:
            await server.shutdown_async()

    return asyncio.run(scenario())


class TestAsyncServer:
    def test_query(self, boom_query):
        failed, counted, inflight = _run_async(
            {"id": 1, "op": "query", "sql": "SELECT 'BOOM' FROM FACTS"})
        assert_boom(failed)
        assert counted["ok"] and counted["rows"] == [[50]]
        assert inflight == 0

    def test_ingest(self, monkeypatch):
        failed, counted, inflight = _run_async(
            {"id": 1, "op": "ingest", "table": "FACTS",
             "inserts": [["v0", "v0", "v0", 1]]}, monkeypatch=monkeypatch)
        assert_boom(failed)
        assert counted["ok"] and counted["rows"] == [[50]]
        assert inflight == 0
