"""``python -m repro.serve`` -- run the query server (or its smoke test).

Default mode binds a TCP port, loads the demo datasets (the paper's
Table 3 sales data plus a synthetic fact table), and serves until
SIGTERM/SIGINT, then drains and exits 0 (see :mod:`repro.serve.server`);
``--asyncio`` accepts connections on an event loop instead
(:class:`~repro.serve.aio.AsyncQueryServer`).  ``--smoke`` is
the CI driver: it starts an in-process server on an ephemeral port,
hammers it with concurrent clients running a mixed CUBE/ROLLUP/GROUP BY
workload, and exits 0 only if every client's every result matched a
locally computed reference, the cache registered at least one hit, and
shutdown was clean.  ``--smoke --asyncio`` additionally holds
``--smoke-connections`` (default 500) connections open *simultaneously*
and requires that none of them was shed.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.serve.aio import AsyncQueryServer
from repro.serve.cache import CachePolicy, CuboidCache
from repro.serve.client import QueryClient
from repro.serve.server import QueryServer
from repro.sql.executor import SQLSession


def _demo_catalog() -> Catalog:
    """The sales demo table plus a synthetic 3-dim fact table."""
    from repro.shell import _DATASETS

    catalog = Catalog()
    for name, loader in _DATASETS.items():
        catalog.register(name.upper(), loader())
    catalog.register("FACTS", synthetic_table(
        SyntheticSpec(cardinalities=(8, 4, 2), n_rows=600, seed=71)))
    return catalog


def _build_server(args: argparse.Namespace, *,
                  use_asyncio: bool = False,
                  max_queue: int | None = None) -> QueryServer:
    policy = CachePolicy(budget_cells=args.cache_budget)
    cls = AsyncQueryServer if use_asyncio else QueryServer
    return cls(
        _demo_catalog(),
        cache=CuboidCache(policy=policy),
        host=args.host, port=args.port,
        max_inflight=args.max_inflight,
        max_queue=max_queue if max_queue is not None else args.max_queue,
        statement_timeout=args.timeout,
        slow_query_ms=args.slow_query_ms,
        ingest_max_ops=args.ingest_max_ops,
        ingest_max_age_s=args.ingest_max_age,
        data_dir=args.data_dir)


#: the smoke workload -- repeated grouped queries over FACTS, designed
#: so later statements are answerable from the first CUBE's cuboids.
_SMOKE_QUERIES = [
    "SELECT d0, d1, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d1, d2",
    "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY ROLLUP d0, d1",
    "SELECT d0, SUM(m) FROM FACTS GROUP BY d0",
    "SELECT d1, d0, SUM(m) FROM FACTS GROUP BY d1, d0",
    "SELECT d2, SUM(m) FROM FACTS GROUP BY d2",
    "SELECT Model, Year, SUM(Units) FROM SALES GROUP BY ROLLUP Model, Year",
]


def _canonical(table) -> list[str]:
    return sorted(repr(row) for row in table.rows)


def _smoke_client(address: tuple[str, int], queries: list[str],
                  references: dict[str, list[str]],
                  failures: list[str]) -> None:
    try:
        with QueryClient(*address, timeout=30.0) as client:
            for sql in queries:
                result = client.execute(sql)
                if _canonical(result) != references[sql]:
                    failures.append(f"result mismatch for: {sql}")
    except Exception as error:  # noqa: BLE001 -- smoke must report, not die
        failures.append(f"{type(error).__name__}: {error}")


def run_smoke(args: argparse.Namespace) -> int:
    args.port = 0  # ephemeral -- never collide in CI
    server = _build_server(args)

    # reference answers from a plain cache-less session on the same data
    reference_session = SQLSession(_demo_catalog())
    references = {sql: _canonical(reference_session.execute(sql))
                  for sql in _SMOKE_QUERIES}

    n_clients = args.smoke_clients
    failures: list[str] = []
    with server:
        address = server.address
        print(f"smoke: server on {address[0]}:{address[1]}, "
              f"{n_clients} clients")
        threads = []
        for i in range(n_clients):
            # rotate the workload so clients interleave different shapes
            queries = _SMOKE_QUERIES[i % len(_SMOKE_QUERIES):] \
                + _SMOKE_QUERIES[:i % len(_SMOKE_QUERIES)]
            thread = threading.Thread(
                target=_smoke_client,
                args=(address, queries, references, failures),
                name=f"smoke-client-{i}")
            thread.start()
            threads.append(thread)
        for thread in threads:
            thread.join(timeout=60.0)
            if thread.is_alive():
                failures.append(f"{thread.name} hung")
        with QueryClient(*address) as client:
            stats = client.stats()
    cache_stats = stats.get("cache", {})
    print(f"smoke: cache stats {cache_stats}")
    querylog_stats = stats.get("querylog", {})
    print(f"smoke: query log {querylog_stats}")
    if args.smoke_querylog:
        from repro.obs.querylog import QUERY_LOG
        QUERY_LOG.write_json_lines(args.smoke_querylog)
        print(f"smoke: query log written to {args.smoke_querylog} "
              f"({len(QUERY_LOG)} records)")
    if not failures and cache_stats.get("hits", 0) < 1:
        failures.append("expected at least one cache hit, got "
                        f"{cache_stats.get('hits', 0)}")
    for failure in failures:
        print(f"smoke: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("smoke: OK -- all clients consistent, cache hit, clean shutdown")
    return 0


#: the ingest smoke's 10:1 read mix -- all answerable from the CUBE
_INGEST_READS = [
    "SELECT d0, SUM(m) FROM FACTS GROUP BY d0",
    "SELECT d1, SUM(m) FROM FACTS GROUP BY d1",
    "SELECT d2, SUM(m) FROM FACTS GROUP BY d2",
    "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY d0, d1",
    "SELECT d0, d2, SUM(m) FROM FACTS GROUP BY d0, d2",
    "SELECT d1, d2, SUM(m) FROM FACTS GROUP BY d1, d2",
    "SELECT d1, d0, SUM(m) FROM FACTS GROUP BY d1, d0",
    "SELECT d0, d1, SUM(m) FROM FACTS GROUP BY ROLLUP d0, d1",
    "SELECT d0, d2, SUM(m) FROM FACTS GROUP BY CUBE d0, d2",
    "SELECT d0, d1, d2, SUM(m) FROM FACTS GROUP BY d0, d1, d2",
]


def run_smoke_ingest(args: argparse.Namespace) -> int:
    """The streaming-ingest smoke: a 10:1 read/write mix through the
    ``ingest`` wire op must keep the cuboid cache hot (hit rate >= 90%
    after the warm-up miss) while every answer stays bit-identical to a
    cache-less reference session tracking the same writes."""
    args.port = 0
    server = _build_server(args)

    reference = SQLSession(_demo_catalog())
    rounds = 15
    failures: list[str] = []
    with server:
        address = server.address
        print(f"ingest-smoke: server on {address[0]}:{address[1]}, "
              f"{rounds} rounds of 1 write + {len(_INGEST_READS)} reads")
        with QueryClient(*address, timeout=30.0) as client:
            client.execute(
                "SELECT d0, d1, d2, SUM(m) FROM FACTS "
                "GROUP BY CUBE d0, d1, d2")  # warm the cache
            for i in range(rounds):
                row = (f"v{i % 8}", f"v{i % 4}", f"v{i % 2}", i)
                outcome = client.ingest("FACTS", inserts=[row],
                                        flush=True)
                if not outcome["flushed"]:
                    failures.append(f"round {i}: flush did not run")
                reference.catalog.insert("FACTS", row)
                for sql in _INGEST_READS:
                    served = _canonical(client.execute(sql))
                    if served != _canonical(reference.execute(sql)):
                        failures.append(f"round {i}: mismatch for {sql}")
            stats = client.stats()
    cache_stats = stats.get("cache", {})
    ingest_stats = stats.get("ingest", {})
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    rate = cache_stats.get("hits", 0) / lookups if lookups else 0.0
    print(f"ingest-smoke: cache stats {cache_stats}")
    print(f"ingest-smoke: ingest stats {ingest_stats}")
    print(f"ingest-smoke: hit rate {rate:.1%}")
    if cache_stats.get("delta_merged", 0) < rounds:
        failures.append(
            f"expected >= {rounds} delta merges, got "
            f"{cache_stats.get('delta_merged', 0)}")
    if rate < 0.9:
        failures.append(f"hit rate {rate:.1%} under the 90% floor -- "
                        "writes are invalidating instead of merging")
    for failure in failures[:20]:
        print(f"ingest-smoke: FAIL {failure}", file=sys.stderr)
    if len(failures) > 20:
        print(f"ingest-smoke: ... and {len(failures) - 20} more",
              file=sys.stderr)
    if failures:
        return 1
    print(f"ingest-smoke: OK -- {rounds} writes delta-merged, hit rate "
          f"{rate:.1%}, bit-identical answers")
    return 0


async def _async_smoke_client(index: int, address: tuple[str, int],
                              queries: list[str],
                              references: dict[str, list[str]],
                              barrier, failures: list[str]) -> None:
    import asyncio
    import json

    from repro.serve import protocol

    reader = writer = None
    try:
        reader, writer = await asyncio.open_connection(
            *address, limit=1 << 20)

        async def call(message: dict) -> dict:
            writer.write(protocol.dump_message(message))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=60.0)
            return json.loads(line)

        pong = await call({"id": 0, "op": "ping"})
        if not pong.get("pong"):
            failures.append(f"client {index}: bad pong {pong}")
        # every connection is open here -- the barrier is what makes
        # the concurrency claim real, not just a connection *rate*
        await barrier.wait()
        for i, sql in enumerate(queries):
            response = await call({"id": i + 1, "op": "query", "sql": sql})
            if not response.get("ok"):
                failures.append(
                    f"client {index}: {response.get('error')} for: {sql}")
                continue
            table = protocol.decode_table(response)
            if _canonical(table) != references[sql]:
                failures.append(f"client {index}: result mismatch: {sql}")
    except Exception as error:  # noqa: BLE001 -- smoke must report, not die
        failures.append(f"client {index}: {type(error).__name__}: {error}")
    finally:
        if writer is not None:
            writer.close()


def run_smoke_async(args: argparse.Namespace) -> int:
    """The asyncio smoke: ``--smoke-connections`` *simultaneous*
    connections (a barrier holds them all open at once), zero sheds
    allowed, every answer bit-identical to a local reference session,
    graceful drain at the end."""
    import asyncio

    from repro.obs.metrics import REGISTRY

    args.port = 0
    n_conns = args.smoke_connections
    # size the queue so the admission contract *allows* every
    # connection's one outstanding statement: with that guarantee, any
    # shed is a server bug, so the smoke requires exactly zero
    server = _build_server(args, use_asyncio=True,
                           max_queue=max(args.max_queue, n_conns + 16))

    reference_session = SQLSession(_demo_catalog())
    references = {sql: _canonical(reference_session.execute(sql))
                  for sql in _SMOKE_QUERIES}
    failures: list[str] = []

    async def drive() -> dict:
        await server.start_async()
        address = server.address
        print(f"smoke(asyncio): server on {address[0]}:{address[1]}, "
              f"{n_conns} simultaneous connections", flush=True)
        barrier = asyncio.Barrier(n_conns)
        tasks = []
        for i in range(n_conns):
            queries = [_SMOKE_QUERIES[(i + j) % len(_SMOKE_QUERIES)]
                       for j in range(2)]
            tasks.append(asyncio.create_task(_async_smoke_client(
                i, address, queries, references, barrier, failures)))
        await asyncio.gather(*tasks)
        stats = server._stats()
        await server.shutdown_async()
        return stats

    stats = asyncio.run(drive())
    sheds = sum(m["value"] for m in REGISTRY.snapshot()
                if m["name"] == "repro_serve_shed_total")
    cache_stats = stats.get("cache", {})
    print(f"smoke(asyncio): cache stats {cache_stats}")
    print(f"smoke(asyncio): query log {stats.get('querylog', {})}")
    print(f"smoke(asyncio): sheds {sheds}")
    if sheds:
        failures.append(f"{sheds} statements shed; the queue was sized "
                        "for zero")
    if not failures and cache_stats.get("hits", 0) < 1:
        failures.append("expected at least one cache hit, got "
                        f"{cache_stats.get('hits', 0)}")
    for failure in failures[:20]:
        print(f"smoke(asyncio): FAIL {failure}", file=sys.stderr)
    if len(failures) > 20:
        print(f"smoke(asyncio): ... and {len(failures) - 20} more",
              file=sys.stderr)
    if failures:
        return 1
    print(f"smoke(asyncio): OK -- {n_conns} concurrent connections, "
          "zero sheds, bit-identical answers, graceful drain")
    return 0


def run_smoke_crash(args: argparse.Namespace) -> int:
    """The crash-recovery smoke (the CI job behind it):

    1. launch a *subprocess* server with a fresh ``--data-dir``, warm
       its cuboid cache over the smoke workload (each query triggers a
       post-query checkpoint);
    2. ``kill -9`` the process mid-workload -- a real SIGKILL, no
       shutdown hook runs;
    3. restart against the same directory and require: cuboids were
       restored, the first repeated query is a cache hit annotated
       ``recovered=True`` in the query log, and every answer is
       bit-identical to a cache-less reference session.
    """
    import os
    import re
    import signal
    import subprocess
    import tempfile
    import time as _time

    data_dir = args.data_dir or tempfile.mkdtemp(prefix="repro-crash-")
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--data-dir", data_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    failures: list[str] = []
    try:
        banner = process.stdout.readline()
        match = re.search(r"on ([\d.]+):(\d+)", banner)
        if not match:
            print(f"crash-smoke: FAIL no banner: {banner!r}",
                  file=sys.stderr)
            return 1
        address = (match.group(1), int(match.group(2)))
        print(f"crash-smoke: phase 1 server pid={process.pid} "
              f"on {address[0]}:{address[1]}, data dir {data_dir}")

        reference_session = SQLSession(_demo_catalog())
        references = {sql: _canonical(reference_session.execute(sql))
                      for sql in _SMOKE_QUERIES}

        with QueryClient(*address, timeout=30.0) as client:
            for sql in _SMOKE_QUERIES:
                result = client.execute(sql)
                if _canonical(result) != references[sql]:
                    failures.append(f"phase-1 mismatch for: {sql}")

        # keep the server busy so the SIGKILL lands mid-workload
        hammer_exit: list[str] = []
        def hammer() -> None:
            try:
                with QueryClient(*address, timeout=30.0) as noisy:
                    while True:
                        for sql in _SMOKE_QUERIES:
                            noisy.execute(sql)
            except Exception as error:  # noqa: BLE001 -- dies with the server
                hammer_exit.append(f"{type(error).__name__}: {error}")

        noise = threading.Thread(target=hammer, daemon=True)
        noise.start()
        _time.sleep(0.3)
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=10.0)
        noise.join(timeout=10.0)
        print("crash-smoke: phase 1 killed (SIGKILL mid-workload; "
              f"hammer saw: {hammer_exit or ['no error yet']})")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    # phase 2: restart on the same directory, in-process
    args.port = 0
    args.data_dir = data_dir
    server = _build_server(args)
    if server.restored_entries < 1:
        failures.append("phase-2 restored no cuboid cache entries")
    print(f"crash-smoke: phase 2 restored "
          f"{server.restored_entries} cuboid(s)")
    with server:
        address = server.address
        with QueryClient(*address, timeout=30.0) as client:
            for sql in _SMOKE_QUERIES:
                result = client.execute(sql)
                if _canonical(result) != references[sql]:
                    failures.append(f"phase-2 mismatch for: {sql}")
            stats = client.stats()
            records = client.log(n=len(_SMOKE_QUERIES) * 2)
    hits = stats.get("cache", {}).get("hits", 0)
    if hits < 1:
        failures.append(f"phase-2 expected a warm-cache hit, got {hits}")
    recovered_hits = [r for r in records.get("records", [])
                      if r.get("recovered")]
    if not recovered_hits:
        failures.append("no query-log record was annotated "
                        "recovered=True after the warm restart")
    print(f"crash-smoke: phase 2 cache hits={hits}, "
          f"recovered-annotated records={len(recovered_hits)}")
    for failure in failures:
        print(f"crash-smoke: FAIL {failure}", file=sys.stderr)
    if failures:
        return 1
    print("crash-smoke: OK -- warm restart, recovered hit, "
          "bit-identical answers")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve the demo catalog over the JSON wire protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7432,
                        help="TCP port (0 for ephemeral)")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="statements executing concurrently")
    parser.add_argument("--max-queue", type=int, default=16,
                        help="statements waiting for admission")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-statement deadline in seconds")
    parser.add_argument("--cache-budget", type=int, default=None,
                        help="cuboid cache budget in cells")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="mark statements at/over this latency as "
                             "slow (repro_slow_queries_total)")
    parser.add_argument("--data-dir", default=None,
                        help="durable data directory: checkpoint the "
                             "cuboid cache there and restore it on "
                             "restart (warm first queries)")
    parser.add_argument("--asyncio", action="store_true",
                        help="serve through the asyncio front end "
                             "(one event loop, no thread per "
                             "connection); with --smoke, run the "
                             "concurrent-connection smoke instead")
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI smoke workload and exit")
    parser.add_argument("--smoke-crash", action="store_true",
                        help="run the crash-recovery smoke: warm a "
                             "durable server, kill -9 it mid-workload, "
                             "restart on the same --data-dir, and "
                             "require a warm-cache hit with "
                             "bit-identical answers")
    parser.add_argument("--smoke-ingest", action="store_true",
                        help="run the streaming-ingest smoke: a 10:1 "
                             "read/write mix through the ingest op must "
                             "keep the cache hot (>= 90% hit rate) with "
                             "bit-identical answers")
    parser.add_argument("--ingest-max-ops", type=int, default=256,
                        help="ingest buffer flush threshold (ops)")
    parser.add_argument("--ingest-max-age", type=float, default=0.5,
                        help="ingest buffer flush age in seconds")
    parser.add_argument("--smoke-clients", type=int, default=8,
                        help="concurrent clients in --smoke mode")
    parser.add_argument("--smoke-connections", type=int, default=500,
                        help="simultaneous connections in "
                             "--smoke --asyncio mode")
    parser.add_argument("--smoke-querylog", metavar="PATH", default=None,
                        help="in --smoke mode, write the query log as "
                             "JSON lines to PATH (CI artifact)")
    args = parser.parse_args(argv)

    if args.smoke_crash:
        return run_smoke_crash(args)
    if args.smoke_ingest:
        return run_smoke_ingest(args)
    if args.smoke and getattr(args, "asyncio", False):
        return run_smoke_async(args)
    if args.smoke:
        return run_smoke(args)

    if getattr(args, "asyncio", False):
        server = _build_server(args, use_asyncio=True)
        if args.data_dir is not None:
            print(f"durable: data dir {args.data_dir}, "
                  f"{server.restored_entries} cuboid(s) restored",
                  flush=True)
        server.run()  # prints its own banner; drains on SIGTERM
        return 0

    server = _build_server(args)
    server.start()
    host, port = server.address
    print(f"repro query server on {host}:{port} "
          f"(tables: {', '.join(server.catalog.names())})", flush=True)
    if server.store is not None:
        print(f"durable: data dir {args.data_dir}, "
              f"{server.restored_entries} cuboid(s) restored", flush=True)
    print("Ctrl-C or SIGTERM to stop.", flush=True)
    server.serve_forever()  # drains on SIGTERM/SIGINT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
