"""The server under load: ``python -m repro.serve``'s default front end
(threaded :class:`QueryServer`, default admission and ingest settings)
over the tables of one generated input file, on an ephemeral port.

Prints one JSON banner line (``host``, ``port``, ``restored_entries``)
once it accepts connections and one JSON report line (``peak_rss_kb``)
after a SIGTERM/SIGINT-triggered clean shutdown.  ``--asyncio`` serves
through :class:`AsyncQueryServer` instead (the ``aio.qps_ratio`` probe).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import signal
import threading

import harness  # noqa: F401  (puts src/ on sys.path)
from repro.serve.cache import CachePolicy, CuboidCache
from repro.serve.server import QueryServer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", required=True)
    parser.add_argument("--data-dir", default=None)
    parser.add_argument("--cache-budget", type=int, default=None)
    parser.add_argument("--asyncio", action="store_true")
    args = parser.parse_args()

    with open(args.input, encoding="utf-8") as handle:
        catalog = harness.build_catalog(json.load(handle))
    cache = CuboidCache(policy=CachePolicy(budget_cells=args.cache_budget))
    if args.asyncio:
        from repro.serve.aio import AsyncQueryServer
        asyncio.run(_serve_async(AsyncQueryServer(
            catalog, cache=cache, port=0, data_dir=args.data_dir)))
    else:
        _serve_threaded(QueryServer(
            catalog, cache=cache, port=0, data_dir=args.data_dir))
    print(json.dumps({"peak_rss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


def _banner(server) -> None:
    host, port = server.address
    print(json.dumps({"host": host, "port": port,
                      "restored_entries": server.restored_entries}),
          flush=True)


def _serve_threaded(server: QueryServer) -> None:
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    _banner(server)
    stop.wait()
    server.shutdown()


async def _serve_async(server) -> None:
    await server.start_async()
    _banner(server)
    await server.serve_forever_async()  # drains on SIGTERM/SIGINT


if __name__ == "__main__":
    raise SystemExit(main())
