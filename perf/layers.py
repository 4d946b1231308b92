"""Outside-in layer timing: the request path replayed call by call.

Nothing here reaches into the program.  A layer is timed by calling
its public functions in the order the server makes them, one span per
call (:mod:`spans`); the cuboid cache is timed through a delegating
proxy handed to ``SQLSession`` / ``StreamIngestor`` as ``cache=``.
Where ``SQLSession.execute`` gives no hook (parse, WHERE filter, and
the compute path behind a cache bypass) the same public function is
called separately on the same input and recorded as an *estimated*
child of the execute span.
"""

from __future__ import annotations

import os
import time

import harness
from repro.aggregates.registry import default_registry
from repro.compute import build_task, choose_algorithm
from repro.compute.columnar import ColumnBatch
from repro.core.cube import agg
from repro.core.grouping import GroupingSpec
from repro.engine.operators import filter_rows
from repro.maintenance.ingest import StreamIngestor
from repro.serve import protocol
from repro.serve.cache import CachePolicy, CuboidCache
from repro.serve.server import QueryServer
from repro.sql.executor import SQLSession
from repro.sql.parser import parse_any
from repro.storage import CubeStore

__all__ = ["TimedCache", "Pipeline", "probe_compute", "probe_filter",
           "place_compute",
           "timed", "best_of_two", "aggregate_requests", "grouping_masks"]


def timed(call, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - started, result


def best_of_two(call, *args, **kwargs):
    """``(seconds, result)`` of the faster of two calls.  Separately
    measured pieces are subtracted from one another (execute - parse -
    compute...), and the sandbox adds noise, never speed."""
    first, _ = timed(call, *args, **kwargs)
    second, result = timed(call, *args, **kwargs)
    return min(first, second), result


class TimedCache:
    """A ``CuboidCache`` stand-in that records a span around each call
    the request path makes into the cache and delegates everything."""

    def __init__(self, inner: CuboidCache, recorder) -> None:
        self._inner = inner
        self._recorder = recorder

    def serve(self, **kwargs):
        with self._recorder.span("serve.cache.serve"):
            return self._inner.serve(**kwargs)

    def apply_delta(self, *args, **kwargs):
        with self._recorder.span("serve.cache.apply_delta"):
            return self._inner.apply_delta(*args, **kwargs)

    def dump_state(self):
        with self._recorder.span("serve.cache.dump_state") as span:
            blob = self._inner.dump_state()
            span["bytes"] = len(blob)
            return blob

    def restore_state(self, blob, *, catalog):
        with self._recorder.span("serve.cache.restore_state"):
            return self._inner.restore_state(blob, catalog=catalog)

    def __getattr__(self, name):
        return getattr(self._inner, name)


# -- the compute path, call by call ------------------------------------------


def aggregate_requests(aggs: list) -> list:
    """Plan aggregates as ``cube()`` requests.  MEDIAN runs in strict
    holistic mode, as SQL runs it (so it routes to the 2^N-algorithm)."""
    out = []
    for name, column in aggs:
        function = (default_registry.create(name, carrying=False)
                    if name == "MEDIAN" else name)
        out.append(agg(function, column))
    return out


def grouping_masks(plan: dict) -> tuple:
    names = tuple(plan["dims"])
    spec = {"CUBE": GroupingSpec.for_cube, "ROLLUP": GroupingSpec.for_rollup,
            "": GroupingSpec.for_groupby}[plan["clause"]](names)
    return tuple(spec.grouping_sets())


def probe_filter(catalog, sql: str, plan: dict):
    """``(seconds, rows the WHERE clause keeps)`` for one statement;
    the table itself, in no time, when it has no WHERE clause."""
    table = catalog.get(plan["table"])
    where = parse_any(sql).body.where
    if where is None:
        return 0.0, table
    return best_of_two(filter_rows, table, where)


def probe_compute(catalog, sql: str, plan: dict) -> dict:
    """What a cache-less execute of ``sql`` does below the SQL layer,
    as separately timed public calls: WHERE filter, ``build_task``,
    the optimizer's algorithm (inclusive) and, for the columnar
    algorithm, the batch encode it starts with."""
    filter_s, table = probe_filter(catalog, sql, plan)
    specs = [request.resolve(default_registry)
             for request in aggregate_requests(plan["aggs"])]
    build_s, task = best_of_two(build_task, table, plan["dims"], specs,
                                grouping_masks(plan))
    algorithm = choose_algorithm(task)
    algorithm_s, result = best_of_two(algorithm.compute, task)
    batch_s = 0.0
    if algorithm.name == "columnar":
        batch_s, _ = best_of_two(ColumnBatch.from_task, task)
    return {"filter_s": filter_s, "build_task_s": build_s,
            "algorithm_s": algorithm_s, "batch_s": min(batch_s, algorithm_s),
            "task": task, "stats": result.stats}


def place_compute(recorder, parent: dict, probe: dict) -> None:
    """Record a :func:`probe_compute` result (less its filter) as
    estimated children."""
    recorder.estimated("compute.build_task", parent, probe["build_task_s"])
    algorithm = recorder.estimated("compute.algorithm", parent,
                                   probe["algorithm_s"])
    if probe["batch_s"]:
        recorder.estimated("compute.columnar.batch_encode", algorithm,
                           probe["batch_s"])


# -- the served request path, in process -------------------------------------


class Pipeline:
    """One server's worth of state driven without the socket: what
    ``QueryServer`` does for a request, as the public calls it makes."""

    def __init__(self, tables: dict, recorder, *,
                 cache_budget: int | None = None,
                 data_dir: str | None = None) -> None:
        self.recorder = recorder
        self.catalog = harness.build_catalog(tables)
        self.cache = TimedCache(
            CuboidCache(CachePolicy(budget_cells=cache_budget)), recorder)
        self.session = SQLSession(self.catalog, cache=self.cache)
        self.uncached = SQLSession(self.catalog)
        self.ingestor = StreamIngestor(self.catalog, self.cache)
        self.data_dir = data_dir
        self.store = CubeStore(data_dir) if data_dir else None
        self._checkpointed = self.cache.change_token
        #: per distinct statement: seconds of a separate parse / WHERE
        #: filter, and the compute probe of those that bypass the cache
        self._parse_s: dict[str, float] = {}
        self._filter_s: dict[str, float] = {}
        self._probes: dict[str, dict] = {}
        #: the statement of every read that computed below the cache
        self.bypassed: list[str] = []
        #: sql -> [through-the-cache miss seconds, ...]
        self.miss_seconds: dict[str, list] = {}
        self.results: list[dict] = []
        self.ingested_bytes = 0

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def checkpoint(self) -> None:
        """The server's post-request checkpoint: whenever the cache's
        change token moved (``checkpoint_every=1``)."""
        if self.store is None:
            return
        token = self.cache.change_token
        if token == self._checkpointed:
            return
        with self.recorder.span("storage.checkpoint"):
            self.store.checkpoint(cache_state=self.cache.dump_state())
        self._checkpointed = token

    def handle(self, number: int, request: dict):
        recorder = self.recorder
        recorder.request = number
        wire = {k: v for k, v in request.items()
                if k not in ("class", "plan")}
        line = protocol.dump_message({"id": number, **wire})
        with recorder.span("driver.request", **{"class": request["class"]}):
            with recorder.span("serve.protocol.request_decode"):
                message = protocol.parse_message(line)
            if message["op"] == "ingest":
                self.ingested_bytes += len(line)
                with recorder.span("maintenance.ingest_submit"):
                    inserts, deletes, updates = QueryServer.parse_ingest(
                        message)
                    self.ingestor.submit(message["table"], inserts=inserts,
                                         deletes=deletes, updates=updates)
                self.checkpoint()
                return None
            answer, execute, bypassed = self._query(message["sql"])
        # separate calls happen once the request's own clock has stopped
        self._estimate(message["sql"], request["plan"], execute, bypassed)
        return answer

    def _estimate(self, sql: str, plan: dict, execute: dict,
                  bypassed: bool) -> None:
        """Fill the execute span with what it hid: parse, WHERE filter
        and -- behind a bypass -- the compute path."""
        if sql not in self._parse_s:
            self._parse_s[sql] = min(timed(parse_any, sql)[0]
                                     for _ in range(3))
            self._filter_s[sql] = probe_filter(self.catalog, sql, plan)[0]
            if bypassed:
                self._probes[sql] = probe_compute(self.catalog, sql, plan)
        recorder = self.recorder
        recorder.estimated("sql.parse", execute, self._parse_s[sql])
        if self._filter_s[sql]:
            recorder.estimated("engine.filter", execute, self._filter_s[sql])
        if bypassed:
            self.bypassed.append(sql)
            place_compute(recorder, execute, self._probes[sql])

    def _query(self, sql: str) -> tuple:
        """``(decoded answer, the execute span, whether the executor
        computed below the cache)``."""
        recorder = self.recorder
        if self.ingestor.pending_ops():
            # read-your-writes: the server flushes before any query
            with recorder.span("maintenance.ingest_flush"):
                self.ingestor.flush()
        before = self.cache.stats()
        with recorder.span("sql.execute") as execute:
            result = self.session.execute(sql)
        after = self.cache.stats()
        if after["misses"] > before["misses"]:
            serve = recorder.child(execute, "serve.cache.serve")
            self.miss_seconds.setdefault(sql, []).append(
                serve["end"] - serve["start"])
        bypassed = (after["misses"] == before["misses"]
                    and after["hits"] == before["hits"])
        with recorder.span("serve.protocol.result_encode"):
            payload = protocol.encode_table(result)
            reply = protocol.dump_message(
                {"id": 0, "ok": True, "columns": payload["columns"],
                 "rows": payload["rows"], "elapsed_ms": 0.0, "trace": "-"})
        self.checkpoint()
        with recorder.span("serve.protocol.result_decode"):
            decoded = protocol.decode_table(protocol.parse_message(reply))
        self.results.append({"bytes": len(reply),
                             "cells": len(result) * len(result.schema)})
        return decoded, execute, bypassed

    def bypass_stats(self) -> list:
        """``(ComputeStats, task rows)`` per read that computed below
        the cache (the probe of its statement stands for each)."""
        return [(self._probes[sql]["stats"],
                 len(self._probes[sql]["task"].rows))
                for sql in self.bypassed]

    def restart(self) -> tuple[float, int]:
        """Close the store and reopen it the way a restarted server
        does: ``(seconds, restored entries)``."""
        self.store.close()
        started = time.perf_counter()
        self.store = CubeStore(self.data_dir)
        fresh = TimedCache(CuboidCache(self.cache.policy), self.recorder)
        blob = self.store.load_cache()
        restored = fresh.restore_state(blob, catalog=self.catalog) \
            if blob is not None else 0
        return time.perf_counter() - started, restored

    def disk_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.data_dir, name))
                   for name in os.listdir(self.data_dir))
