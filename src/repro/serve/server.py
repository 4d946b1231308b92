"""The concurrent query service: threaded TCP server over SQLSessions.

Architecture (the ROADMAP's "serves heavy traffic" north star, scaled
to a reference implementation):

- one **listener thread** accepts connections; each connection gets a
  thread and its own :class:`~repro.sql.SQLSession` -- sessions share
  the catalog and one :class:`~repro.serve.cache.CuboidCache`;
- a **versioned read/write lock** orders statements: SELECT and plain
  EXPLAIN run shared (concurrent readers), DML/DDL and EXPLAIN ANALYZE
  run exclusive.  DML is exclusive for catalog consistency; EXPLAIN
  ANALYZE because it installs a process-global tracer
  (:func:`repro.obs.trace.use_tracer`), which concurrent readers would
  pollute.  The lock's version counter bumps on every write release --
  a cheap global "something changed" epoch the stats op reports;
- an **admission controller** bounds concurrency: at most
  ``max_inflight`` statements execute, at most ``max_queue`` wait, and
  a queued statement whose :class:`ExecutionContext` deadline passes is
  shed with :class:`~repro.errors.QueryTimeoutError` instead of running
  a query nobody is waiting for.  Queue-full rejections raise
  :class:`~repro.errors.ServerOverloadedError`
  (``repro_serve_shed_total{reason=queue_full}``).

Per-connection resilience: every query statement runs under a fresh
``ExecutionContext`` carrying the server's ``statement_timeout`` and
``memory_budget``, so one slow or hungry client degrades or times out
alone.  Contexts are thread-local (see :mod:`repro.resilience.context`),
which is what makes concurrent sessions safe at all.

This class is the one serving core; the asyncio front end
(:mod:`repro.serve.aio`) only accepts connections and runs each request
through :meth:`QueryServer._handle` on a thread.  Both shut down alike
(here on SIGTERM/SIGINT under :meth:`QueryServer.serve_forever`): stop
accepting, drain every request already read, close the connections,
then flush ingest, checkpoint, and release pools, slabs and the store.
"""

from __future__ import annotations

import contextlib
import signal
import socket
import threading
import time
import traceback
from typing import Iterator, Optional

from repro.analysis import locktrack
from repro.engine.catalog import Catalog
from repro.maintenance.ingest import StreamIngestor
from repro.errors import (
    QueryTimeoutError,
    ReproError,
    ServeError,
    ServerOverloadedError,
)
from repro.obs import instrument, querylog, trace
from repro.obs.querylog import QUERY_LOG
from repro.resilience.context import ExecutionContext
from repro.serve import protocol
from repro.serve.cache import CuboidCache
from repro.sql.executor import SQLSession

__all__ = ["AdmissionController", "QueryServer", "VersionedRWLock"]

#: how long a shutdown waits for the requests already read to finish
_DRAIN_TIMEOUT_S = 30.0


class VersionedRWLock:
    """Writer-priority readers/writer lock with a change epoch.

    Readers share; a writer excludes everyone and bumps ``version`` on
    release.  Waiting writers block *new* readers (writer priority), so
    DML cannot starve behind a stream of SELECTs.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        self._version = 0

    @property
    def version(self) -> int:
        with self._cond:
            return self._version

    #: Name the lock-order sanitizer tracks this lock under.
    SANITIZER_NAME = "serve.rwlock"

    @contextlib.contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        locktrack.note_acquire(self.SANITIZER_NAME)
        try:
            yield
        finally:
            locktrack.note_release(self.SANITIZER_NAME)
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        locktrack.note_acquire(self.SANITIZER_NAME)
        try:
            yield
        finally:
            locktrack.note_release(self.SANITIZER_NAME)
            with self._cond:
                self._writer = False
                self._version += 1
                self._cond.notify_all()


class AdmissionController:
    """Bounded concurrency with deadline shedding.

    ``slot`` blocks until an execution slot frees up; it refuses
    immediately when the wait queue is full (queue_full shed) and gives
    up when the caller's deadline passes while queued (deadline shed).
    """

    def __init__(self, max_inflight: int = 4, max_queue: int = 16) -> None:
        if max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ServeError(f"max_queue must be >= 0, got {max_queue}")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._cond = threading.Condition()
        self._inflight = 0
        self._queued = 0

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    @property
    def queued(self) -> int:
        with self._cond:
            return self._queued

    def _publish(self) -> None:
        instrument.set_serve_inflight(self._inflight)
        instrument.set_serve_queue_depth(self._queued)

    @contextlib.contextmanager
    def slot(self, deadline: Optional[float] = None) -> Iterator[None]:
        with self._cond:
            if self._inflight >= self.max_inflight \
                    and self._queued >= self.max_queue:
                instrument.record_serve_shed("queue_full")
                raise ServerOverloadedError(
                    f"server overloaded: {self._inflight} in flight, "
                    f"{self._queued} queued (max_queue={self.max_queue})")
            self._queued += 1
            self._publish()
            try:
                while self._inflight >= self.max_inflight:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            instrument.record_serve_shed("deadline")
                            raise QueryTimeoutError(
                                "statement deadline passed while queued "
                                "for admission")
                    self._cond.wait(timeout=remaining)
            finally:
                self._queued -= 1
            self._inflight += 1
            self._publish()
        try:
            yield
        finally:
            with self._cond:
                self._inflight -= 1
                self._publish()
                self._cond.notify()


def classify_statement(sql: str) -> str:
    """``read`` for SELECT / plain EXPLAIN, ``write`` for DML/DDL and
    EXPLAIN ANALYZE (the latter swaps the process-global tracer)."""
    tokens = sql.strip().rstrip(";").split()
    if not tokens:
        return "read"
    first = tokens[0].upper()
    if first in ("INSERT", "DELETE", "UPDATE", "CREATE", "DROP"):
        return "write"
    if first == "EXPLAIN" and len(tokens) > 1 \
            and tokens[1].upper() == "ANALYZE":
        return "write"
    return "read"


class QueryServer:
    """The TCP front door (see module docstring).

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  ``python -m repro.serve`` wraps this class.
    """

    def __init__(self, catalog: Catalog | None = None, *,
                 cache: CuboidCache | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 4, max_queue: int = 16,
                 statement_timeout: Optional[float] = None,
                 memory_budget: Optional[int] = None,
                 slow_query_ms: Optional[float] = None,
                 data_dir: Optional[str] = None,
                 checkpoint_every: int = 1,
                 ingest_max_ops: int = 256,
                 ingest_max_age_s: float = 0.5,
                 ingest_chaos=None) -> None:
        """``data_dir`` makes the server durable: the serve cache's
        cuboid entries are checkpointed into a
        :class:`~repro.storage.CubeStore` there after queries (every
        ``checkpoint_every``-th entry-set change) and on shutdown, and
        restored at construction -- so a restarted server answers its
        first repeated query from a recovered cuboid instead of a cold
        rebuild."""
        self.catalog = catalog if catalog is not None else Catalog()
        self.cache = cache if cache is not None else CuboidCache()
        self.host = host
        self.port = port
        self.statement_timeout = statement_timeout
        self.memory_budget = memory_budget
        self.slow_query_ms = slow_query_ms
        self.lock = VersionedRWLock()
        self.admission = AdmissionController(max_inflight=max_inflight,
                                             max_queue=max_queue)
        self.ingestor = StreamIngestor(self.catalog, self.cache,
                                       max_ops=ingest_max_ops,
                                       max_age_s=ingest_max_age_s,
                                       chaos=ingest_chaos)
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        # requests read and not yet answered: the drain waits for zero
        self._requests = 0
        self._idle = threading.Condition(self._conn_lock)
        self._stop = threading.Event()
        self._started = False
        self.store = None
        self.restored_entries = 0
        self._checkpoint_every = max(1, checkpoint_every)
        self._checkpoint_lock = threading.Lock()
        self._checkpointed_token = 0
        if data_dir is not None:
            from repro.storage import CubeStore
            self.store = CubeStore(data_dir)
            blob = self.store.load_cache()
            if blob is not None:
                self.restored_entries = self.cache.restore_state(
                    blob, catalog=self.catalog)
            self._checkpointed_token = self.cache.change_token

    @contextlib.contextmanager
    def _conn_locked(self) -> Iterator[None]:
        """``_conn_lock`` (the connection set and the request count)
        with lock-order sanitizer bookkeeping."""
        with self._conn_lock:
            locktrack.note_acquire("serve.connections")
            try:
                yield
            finally:
                locktrack.note_release("serve.connections")

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise ServeError("server not started")
        return self._listener.getsockname()[:2]

    def start(self) -> "QueryServer":
        if self._started:
            raise ServeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.settimeout(0.2)  # lets the accept loop poll _stop
        self._listener = listener
        self._started = True
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="repro-serve-accept", daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self

    def serve_forever(self) -> None:
        """Serve until SIGTERM/SIGINT (or a :meth:`shutdown` from
        another thread), then shut down gracefully."""
        if not self._started:
            self.start()
        signalled: list[int] = []
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(ValueError):  # main thread only
                previous[signum] = signal.signal(
                    signum, lambda signum, _frame: signalled.append(signum))
        try:
            while not signalled and not self._stop.is_set():
                time.sleep(0.2)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting, drain the requests already read, close the
        connections, release resources (:meth:`_close_down`).
        Idempotent."""
        if not self._stop_serving():
            return
        if self._threads:
            self._threads[0].join(timeout=5.0)  # the acceptor polls _stop
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        self._drain()
        with self._conn_locked():
            connections = list(self._connections)
        for conn in connections:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._close_down()

    def __enter__(self) -> "QueryServer":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- the shutdown sequence both front ends share -------------------------

    def _stop_serving(self) -> bool:
        """Begin shutdown (``False`` if it already began): from here on
        :meth:`_begin_request` refuses."""
        with self._conn_locked():
            if self._stop.is_set():
                return False
            self._stop.set()
            return True

    def _begin_request(self) -> bool:
        """Count a request the moment it is read, so the drain waits
        for it; ``False`` -- drop it and close -- once stopping."""
        with self._conn_locked():
            if self._stop.is_set():
                return False
            self._requests += 1
            return True

    def _end_request(self) -> None:
        """The counted request was answered (or its connection died)."""
        with self._conn_locked():
            self._requests -= 1
            if not self._requests:
                self._idle.notify_all()

    def _drain(self) -> None:
        """Wait (at most ``_DRAIN_TIMEOUT_S``) until every counted
        request has been answered."""
        with self._conn_locked():
            draining = self._requests
            self._idle.wait_for(lambda: not self._requests,
                                timeout=_DRAIN_TIMEOUT_S)
        if draining:
            instrument.record_serve_drain(draining)

    def _close_down(self) -> None:
        """After the drain: flush buffered ingest, checkpoint, leave no
        worker processes and no ``/dev/shm`` slabs, close the store."""
        with contextlib.suppress(ReproError):
            self.ingestor.flush()
        if self.store is not None:
            with contextlib.suppress(ReproError, OSError):
                self.checkpoint()
        from repro.cluster import MANAGER, shutdown_pools
        shutdown_pools()
        MANAGER.release_all()
        if self.store is not None:
            with contextlib.suppress(OSError):
                self.store.close()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._conn_locked():
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="repro-serve-conn", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _make_session(self) -> SQLSession:
        return SQLSession(self.catalog, cache=self.cache,
                          statement_timeout=self.statement_timeout,
                          memory_budget=self.memory_budget,
                          slow_query_ms=self.slow_query_ms)

    def _serve_connection(self, conn: socket.socket) -> None:
        instrument.record_serve_connection()
        session = self._make_session()
        stream = conn.makefile("rwb")
        try:
            while not self._stop.is_set():
                try:
                    request = protocol.read_message(stream)
                except ServeError as error:
                    protocol.write_message(stream, self._error(None, error))
                    continue
                except OSError:
                    break
                if request is None or not self._begin_request():
                    break
                try:
                    response = self._handle(session, request)
                    if response is None:  # close op
                        break
                    try:
                        protocol.write_message(stream, response)
                    except OSError:
                        break
                finally:
                    self._end_request()
        finally:
            with self._conn_locked():
                self._connections.discard(conn)
            with contextlib.suppress(OSError):
                stream.close()
            with contextlib.suppress(OSError):
                conn.close()

    # -- request dispatch ----------------------------------------------------

    def _handle(self, session: SQLSession,
                request: dict) -> Optional[dict]:
        request_id = request.get("id")
        op = request.get("op", "query")
        instrument.record_serve_request(op)
        if op == "close":
            return None
        if op == "ping":
            return {"id": request_id, "ok": True, "pong": True}
        if op == "stats":
            return {"id": request_id, "ok": True,
                    "stats": self._stats()}
        if op == "log":
            return self._log_op(request_id, request)
        if op == "checkpoint":
            if self.store is None:
                return self._error(request_id, ServeError(
                    "server has no data directory; start it with "
                    "--data-dir to enable checkpoints"))
            try:
                self.checkpoint()
            except ReproError as error:
                return self._error(request_id, error)
            return {"id": request_id, "ok": True,
                    "storage": self.store.stats()}
        if op == "query":
            sql = request.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                return self._error(request_id, ServeError(
                    "query op needs a non-empty 'sql' string"))
            trace_id = (self._valid_trace(request.get("trace"))
                        or trace.new_trace_id())
            return self._run_query(session, request_id, sql, trace_id)
        if op == "ingest":
            return self._run_ingest(request_id, request)
        return self._error(request_id,
                           ServeError(f"unknown op {op!r}"))

    @staticmethod
    def _valid_trace(value) -> Optional[str]:
        """A usable client-supplied trace id, or ``None``.

        The id travels into log records and span exports, so anything
        malformed -- wrong type, empty, oversized, whitespace or
        control characters -- is discarded and the server generates
        its own (the client is never failed over its trace header)."""
        if not isinstance(value, str):
            return None
        value = value.strip()
        if not value or len(value) > 64:
            return None
        if any(ch.isspace() or not ch.isprintable() for ch in value):
            return None
        return value

    def _stats(self) -> dict:
        stats = {
            "cache": self.cache.stats(),
            "inflight": self.admission.inflight,
            "queued": self.admission.queued,
            "catalog_version": self.lock.version,
            "tables": self.catalog.names(),
            "querylog": QUERY_LOG.summary(),
            "ingest": self.ingestor.snapshot(),
        }
        if self.store is not None:
            stats["storage"] = {**self.store.stats(),
                                "restored_entries": self.restored_entries}
        return stats

    def _log_op(self, request_id, request: dict) -> dict:
        """The ``log`` op: recent query records + workload history."""
        n = request.get("n", 50)
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            return self._error(request_id, ServeError(
                "log op 'n' must be a non-negative integer"))
        kind = request.get("kind")
        outcome = request.get("outcome")
        if kind is not None and not isinstance(kind, str):
            return self._error(request_id, ServeError(
                "log op 'kind' must be a string"))
        if outcome is not None and not isinstance(outcome, str):
            return self._error(request_id, ServeError(
                "log op 'outcome' must be a string"))
        slow = request.get("slow")
        if slow is not None and not isinstance(slow, bool):
            return self._error(request_id, ServeError(
                "log op 'slow' must be a boolean"))
        records = QUERY_LOG.snapshot(n, kind=kind, outcome=outcome,
                                     slow=slow)
        return {"id": request_id, "ok": True,
                "records": [record.to_dict() for record in records],
                "workload": QUERY_LOG.history.snapshot(),
                "summary": QUERY_LOG.summary()}

    def _run_query(self, session: SQLSession, request_id,
                   sql: str, trace_id: str) -> dict:
        started = time.perf_counter()
        ctx = ExecutionContext(timeout=self.statement_timeout,
                               memory_budget=self.memory_budget)
        try:
            with QUERY_LOG.track(statement=sql, trace_id=trace_id):
                with self._admitted(ctx):
                    result = self._execute_locked(session, sql, ctx)
        except Exception as error:
            return self._failed(request_id, error, trace_id)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        payload = protocol.encode_table(result)
        self._maybe_checkpoint()
        return {"id": request_id, "ok": True,
                "columns": payload["columns"], "rows": payload["rows"],
                "elapsed_ms": round(elapsed_ms, 3),
                "trace": trace_id}

    @staticmethod
    def parse_ingest(request: dict) -> tuple[list, list, list]:
        """Decode an ingest request's row payloads.

        ``inserts`` and ``deletes`` are lists of rows; ``updates`` is a
        list of ``[old_row, new_row]`` pairs."""
        inserts = protocol.decode_rows(request.get("inserts", []))
        deletes = protocol.decode_rows(request.get("deletes", []))
        payload = request.get("updates", [])
        if not isinstance(payload, list):
            raise ServeError(
                "ingest updates must be a list of [old, new] row pairs")
        updates = []
        for pair in payload:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ServeError(
                    "each ingest update must be an [old, new] row pair")
            old, new = protocol.decode_rows(list(pair))
            updates.append((old, new))
        return inserts, deletes, updates

    def _run_ingest(self, request_id, request: dict) -> dict:
        """The ``ingest`` wire op: buffer (and maybe flush) streamed
        DML through the :class:`StreamIngestor`.  Classified as a
        write -- it takes an admission slot and the exclusive lock, so
        backpressure and shedding behave exactly like SQL DML."""
        started = time.perf_counter()
        table = request.get("table")
        if not isinstance(table, str) or not table.strip():
            return self._error(request_id, ServeError(
                "ingest op needs a non-empty 'table' string"))
        force_flush = request.get("flush", False)
        if not isinstance(force_flush, bool):
            return self._error(request_id, ServeError(
                "ingest op 'flush' must be a boolean"))
        trace_id = (self._valid_trace(request.get("trace"))
                    or trace.new_trace_id())
        ctx = ExecutionContext(timeout=self.statement_timeout,
                               memory_budget=self.memory_budget)
        try:
            inserts, deletes, updates = self.parse_ingest(request)
            n_ops = len(inserts) + len(deletes) + len(updates)
            statement = f"INGEST {table.upper()} ({n_ops} ops)"
            with QUERY_LOG.track("ingest", statement=statement,
                                 trace_id=trace_id):
                with self._admitted(ctx), self.lock.write():
                    outcome = self.ingestor.submit(
                        table, inserts=inserts, deletes=deletes,
                        updates=updates)
                    if force_flush and outcome["flushed"] is None:
                        outcome["flushed"] = self.ingestor.flush(table)
        except Exception as error:
            return self._failed(request_id, error, trace_id)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._maybe_checkpoint()
        return {"id": request_id, "ok": True, "table": table.upper(),
                "buffered": outcome["buffered"],
                "flushed": outcome["flushed"],
                "pending": self.ingestor.pending_ops(),
                "elapsed_ms": round(elapsed_ms, 3),
                "trace": trace_id}

    @contextlib.contextmanager
    def _admitted(self, ctx: ExecutionContext) -> Iterator[None]:
        """An admission slot under ``ctx``'s deadline, annotating the
        wait on the current query-log record -- on sheds too: a record
        whose whole life was the queue should say so."""
        queued = time.perf_counter()
        with contextlib.ExitStack() as stack:
            try:
                stack.enter_context(
                    self.admission.slot(deadline=ctx.deadline))
            finally:
                querylog.annotate(admission_wait_ms=round(
                    (time.perf_counter() - queued) * 1000.0, 3))
            yield

    def _execute_locked(self, session: SQLSession, sql: str,
                        ctx: ExecutionContext):
        """The admitted core: classify, take the versioned RW lock,
        execute."""
        if self.ingestor.pending_ops():
            # read-your-writes: a query never observes the catalog
            # behind a buffered ingest batch -- flush first, under the
            # exclusive lock like any write
            with self.lock.write():
                self.ingestor.flush()
        guard = (self.lock.write()
                 if classify_statement(sql) == "write"
                 else self.lock.read())
        with guard:
            return session.execute(sql, context=ctx)

    # -- durability --------------------------------------------------------

    def checkpoint(self) -> None:
        """Persist the serve cache (and any attached cubes) to the
        store.  Serialization and page I/O run outside every serve-
        layer lock -- the admission slot and RW lock were released
        before this is called, and :meth:`CuboidCache.dump_state` only
        holds the cache lock for its in-memory snapshot."""
        if self.store is None:
            raise ServeError("server has no data directory")
        token = self.cache.change_token
        self.store.checkpoint(cache_state=self.cache.dump_state())
        self._checkpointed_token = token

    def _maybe_checkpoint(self) -> None:
        """Post-query checkpoint: runs after the statement released
        admission and the RW lock, only when the cache's entry set
        moved, and never concurrently with itself (a busy checkpoint
        skips -- the next query picks the change up)."""
        if self.store is None:
            return
        token = self.cache.change_token
        if token - self._checkpointed_token < self._checkpoint_every:
            return
        if not self._checkpoint_lock.acquire(blocking=False):
            return
        try:
            with contextlib.suppress(ReproError, OSError):
                self.checkpoint()
        finally:
            self._checkpoint_lock.release()

    @classmethod
    def _failed(cls, request_id, error: Exception, trace_id: str) -> dict:
        """The error response for a failed query or ingest.  Anything
        but a :class:`~repro.errors.ReproError` is a bug: its traceback
        goes to stderr, and the connection still gets an answer and
        stays open."""
        if not isinstance(error, ReproError):
            traceback.print_exc()
        return cls._error(request_id, error, trace_id)

    @staticmethod
    def _error(request_id, error: Exception,
               trace_id: Optional[str] = None) -> dict:
        response = {"id": request_id, "ok": False,
                    "error": {"type": type(error).__name__,
                              "message": str(error)}}
        if trace_id is not None:
            response["trace"] = trace_id
        return response
