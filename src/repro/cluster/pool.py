"""The cluster worker-process pool.

A :class:`ClusterPool` keeps ``n_workers`` long-lived worker processes,
each joined to the parent by one duplex pipe.  Dispatch is
partition-to-worker (partition ``i`` always goes to worker ``i``), so
when a worker dies the parent knows exactly which partition was lost --
the identification the serial-recovery contract needs.

Control traffic over the pipes is tiny (job specs and aggregate
handles, all primitives); the row data itself never touches a pipe --
workers attach the shared-memory slab named in the spec
(:mod:`repro.cluster.slab`) and copy out only their row slice.

**Fault envelope** (mirrors the thread pool in
:mod:`repro.compute.parallel`):

- a worker that dies (``EOFError`` on its pipe -- including a chaos
  ``worker_crash`` SIGKILL) or reports an error is retried under the
  context's :class:`~repro.resilience.retry.RetryPolicy`, on a freshly
  spawned process, with the attempt number bumped so the deterministic
  chaos draw can spare the retry;
- exhausted retries surrender the partition as a
  :class:`FailedPartition` sentinel -- the caller re-executes it
  serially in-process, so results stay bit-identical;
- cancellation always wins: worker-reported
  ``QueryCancelledError``/``QueryTimeoutError`` re-raise immediately
  and are never retried.

**Deadline/cancellation propagation.**  Specs carry the context's
*absolute* monotonic deadline (``CLOCK_MONOTONIC`` is system-wide on
Linux, so the instant transfers); workers poll it at every
:data:`~repro.compute.columnar.batch.BATCH_ROWS` chunk boundary,
together with a pool-wide cancellation event the parent sets when its
own token fires.  The parent also polls its context while gathering, so
a wedged worker cannot outlive the statement timeout.

**Chaos.**  ``worker_crash`` here kills a real process: the spec ships
the injector's ``(seed, rate)`` and the worker evaluates the *same
deterministic draw* the thread pool uses
(:meth:`~repro.resilience.chaos.ChaosInjector.should_inject` is a pure
function of seed, point, and labels -- stable across processes), then
``SIGKILL``\\ s itself mid-partition.  The parent records the injection
against its own injector with the identical draw, so chaos accounting
and the chaos-matrix seeds behave exactly as they do for threads.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait as _wait_connections

from repro.compute.columnar.batch import numpy_backend
from repro.compute.columnar.core import first_seen_ids, flat_offsets
from repro.compute.columnar.kernels import make_state
from repro.compute.parallel import FailedPartition
from repro.errors import (ClusterError, QueryCancelledError,
                          QueryTimeoutError, WorkerLostError)
from repro.resilience.retry import RetryPolicy
from repro.cluster.slab import attach_slab

__all__ = ["ClusterPool", "FailedPartition", "default_workers", "get_pool",
           "run_partition_spec", "shutdown_pools"]

#: gather-loop poll interval; bounds how late the parent notices a
#: cancellation or a silent worker death
_POLL_S = 0.05


def default_workers() -> int:
    """Worker count when the caller didn't pin one: ``REPRO_WORKERS``
    or 2 (two processes exercise the scatter/gather machinery without
    oversubscribing small CI boxes)."""
    raw = os.environ.get("REPRO_WORKERS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n >= 1 else 2


# -- worker side --------------------------------------------------------------


def run_partition_spec(spec: dict, *, cancel_event=None) -> dict:
    """Compute one partition's core-GROUP-BY from a slab row slice.

    This is the §5 per-partition aggregation: group the slice's rows by
    the lattice-core dimension codes (first-seen order, with the
    columnar core builder's own helpers, so the engine's partition-order
    merge reproduces the global first-seen order) and scatter each
    aggregate through its columnar kernel.  Returns only primitives --
    ``(code-tuple, handle-list)`` pairs, each group's first row as a
    task row index, and counters -- so the result pickles trivially.

    Runs identically in a worker process and in the parent (serial
    recovery calls it directly with chaos stripped from the spec).
    """
    deadline = spec.get("deadline")

    def check(where: str) -> None:
        if cancel_event is not None and cancel_event.is_set():
            raise QueryCancelledError(f"query cancelled during {where}")
        if deadline is not None and time.monotonic() > deadline:
            raise QueryTimeoutError(f"deadline passed during {where}")

    check("cluster partition attach")
    slab = attach_slab(spec["slab"], spec["start"], spec["end"])
    xp = numpy_backend()

    core_dims = spec["core_dims"]
    strides = dict(zip(core_dims, spec["core_strides"]))
    slots, representatives = first_seen_ids(
        flat_offsets(slab, core_dims, strides, xp), xp, check)
    n_groups = len(representatives)

    iter_calls = 0
    states = []
    for kernel_name, agg_index in spec["kernels"]:
        check("cluster kernel scatter")
        state = make_state(kernel_name, n_groups, xp)
        iter_calls += state.scatter(slots, slab.aggs[agg_index])
        states.append(state)

    decoded = [state.handles(slice(0, n_groups)) for state in states]
    groups = [(tuple(int(slab.dims[d].codes[rep]) for d in core_dims),
               [handles[gid] for handles in decoded])
              for gid, rep in enumerate(representatives)]
    # each group's first row, as a task row index: the parent reads the
    # coordinate from it (hash-equal 1/1.0/True share a code)
    rows = [spec["start"] + rep for rep in representatives]
    return {"groups": groups, "rows": rows, "iter_calls": iter_calls,
            "n_groups": n_groups}


def _maybe_chaos_crash(spec: dict) -> None:
    """Evaluate the deterministic ``worker_crash`` draw and, when it
    fires, die for real -- SIGKILL, no cleanup, exactly the failure the
    serial-recovery contract must survive."""
    chaos = spec.get("chaos")
    if not chaos:
        return
    from repro.resilience.chaos import ChaosInjector
    injector = ChaosInjector(chaos["seed"],
                             worker_crash=chaos.get("worker_crash", 0.0),
                             slow_node=chaos.get("slow_node", 0.0),
                             slow_node_delay=chaos.get("slow_node_delay",
                                                       0.005))
    labels = {"worker": spec["worker"], "attempt": spec["attempt"]}
    if injector.should_inject("slow_node", **labels):
        time.sleep(injector.slow_node_delay)
    if injector.should_inject("worker_crash", **labels):
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(worker_id: int, conn, cancel_event,
                 own_tracker: bool) -> None:
    """Worker loop: recv spec, compute, send ``(job, status, payload)``.

    Exits on ``None`` (orderly shutdown) or a closed pipe (parent
    died).  Every error is reported by *name* -- never a pickled
    exception object -- and mapped back to the taxonomy parent-side.
    """
    if own_tracker:
        # spawn-started: this process has its own resource tracker,
        # which must not adopt the parent's segments on attach
        from repro.cluster import slab
        slab.UNREGISTER_ON_ATTACH = True
    while True:
        try:
            spec = conn.recv()
        except (EOFError, OSError):
            break
        if spec is None:
            break
        job = spec["job"]
        try:
            _maybe_chaos_crash(spec)
            payload = run_partition_spec(spec, cancel_event=cancel_event)
            reply = (job, "ok", payload)
        except BaseException as error:
            reply = (job, "error", (type(error).__name__, str(error)))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


# -- parent side --------------------------------------------------------------


class _Worker:
    __slots__ = ("index", "process", "conn")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn


class ClusterPool:
    """``n_workers`` persistent worker processes plus dispatch/retry.

    One compute runs at a time (``run`` holds an internal lock):
    concurrent cluster queries serialize here and parallelize *inside*
    the pool, which keeps worker count -- not query count -- the
    process-fanout bound.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ClusterError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        methods = multiprocessing.get_all_start_methods()
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._cancel_event = self._mp.Event()
        self._lock = threading.Lock()
        self._job_seq = 0
        self._closed = False
        self._workers = [self._spawn(i) for i in range(n_workers)]

    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._mp.Pipe()
        own_tracker = self._mp.get_start_method() != "fork"
        process = self._mp.Process(
            target=_worker_main,
            args=(index, child_conn, self._cancel_event, own_tracker),
            name=f"repro-cluster-{index}", daemon=True)
        process.start()
        child_conn.close()
        return _Worker(index, process, parent_conn)

    def _respawn(self, index: int) -> None:
        from repro.obs import instrument
        worker = self._workers[index]
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        instrument.record_cluster_worker_restart()
        self._workers[index] = self._spawn(index)

    def run(self, specs: list, *, ctx=None, parent=None) -> list:
        """Dispatch one spec per worker; gather with retry.

        Returns one outcome per spec: the worker's payload dict, or a
        :class:`FailedPartition` sentinel after exhausted retries.
        Cancellation/timeout (parent token or worker report) raises.
        """
        if len(specs) > self.n_workers:
            raise ClusterError(
                f"{len(specs)} partitions for {self.n_workers} workers")
        if self._closed:
            raise ClusterError("pool is shut down")
        with self._lock:
            self._cancel_event.clear()
            try:
                return self._run_locked(specs, ctx=ctx, parent=parent)
            except BaseException:
                # wake any worker still grinding a stale job; its late
                # reply carries a stale job id and is discarded
                self._cancel_event.set()
                raise

    def _run_locked(self, specs: list, *, ctx, parent) -> list:
        from repro.obs import instrument
        policy = ctx.retry if ctx is not None else RetryPolicy()
        outcomes: list = [None] * len(specs)
        attempts = [0] * len(specs)
        outstanding: dict[int, tuple] = {}  # partition -> job id

        def dispatch(index: int) -> None:
            self._job_seq += 1
            job = (self._job_seq, index, attempts[index])
            spec = dict(specs[index])
            spec["job"] = job
            spec["attempt"] = attempts[index]
            if spec.get("chaos") and ctx is not None and ctx.chaos is not None:
                # mirror the worker's deterministic draw so the parent's
                # injector (and the chaos metric) records the real kill
                ctx.chaos.should_inject("worker_crash", worker=index,
                                        attempt=attempts[index])
            outstanding[index] = job
            try:
                self._workers[index].conn.send(spec)
            except (BrokenPipeError, OSError):
                # found it dead at dispatch: same path as a mid-job death
                self._on_death(index, attempts, outstanding, outcomes,
                               policy, parent, dispatch)

        def surrender(index: int, error: BaseException) -> None:
            instrument.record_worker_failure()
            if parent is not None:
                parent.event("worker_failed", worker=index, error=str(error))
            outcomes[index] = FailedPartition(index, error)
            outstanding.pop(index, None)

        self._surrender = surrender
        for index in range(len(specs)):
            dispatch(index)

        while outstanding:
            if ctx is not None:
                ctx.check("cluster gather")
            pending = {self._workers[i].conn: i for i in outstanding}
            ready = _wait_connections(list(pending), timeout=_POLL_S)
            if not ready:
                # nothing readable: sweep for silent deaths
                for conn, index in list(pending.items()):
                    if not self._workers[index].process.is_alive():
                        self._on_death(index, attempts, outstanding,
                                       outcomes, policy, parent, dispatch)
                continue
            for conn in ready:
                index = pending[conn]
                try:
                    job, status, payload = conn.recv()
                except (EOFError, OSError):
                    self._on_death(index, attempts, outstanding, outcomes,
                                   policy, parent, dispatch)
                    continue
                if job != outstanding.get(index):
                    continue  # stale reply from a cancelled run
                if status == "ok":
                    outcomes[index] = payload
                    outstanding.pop(index, None)
                    continue
                error_name, message = payload
                error = self._rebuild_error(error_name, message, index)
                if isinstance(error, QueryCancelledError):
                    raise error
                self._retry_or_surrender(index, error, attempts, outstanding,
                                         outcomes, policy, parent, dispatch,
                                         respawn=False)
        return outcomes

    def _on_death(self, index: int, attempts, outstanding, outcomes,
                  policy, parent, dispatch) -> None:
        exitcode = self._workers[index].process.exitcode
        error = WorkerLostError(
            f"cluster worker {index} died (exitcode {exitcode}) "
            f"mid-partition")
        self._retry_or_surrender(index, error, attempts, outstanding,
                                 outcomes, policy, parent, dispatch,
                                 respawn=True)

    def _retry_or_surrender(self, index: int, error, attempts, outstanding,
                            outcomes, policy, parent, dispatch, *,
                            respawn: bool) -> None:
        from repro.obs import instrument
        if respawn:
            self._respawn(index)
        attempt = attempts[index]
        if attempt >= policy.max_retries:
            self._surrender(index, error)
            return
        instrument.record_worker_retry()
        if parent is not None:
            parent.event("worker_retry", worker=index, attempt=attempt,
                         error=str(error))
        policy.sleep(attempt)
        attempts[index] = attempt + 1
        dispatch(index)

    @staticmethod
    def _rebuild_error(name: str, message: str, index: int) -> BaseException:
        if name == "QueryTimeoutError":
            return QueryTimeoutError(message)
        if name == "QueryCancelledError":
            return QueryCancelledError(message)
        return WorkerLostError(
            f"cluster worker {index} failed: {name}: {message}")

    def shutdown(self) -> None:
        """Orderly stop: ask, then join, then terminate stragglers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cancel_event.set()
            for worker in self._workers:
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover
                    pass


_POOLS: dict[int, ClusterPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(n_workers: int) -> ClusterPool:
    """The shared pool of ``n_workers`` workers, created on first use
    and kept warm across computes (process startup would otherwise
    dominate every query)."""
    with _POOLS_LOCK:
        pool = _POOLS.get(n_workers)
        if pool is None or pool._closed:
            pool = _POOLS[n_workers] = ClusterPool(n_workers)
        return pool


def shutdown_pools() -> None:
    """Stop every shared pool (server drain, tests, atexit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)
