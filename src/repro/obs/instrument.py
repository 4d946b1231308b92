"""The built-in metric names and their update helpers.

Every instrumentation site in the engine goes through one of these
functions, so the metric catalogue lives in exactly one place (and is
documented once, in ``docs/OBSERVABILITY.md``):

=============================================  =========  =============================
metric                                         kind       labels
=============================================  =========  =============================
``repro_sql_queries_total``                    counter    ``kind`` (statement class)
``repro_sql_query_seconds``                    histogram  --
``repro_slow_queries_total``                   counter    ``kind``
``repro_cube_computations_total``              counter    ``algorithm``
``repro_cube_compute_seconds``                 histogram  ``algorithm``
``repro_cube_rows_scanned_total``              counter    --
``repro_cube_cells_produced_total``            counter    --
``repro_cube_iter_calls_total``                counter    --
``repro_cube_merge_calls_total``               counter    --
``repro_columnar_batches_total``               counter    ``route`` (dense/sparse)
``repro_columnar_rows_batched_total``          counter    --
``repro_cube_sort_operations_total``           counter    --
``repro_cube_sort_spills_total``               counter    --
``repro_groupby_operations_total``             counter    ``strategy`` (hash/sort)
``repro_groupby_rows_total``                   counter    ``strategy``
``repro_maintenance_operations_total``         counter    ``op`` (insert/delete/update)
``repro_maintenance_cells_touched_total``      counter    ``op``
``repro_materialized_cube_lookups_total``      counter    ``result`` (hit/miss)
``repro_maintenance_rollbacks_total``          counter    ``op`` (insert/delete/update)
``repro_resilience_degradations_total``        counter    ``from_algorithm``
``repro_resilience_cancellations_total``       counter    ``reason`` (timeout/cancelled)
``repro_resilience_worker_failures_total``     counter    --
``repro_resilience_worker_retries_total``      counter    --
``repro_resilience_worker_recoveries_total``   counter    --
``repro_resilience_spill_retries_total``       counter    --
``repro_chaos_injected_faults_total``          counter    ``point``
``repro_view_rows_scanned_total``              counter    --
``repro_cache_lookups_total``                  counter    ``result`` (hit/miss/bypass)
``repro_cache_admissions_total``               counter    ``result`` (admitted/rejected)
``repro_cache_evictions_total``                counter    ``reason`` (space/invalidated)
``repro_cache_delta_total``                    counter    ``outcome`` (merged/invalidated)
``repro_cache_resident_cells``                 gauge      --
``repro_ingest_batches_total``                 counter    --
``repro_ingest_ops_total``                     counter    ``op`` (insert/delete/update)
``repro_ingest_pending_ops``                   gauge      --
``repro_serve_connections_total``              counter    --
``repro_serve_requests_total``                 counter    ``op``
``repro_serve_shed_total``                     counter    ``reason`` (queue_full/deadline)
``repro_serve_inflight``                       gauge      --
``repro_serve_queue_depth``                    gauge      --
``repro_serve_async_connections_total``        counter    --
``repro_serve_async_open_connections``         gauge      --
``repro_serve_drained_queries_total``          counter    --
``repro_cluster_computes_total``               counter    --
``repro_cluster_rows_shipped_total``           counter    --
``repro_cluster_slab_bytes_total``             counter    --
``repro_cluster_worker_restarts_total``        counter    --
``repro_cluster_active_segments``              gauge      --
``repro_storage_pages_written_total``          counter    ``file`` (data/spill)
``repro_storage_pages_read_total``             counter    ``file``
``repro_storage_page_checksum_failures_total`` counter    --
``repro_storage_fsyncs_total``                 counter    ``file`` (data/spill/wal)
``repro_storage_buffer_evictions_total``       counter    --
``repro_storage_buffer_pages``                 gauge      --
``repro_storage_wal_records_total``            counter    ``kind`` (begin/op/commit/abort/epoch)
``repro_storage_wal_replayed_records_total``   counter    --
``repro_storage_wal_torn_records_total``       counter    --
``repro_storage_checkpoints_total``            counter    ``kind`` (full/cubes)
``repro_storage_recoveries_total``             counter    ``outcome`` (recovered/fresh)
=============================================  =========  =============================

All helpers no-op (one flag check) when the process-wide registry is
disabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.compute.stats import ComputeStats

__all__ = [
    "record_buffer_eviction",
    "record_cache_admission",
    "record_cache_delta",
    "record_cache_eviction",
    "record_cache_lookup",
    "record_cancellation",
    "record_checkpoint",
    "record_cluster_compute",
    "record_cluster_worker_restart",
    "record_columnar_batch",
    "record_cube_compute",
    "record_degradation",
    "record_groupby",
    "record_ingest_flush",
    "record_injected_fault",
    "record_maintenance",
    "record_materialized_lookup",
    "record_page_read",
    "record_page_write",
    "record_query",
    "record_recovery",
    "record_rollback",
    "record_serve_async_connection",
    "record_serve_connection",
    "record_serve_drain",
    "record_serve_request",
    "record_serve_shed",
    "record_slow_query",
    "record_spill_retry",
    "record_storage_fsync",
    "record_torn_page",
    "record_view_answer",
    "record_wal_append",
    "record_wal_replay",
    "record_wal_torn_tail",
    "record_worker_failure",
    "record_worker_recovery",
    "record_worker_retry",
    "set_async_connections",
    "set_buffer_pages",
    "set_cache_resident_cells",
    "set_cluster_segments",
    "set_ingest_pending",
    "set_serve_inflight",
    "set_serve_queue_depth",
]


def record_query(duration_s: float, *, kind: str = "select") -> None:
    """One SQL statement served."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_sql_queries_total",
                     help="SQL statements executed", kind=kind).inc()
    REGISTRY.histogram("repro_sql_query_seconds",
                       help="SQL statement latency").observe(duration_s)


def record_slow_query(kind: str = "select") -> None:
    """A statement crossed its session's / server's ``slow_query_ms``
    threshold (the query-log record is marked ``slow`` alongside)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_slow_queries_total",
                     help="statements over the slow-query threshold",
                     kind=kind).inc()


def record_cube_compute(stats: "ComputeStats", duration_s: float, *,
                        input_rows: int = 0) -> None:
    """One cube computation finished (any algorithm)."""
    if not REGISTRY.enabled:
        return
    algorithm = stats.algorithm or "unknown"
    REGISTRY.counter("repro_cube_computations_total",
                     help="cube computations by algorithm",
                     algorithm=algorithm).inc()
    REGISTRY.histogram("repro_cube_compute_seconds",
                       help="cube computation latency by algorithm",
                       algorithm=algorithm).observe(duration_s)
    REGISTRY.counter("repro_cube_rows_scanned_total",
                     help="base rows scanned (rows x scans)"
                     ).inc(input_rows * max(stats.base_scans, 1))
    REGISTRY.counter("repro_cube_cells_produced_total",
                     help="result cells produced"
                     ).inc(stats.cells_produced)
    REGISTRY.counter("repro_cube_iter_calls_total",
                     help="Iter() scratchpad folds").inc(stats.iter_calls)
    REGISTRY.counter("repro_cube_merge_calls_total",
                     help="Iter_super() scratchpad merges"
                     ).inc(stats.merge_calls)
    REGISTRY.counter("repro_cube_sort_operations_total",
                     help="sort passes").inc(stats.sort_operations)
    REGISTRY.counter("repro_cube_sort_spills_total",
                     help="partitions spilled out of memory"
                     ).inc(stats.spills)


def record_columnar_batch(route: str, rows: int) -> None:
    """The columnar algorithm ran one task's typed columns on the
    kernels (``route``: dense/sparse)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_columnar_batches_total",
                     help="columnar batches by route",
                     route=route).inc()
    REGISTRY.counter("repro_columnar_rows_batched_total",
                     help="rows batched into typed columns").inc(rows)


def record_groupby(strategy: str, rows: int, groups: int) -> None:
    """One single-grouping GROUP BY (hash or sort strategy)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_groupby_operations_total",
                     help="GROUP BY operations by physical strategy",
                     strategy=strategy).inc()
    REGISTRY.counter("repro_groupby_rows_total",
                     help="rows aggregated by GROUP BY",
                     strategy=strategy).inc(rows)


def record_maintenance(op: str, cells_touched: int) -> None:
    """One materialized-cube maintenance operation."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_maintenance_operations_total",
                     help="materialized-cube maintenance operations",
                     op=op).inc()
    REGISTRY.counter("repro_maintenance_cells_touched_total",
                     help="cube cells touched by maintenance",
                     op=op).inc(cells_touched)


def record_materialized_lookup(hit: bool) -> None:
    """A point lookup against a materialized cube (cache-style
    hit/miss hook)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_materialized_cube_lookups_total",
                     help="materialized-cube point lookups",
                     result="hit" if hit else "miss").inc()


def record_rollback(op: str) -> None:
    """A maintenance batch failed mid-apply and was rolled back."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_maintenance_rollbacks_total",
                     help="maintenance batches rolled back", op=op).inc()


def record_degradation(from_algorithm: str) -> None:
    """A budget breach degraded an in-memory cube to the external
    algorithm."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_resilience_degradations_total",
                     help="budget-driven degradations to the external "
                          "algorithm",
                     from_algorithm=from_algorithm).inc()


def record_cancellation(reason: str) -> None:
    """A query stopped at a checkpoint (``timeout`` or ``cancelled``)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_resilience_cancellations_total",
                     help="queries stopped by deadline or cancellation",
                     reason=reason).inc()


def record_worker_failure() -> None:
    """A parallel worker exhausted its retries and lost its partition."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_resilience_worker_failures_total",
                     help="parallel workers that exhausted retries").inc()


def record_worker_retry() -> None:
    """A parallel worker attempt failed and will be retried."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_resilience_worker_retries_total",
                     help="parallel worker attempts retried").inc()


def record_worker_recovery() -> None:
    """A failed worker's partition was re-executed serially."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_resilience_worker_recoveries_total",
                     help="failed partitions recovered serially").inc()


def record_spill_retry() -> None:
    """An external-algorithm spill write failed and was retried."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_resilience_spill_retries_total",
                     help="spill writes retried").inc()


def record_injected_fault(point: str) -> None:
    """The chaos harness injected a fault at ``point``."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_chaos_injected_faults_total",
                     help="faults injected by the chaos harness",
                     point=point).inc()


def record_view_answer(rows_scanned: int) -> None:
    """A query answered from a materialized view / cached cuboid
    (:meth:`PartialCube.answer`); counts the stored cells folded
    instead of base rows rescanned."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_view_rows_scanned_total",
                     help="materialized-view cells scanned to answer "
                          "queries").inc(rows_scanned)


def record_cache_lookup(result: str) -> None:
    """One semantic-cache probe: ``hit``, ``miss``, or ``bypass``
    (holistic aggregates, no base table, disabled)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_cache_lookups_total",
                     help="semantic cuboid cache probes",
                     result=result).inc()


def record_cache_admission(result: str) -> None:
    """A miss finished computing: entry ``admitted`` or ``rejected``
    by the admission policy."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_cache_admissions_total",
                     help="semantic cache admission decisions",
                     result=result).inc()


def record_cache_eviction(reason: str) -> None:
    """A cached cuboid was dropped: ``space`` (budget pressure) or
    ``invalidated`` (table mutated)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_cache_evictions_total",
                     help="semantic cache entries evicted",
                     reason=reason).inc()


def record_cache_delta(outcome: str) -> None:
    """A streamed DML batch reached one cached cuboid: ``merged``
    (Section 6 delta fold kept the entry hot) or ``invalidated``
    (delete-holistic cell or delta-ineligible source shape)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_cache_delta_total",
                     help="cached cuboids reached by streamed deltas",
                     outcome=outcome).inc()


def record_ingest_flush(op_counts: dict[str, int]) -> None:
    """The stream ingestor flushed one coalesced batch; ``op_counts``
    maps ``insert``/``delete``/``update`` to the ops applied."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_ingest_batches_total",
                     help="coalesced ingest batches flushed").inc()
    for op, count in op_counts.items():
        if count:
            REGISTRY.counter("repro_ingest_ops_total",
                             help="streamed DML operations applied",
                             op=op).inc(count)


def set_ingest_pending(n: int) -> None:
    """DML operations buffered in the stream ingestor, not yet
    flushed into the catalog and cache."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_ingest_pending_ops",
                   help="buffered ingest operations awaiting flush"
                   ).set(n)


def set_cache_resident_cells(cells: int) -> None:
    """Current cells held by the semantic cache (its space budget)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_cache_resident_cells",
                   help="cells resident in the semantic cache").set(cells)


def record_serve_connection() -> None:
    """A client connection was accepted by the query server."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_serve_connections_total",
                     help="client connections accepted").inc()


def record_serve_request(op: str) -> None:
    """One wire request handled (``query``, ``ping``, ``stats``, ...)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_serve_requests_total",
                     help="wire requests handled", op=op).inc()


def record_serve_shed(reason: str) -> None:
    """Admission control refused a request: ``queue_full`` or
    ``deadline`` (shed while queued)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_serve_shed_total",
                     help="requests shed by admission control",
                     reason=reason).inc()


def set_serve_inflight(n: int) -> None:
    """Queries currently executing on connection threads."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_serve_inflight",
                   help="queries currently executing").set(n)


def set_serve_queue_depth(n: int) -> None:
    """Requests waiting for an execution slot."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_serve_queue_depth",
                   help="requests waiting for an execution slot").set(n)


def record_page_write(file: str) -> None:
    """One checksummed page written to a storage file."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_pages_written_total",
                     help="pages written to storage files",
                     file=file).inc()


def record_page_read(file: str) -> None:
    """One page read from a storage file."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_pages_read_total",
                     help="pages read from storage files",
                     file=file).inc()


def record_torn_page() -> None:
    """A page failed its checksum: torn write detected on read."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_page_checksum_failures_total",
                     help="pages that failed their checksum (torn "
                          "writes detected)").inc()


def record_storage_fsync(file: str) -> None:
    """One durability barrier (``fsync``) on a storage file."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_fsyncs_total",
                     help="fsync barriers on storage files",
                     file=file).inc()


def record_buffer_eviction() -> None:
    """The buffer pool evicted its LRU unpinned frame."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_buffer_evictions_total",
                     help="buffer-pool frames evicted").inc()


def set_buffer_pages(n: int) -> None:
    """Pages currently resident in a buffer pool."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_storage_buffer_pages",
                   help="pages resident in the buffer pool").set(n)


def record_wal_append(kind: str) -> None:
    """One record appended to the write-ahead log."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_wal_records_total",
                     help="write-ahead log records appended",
                     kind=kind).inc()


def record_wal_replay(n: int = 1) -> None:
    """``n`` committed WAL operations replayed during recovery."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_wal_replayed_records_total",
                     help="committed WAL operations replayed").inc(n)


def record_wal_torn_tail(n: int = 1) -> None:
    """A torn tail (``n`` damaged trailing records) was discarded
    when the write-ahead log was opened."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_wal_torn_records_total",
                     help="torn WAL tail records discarded at open"
                     ).inc(n)


def record_checkpoint(kind: str) -> None:
    """One store checkpoint completed (``full`` persists the serve
    cache alongside the cubes; ``cubes`` persists cubes only)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_checkpoints_total",
                     help="store checkpoints completed", kind=kind).inc()


def record_recovery(outcome: str) -> None:
    """A cube was attached to a store: ``recovered`` (checkpoint or
    WAL state restored) or ``fresh``."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_storage_recoveries_total",
                     help="cube attach recoveries by outcome",
                     outcome=outcome).inc()


def record_cluster_compute(rows: int, slab_bytes: int) -> None:
    """The cluster algorithm shipped one batch to the worker-process
    pool."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_cluster_computes_total",
                     help="cluster scatter/gather computations").inc()
    REGISTRY.counter("repro_cluster_rows_shipped_total",
                     help="rows shipped through shared-memory slabs"
                     ).inc(rows)
    REGISTRY.counter("repro_cluster_slab_bytes_total",
                     help="shared-memory slab bytes encoded"
                     ).inc(slab_bytes)


def record_cluster_worker_restart() -> None:
    """A dead cluster worker process was replaced with a fresh one."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_cluster_worker_restarts_total",
                     help="cluster worker processes respawned").inc()


def set_cluster_segments(n: int) -> None:
    """Shared-memory slab segments currently alive (leak telemetry:
    this must return to 0 between computes)."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_cluster_active_segments",
                   help="live shared-memory slab segments").set(n)


def record_serve_async_connection() -> None:
    """The asyncio front end accepted one connection."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_serve_async_connections_total",
                     help="connections accepted by the asyncio server"
                     ).inc()


def set_async_connections(n: int) -> None:
    """Connections the asyncio front end is currently multiplexing."""
    if not REGISTRY.enabled:
        return
    REGISTRY.gauge("repro_serve_async_open_connections",
                   help="open asyncio server connections").set(n)


def record_serve_drain(n: int) -> None:
    """Graceful shutdown waited for ``n`` in-flight queries to finish
    before checkpointing and releasing resources."""
    if not REGISTRY.enabled:
        return
    REGISTRY.counter("repro_serve_drained_queries_total",
                     help="in-flight queries drained at shutdown").inc(n)
