"""Streaming ingest: coalesce DML and fold delta cubes into the cache.

Section 6 shows the cube is *maintainable*: INSERTs fold into
distributive/algebraic cells in O(1), DELETEs unapply where the
scratchpad supports it, UPDATEs are DELETE + INSERT.  The serve layer
historically answered every mutation with eager invalidation instead --
a hot write stream destroyed the cuboid cache heavy read traffic
depends on.  :class:`StreamIngestor` is the §6 answer at serving scale:

- **coalesce**: incoming operations buffer per table and flush as one
  batch when the buffer reaches ``max_ops`` or its oldest operation
  ages past ``max_age_s`` (callers can also flush explicitly -- the
  query server fences every query behind a flush for
  read-your-writes);
- **apply**: a flush routes the batch through the
  :class:`~repro.engine.catalog.Catalog` (triggers fire, versions
  bump), exactly like SQL DML would;
- **merge**: the batch then reaches the cuboid cache *once* as a delta
  (:meth:`~repro.serve.cache.CuboidCache.apply_delta`): every cached
  ancestor whose aggregates absorb the delta is ``Iter_super``-merged
  and re-keyed to the new versions, and only delete-holistic cells
  (the departing MIN/MAX extreme) cost an invalidation.

Backpressure is layered: the wire op runs under the server's admission
control like any write, and the buffer itself refuses ops past
``max_buffer`` with :class:`~repro.errors.ServerOverloadedError`, so an
unbounded producer is shed instead of buffered into an OOM.

A :class:`~repro.resilience.ChaosInjector` can be wired in to exercise
the crash seams: ``ingest_flush`` fires after the catalog holds the
batch but before the cache saw it -- the crash must leave the system
consistent (version-keyed entries simply stop matching, and
:meth:`CuboidCache.apply_delta`'s ``base_version`` fence keeps a later
batch from merging into an entry that missed this one).
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Iterator, Optional, Sequence

from repro.analysis import locktrack
from repro.errors import MaintenanceError, ServerOverloadedError
from repro.obs import instrument, trace

__all__ = ["StreamIngestor", "IngestBatch"]


class IngestBatch:
    """The buffered, not-yet-flushed operations for one table."""

    __slots__ = ("inserts", "deletes", "updates", "first_at")

    def __init__(self) -> None:
        self.inserts: list[tuple] = []
        self.deletes: list[tuple] = []
        self.updates: list[tuple[tuple, tuple]] = []
        self.first_at = time.monotonic()

    def __len__(self) -> int:
        return len(self.inserts) + len(self.deletes) + len(self.updates)


class StreamIngestor:
    """Coalesce streamed DML per table; flush through catalog + cache.

    ``cache`` is optional: without one the ingestor is a plain batched
    DML applier (versions still bump, triggers still fire).
    """

    def __init__(self, catalog: Any, cache: Any = None, *,
                 max_ops: int = 256, max_age_s: float = 0.5,
                 max_buffer: int = 10_000,
                 chaos: Any = None) -> None:
        if max_ops < 1:
            raise MaintenanceError("max_ops must be >= 1")
        if max_buffer < max_ops:
            raise MaintenanceError("max_buffer must be >= max_ops")
        self.catalog = catalog
        self.cache = cache
        self.max_ops = max_ops
        self.max_age_s = max_age_s
        self.max_buffer = max_buffer
        self.chaos = chaos
        self._lock = threading.Lock()
        self._pending: dict[str, IngestBatch] = {}
        self.stats = {"ops_buffered": 0, "flushes": 0,
                      "inserts_applied": 0, "deletes_applied": 0,
                      "updates_applied": 0, "ops_dropped": 0,
                      "entries_merged": 0, "entries_invalidated": 0}

    # -- buffering ---------------------------------------------------------

    def submit(self, table: str, *,
               inserts: Sequence[Sequence] = (),
               deletes: Sequence[Sequence] = (),
               updates: Sequence[tuple] = ()) -> dict[str, Any]:
        """Buffer one request's operations; flush if thresholds say so.

        ``updates`` entries are ``(old_row, new_row)`` pairs.  Returns
        ``{"buffered": n, "flushed": {...} | None}``.
        """
        self.catalog.get(table)  # validate existence before buffering
        key = table.upper()
        n_ops = len(inserts) + len(deletes) + len(updates)
        flush_now = False
        with self._locked():
            if self.pending_ops_locked() + n_ops > self.max_buffer:
                raise ServerOverloadedError(
                    f"ingest buffer full ({self.max_buffer} ops); "
                    "retry after the backlog drains")
            batch = self._pending.get(key)
            if batch is None:
                batch = self._pending[key] = IngestBatch()
            batch.inserts.extend(tuple(row) for row in inserts)
            batch.deletes.extend(tuple(row) for row in deletes)
            batch.updates.extend(
                (tuple(old), tuple(new)) for old, new in updates)
            self.stats["ops_buffered"] += n_ops
            flush_now = (len(batch) >= self.max_ops
                         or (time.monotonic() - batch.first_at
                             >= self.max_age_s))
            pending = self.pending_ops_locked()
        instrument.set_ingest_pending(pending)
        flushed = self.flush(key) if flush_now else None
        return {"buffered": n_ops, "flushed": flushed}

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        """The ingest lock with lock-order sanitizer bookkeeping (the
        serve cache's pattern)."""
        with self._lock:
            locktrack.note_acquire("maintenance.ingest")
            try:
                yield
            finally:
                locktrack.note_release("maintenance.ingest")

    def pending_ops_locked(self) -> int:
        return sum(len(batch) for batch in self._pending.values())

    def pending_ops(self) -> int:
        """Operations buffered and not yet flushed (all tables)."""
        with self._locked():
            return self.pending_ops_locked()

    # -- flushing ----------------------------------------------------------

    def flush(self, table: Optional[str] = None) -> dict[str, Any]:
        """Flush one table's batch (or every table's) through the
        catalog and merge the delta into the cache.

        Returns aggregate counts:
        ``{"inserts": i, "deletes": d, "updates": u,
        "merged": m, "invalidated": n}``.
        """
        totals = {"inserts": 0, "deletes": 0, "updates": 0,
                  "merged": 0, "invalidated": 0}
        with self._locked():
            if table is None:
                batches = dict(self._pending)
                self._pending.clear()
            else:
                key = table.upper()
                batches = {}
                batch = self._pending.pop(key, None)
                if batch is not None:
                    batches[key] = batch
        try:
            for key, batch in batches.items():
                outcome = self._flush_batch(key, batch)
                for field in totals:
                    totals[field] += outcome[field]
        finally:
            instrument.set_ingest_pending(self.pending_ops())
        return totals

    def _flush_batch(self, key: str, batch: IngestBatch) -> dict[str, int]:
        """Apply one table's coalesced batch: catalog first, then one
        delta into the cache.  UPDATEs decompose into DELETE + INSERT
        (Section 6) so the delta cube sees plain row movement."""
        with trace.span("ingest.flush", table=key,
                        ops=len(batch)) as span:
            base_version = self.catalog.version(key)
            applied_in: list[tuple] = []
            applied_out: list[tuple] = []
            counts = {"insert": 0, "delete": 0, "update": 0}
            try:
                for row in batch.inserts:
                    self.catalog.insert(key, row)
                    applied_in.append(row)
                    counts["insert"] += 1
                for row in batch.deletes:
                    if self.catalog.delete(key, row):
                        applied_out.append(row)
                        counts["delete"] += 1
                    else:
                        self.stats["ops_dropped"] += 1
                for old, new in batch.updates:
                    if self.catalog.update(key, old, new):
                        applied_out.append(old)
                        applied_in.append(new)
                        counts["update"] += 1
                    else:
                        self.stats["ops_dropped"] += 1
                if self.chaos is not None:
                    # the crash seam: the catalog holds the batch, the
                    # cache has not seen it (recovery: version fences)
                    self.chaos.crash("ingest_flush")
            finally:
                # whatever reached the catalog must reach the cache,
                # even when a later row in the batch failed validation
                # (or chaos killed the flush): the cache either merges
                # the applied prefix or invalidates -- it never keeps
                # an entry the catalog has moved past
                delta = None
                if self.cache is not None and (applied_in or applied_out):
                    delta = self.cache.apply_delta(
                        key, applied_in, applied_out,
                        catalog=self.catalog,
                        base_version=base_version)
                self.stats["flushes"] += 1
                self.stats["inserts_applied"] += counts["insert"]
                self.stats["deletes_applied"] += counts["delete"]
                self.stats["updates_applied"] += counts["update"]
                merged = delta["merged"] if delta else 0
                invalidated = delta["invalidated"] if delta else 0
                self.stats["entries_merged"] += merged
                self.stats["entries_invalidated"] += invalidated
                instrument.record_ingest_flush(counts)
                span.set(inserts=counts["insert"],
                         deletes=counts["delete"],
                         updates=counts["update"],
                         merged=merged, invalidated=invalidated)
        return {"inserts": counts["insert"], "deletes": counts["delete"],
                "updates": counts["update"], "merged": merged,
                "invalidated": invalidated}

    def snapshot(self) -> dict[str, Any]:
        """Stats plus the live buffer depth (for ``stats`` wire ops)."""
        with self._locked():
            return {**self.stats, "pending_ops": self.pending_ops_locked()}

