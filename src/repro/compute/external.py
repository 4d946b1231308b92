"""Memory-bounded (external) cube computation (Section 5).

"If the data cube does not fit into memory, array techniques do not
work.  Rather one must either partition the cube with a hash function
or sort it. [...] The super-aggregates are likely to be orders of
magnitude smaller than the core, so they are very likely to fit in
memory."

Hybrid-hash strategy:

1. **Partition pass** -- hash every input row on its full dimension key
   into P partitions, where P is chosen so one partition's core fits
   the declared ``memory_budget`` (in scratchpads).  Rows with equal
   keys always land in the same partition, so the partition cores are
   disjoint and their union *is* the global core.  When more than one
   partition is needed, each partition is pickled and written to a real
   on-disk spill file -- a :class:`~repro.storage.PageFile` in a
   private temporary directory -- and its in-memory rows are released.
2. **Per-partition pass** -- each partition is read back alone and its
   core GROUP BY computed in memory; finished core cells are streamed
   out (finalized later), and their scratchpads are merged upward into
   the resident super-aggregate cells, which -- per the paper's
   observation -- stay in memory for the whole run.

Spill files are scratch data: never fsynced (losing one loses nothing
a re-run cannot recompute) and always deleted in a ``finally`` -- on
success, on error, and on cancellation alike.  The ``spill_write``
chaos point therefore exercises actual disk I/O, and a chaos injector
on the execution context also reaches the page layer itself
(``torn_write`` on the spill file's frames).

``spills`` counts partitions written out; ``passes`` is 2 (write +
read); ``max_resident_cells`` demonstrates the memory bound holds.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from typing import Optional

from repro.aggregates.base import Handle
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.from_core import fold_core
from repro.core.grouping import Mask
from repro.core.lattice import CubeLattice
from repro.errors import CubeError
from repro.obs import trace
from repro.resilience import context as rctx
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.storage import PageFile

__all__ = ["ExternalCubeAlgorithm"]


class ExternalCubeAlgorithm(CubeAlgorithm):
    name = "external"

    def __init__(self, memory_budget: int = 1024) -> None:
        if memory_budget < 1:
            raise CubeError("memory_budget must be at least 1 cell")
        self.memory_budget = memory_budget

    def _compute(self, task: CubeTask) -> CubeResult:
        # The external algorithm bounds its own residency (that is its
        # whole point), so the context accountant observes but never
        # enforces here -- otherwise a context budget equal to ours
        # would fail the exact algorithm meant to honor it.
        ctx = rctx.current_context()
        if ctx is None:
            return self._compute_inner(task)
        with ctx.budget_suspended():
            return self._compute_inner(task)

    def _compute_inner(self, task: CubeTask) -> CubeResult:
        self._require_mergeable(task)
        stats = self._new_stats()
        lattice = CubeLattice(task.dims, task.masks)
        core_mask = lattice.core
        super_masks = [m for m in task.masks if m != core_mask]

        spill: Optional[PageFile] = None
        spill_dir: Optional[str] = None
        spill_heads: list[int] = []
        try:
            # -- pass 1: hash-partition on the full dimension key ----------
            with trace.span("cube.partition_pass", rows=len(task.rows),
                            memory_budget=self.memory_budget) as pass_span:
                stats.base_scans = 1
                stats.passes = 1
                core_keys = {task.coordinate(core_mask, task.dim_values(r))
                             for r in task.rows}
                estimated_core = max(1, len(core_keys))
                n_partitions = max(
                    1, -(-estimated_core // self.memory_budget))
                partitions: list[list[tuple]] = [
                    [] for _ in range(n_partitions)]
                for row in task.rows:
                    key = task.coordinate(core_mask, task.dim_values(row))
                    partitions[hash(key) % n_partitions].append(row)
                stats.partitions = n_partitions
                stats.spills = n_partitions if n_partitions > 1 else 0
                pass_span.set(partitions=n_partitions, spills=stats.spills)
                if n_partitions > 1:
                    ctx = rctx.current_context()
                    policy = ctx.retry if ctx is not None else RetryPolicy()
                    spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
                    spill = PageFile(
                        os.path.join(spill_dir, "spill.pages"),
                        kind="spill",
                        chaos=ctx.chaos if ctx is not None else None)
                    with trace.span("storage.spill",
                                    partitions=n_partitions) as spill_span:
                        spilled_bytes = 0
                        for index in range(n_partitions):
                            payload = pickle.dumps(partitions[index],
                                                   protocol=4)
                            spilled_bytes += len(payload)
                            spill_heads.append(self._write_spill(
                                spill, spill_span, index, payload,
                                len(partitions[index]), policy))
                            partitions[index] = []  # rows now live on disk
                        spill_span.set(bytes=spilled_bytes,
                                       pages=spill.n_pages)
                        stats.notes["spilled_bytes"] = spilled_bytes

            # resident super-aggregate cells (stay in memory throughout)
            supers: dict[Mask, dict[tuple, list[Handle]]] = {
                mask: {} for mask in super_masks}

            cells: list[tuple[tuple, tuple]] = []
            max_resident = 0
            # -- pass 2: one partition at a time ---------------------------
            stats.passes += 1
            for index in range(n_partitions):
                rctx.checkpoint("external partition")
                if spill is not None:
                    partition = pickle.loads(
                        spill.read_blob(spill_heads[index]))
                else:
                    partition = partitions[index]
                with trace.span("cube.partition", index=index,
                                rows=len(partition),
                                spilled=spill is not None) as span:
                    core_cells = fold_core(task, partition, core_mask, stats)

                    resident = (len(core_cells)
                                + sum(len(c) for c in supers.values()))
                    max_resident = max(max_resident, resident)
                    span.set(core_cells=len(core_cells), resident=resident)

                    # fold this partition's core into the resident supers,
                    # walking each core cell straight to every requested
                    # super-aggregate
                    for coordinate, handles in core_cells.items():
                        for mask in super_masks:
                            super_coord = task.coordinate(mask, coordinate)
                            super_handles = supers[mask].get(super_coord)
                            if super_handles is None:
                                super_handles = task.new_handles(stats)
                                supers[mask][super_coord] = super_handles
                            task.merge_handles(super_handles, handles,
                                               stats)
                        # the core cell is complete: finalize and evict
                        cells.append((coordinate,
                                      task.finalize(handles, stats)))
                    rctx.release_cells(len(core_cells))
        finally:
            # scratch spill state never outlives the computation --
            # success, error, and cancellation all land here
            if spill is not None:
                spill.close()
            if spill_dir is not None:
                shutil.rmtree(spill_dir, ignore_errors=True)

        if 0 in task.masks and not task.rows:
            target = supers.get(0)
            if target is not None and not target:
                target[task.coordinate(0, ())] = task.new_handles(stats)
            elif core_mask == 0 and not cells:
                cells.append((task.coordinate(0, ()),
                              task.finalize(task.new_handles(stats), stats)))

        for mask in super_masks:
            for coordinate, handles in supers[mask].items():
                cells.append((coordinate, task.finalize(handles, stats)))
        rctx.release_cells(sum(len(c) for c in supers.values()))

        stats.observe_resident(max_resident)
        stats.cells_produced = len(cells)
        stats.notes["memory_budget"] = self.memory_budget
        return CubeResult(table=task.result_table(cells), stats=stats)

    @staticmethod
    def _write_spill(spill: PageFile, spill_span, index: int,
                     payload: bytes, n_rows: int,
                     policy: RetryPolicy) -> int:
        """Write one partition's pickled rows to the spill file,
        retrying injected write failures (the ``spill_write`` chaos
        point and the page layer's own ``torn_write``) with bounded
        backoff; returns the blob's head page id.  A failed attempt
        leaks its half-written pages inside the scratch file -- the
        retry stores a fresh chain, and the whole file is deleted when
        the computation ends."""
        def on_failure(attempt: int, error: BaseException) -> None:
            from repro.obs import instrument
            instrument.record_spill_retry()
            spill_span.event("spill_retry", partition=index,
                             attempt=attempt, error=str(error))

        def write(attempt: int) -> int:
            rctx.inject("spill_write", partition=index, attempt=attempt)
            head = spill.store_blob(payload)
            spill_span.event("spill", partition=index, rows=n_rows,
                             bytes=len(payload), head=head)
            return head

        return call_with_retry(write, policy=policy, on_failure=on_failure)
