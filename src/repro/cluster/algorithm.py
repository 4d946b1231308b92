"""Multi-process cube computation over shared-memory slabs.

``algorithm="cluster"`` is Section 5's partition-then-combine executed
across *processes*, so the GIL stops bounding cube throughput:

1. **Batch** the task's rows into a dictionary-encoded
   :class:`~repro.compute.columnar.batch.ColumnBatch` and encode it
   into one shared-memory slab (:mod:`repro.cluster.slab`) -- flat
   buffers, zero pickling, the dictionaries stay parent-side.
2. **Scatter** contiguous row ranges to the persistent worker pool
   (:mod:`repro.cluster.pool`).  Each worker groups its slice by the
   lattice-core dimension codes (first-seen order) and scatters every
   aggregate through its columnar kernel -- per-partition aggregation
   with mergeable scratchpads, exactly as the paper prescribes for
   parallel database systems.
3. **Gather + combine**: partition results (each group's first row
   plus primitive handles) come back over the pipes; the parent reads
   each coordinate from that row of the task -- never from the
   dictionaries, which keep one of several hash-equal values (``1``,
   ``1.0``, ``True``) -- and merges partition handles in partition
   index order (``Iter_super``).  Because the ranges are contiguous,
   partition-order first-seen discovery reproduces the *global*
   first-seen group order, so the combined core is the same dict -- in
   the same insertion order -- the single-process columnar sparse route
   builds.
4. The super-aggregate walk is then *literally*
   :func:`~repro.compute.from_core.fold_super_aggregates`, which is
   what makes cluster results bit-identical to the row and columnar
   backends (asserted pairwise by the equivalence suite).

**Eligibility.**  Every aggregate must be mergeable (else
:class:`~repro.errors.NotMergeableError`, as for the thread pool) and
every function must have a vector kernel over a shippable column: the
slab carries only the float64 image, so numeric kernels additionally
need every int to survive the float64 round trip (``|v| <= 2**53``).
Anything else -- holistic residuals, UDAFs, mixed-type MIN/MAX under
numpy, huge ints -- falls back to the *thread* pool
(:class:`~repro.compute.parallel.ParallelCubeAlgorithm`), keeping the
``cluster`` label so callers see one algorithm (mirroring the columnar
fallback contract).

**Resilience.**  Worker-process retry, serial in-parent recovery
(bit-identical: recovery re-runs the identical partition function on
the still-live slab), deadline/cancellation propagation into workers,
and a chaos ``worker_crash`` that SIGKILLs real processes all live in
:mod:`repro.cluster.pool`.
"""

from __future__ import annotations

from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.columnar.batch import ColumnBatch, numpy_backend
from repro.compute.columnar.kernels import (
    kernel_for,
    kernel_needs_numeric,
)
from repro.compute.from_core import finalize_nodes, fold_super_aggregates
from repro.core.lattice import CubeLattice
from repro.errors import CubeError, NotMergeableError
from repro.obs import instrument, trace
from repro.resilience import context as rctx
from repro.types import ALL
from repro.cluster.pool import (
    FailedPartition,
    default_workers,
    get_pool,
    run_partition_spec,
)
from repro.cluster.slab import EXACT_INT_BOUND, MANAGER, slab_size

__all__ = ["ClusterCubeAlgorithm"]


class ClusterCubeAlgorithm(CubeAlgorithm):
    """Multi-process columnar backend (§5 scatter/gather over slabs).

    - ``n_workers``: worker processes (default ``REPRO_WORKERS`` or 2);
    - ``force_python``: pin the pure-python kernels in the workers
      (the no-numpy CI leg and the parity tests).
    """

    name = "cluster"

    def __init__(self, n_workers: int | None = None, *,
                 force_python: bool = False) -> None:
        if n_workers is None:
            n_workers = default_workers()
        if n_workers < 1:
            raise CubeError("n_workers must be at least 1")
        self.n_workers = n_workers
        self.force_python = force_python

    # -- top level ------------------------------------------------------------

    def _compute(self, task: CubeTask) -> CubeResult:
        if not task.all_mergeable():
            bad = [fn.name for fn in task.functions if not fn.mergeable]
            raise NotMergeableError(
                f"cluster cube needs mergeable scratchpads; {bad} are "
                "holistic in strict mode")
        stats = self._new_stats()

        if not task.rows:
            cells = []
            if 0 in task.masks:
                coordinate = tuple(ALL for _ in range(task.n_dims))
                values = tuple(fn.end(fn.start()) for fn in task.functions)
                cells.append((coordinate, values))
                stats.start_calls = task.n_aggs
                stats.end_calls = task.n_aggs
            stats.cells_produced = len(cells)
            return CubeResult(table=task.result_table(cells), stats=stats)

        xp = numpy_backend(self.force_python)
        with trace.span("cube.batch", rows=len(task.rows),
                        backend="numpy" if xp is not None else "python"):
            batch = ColumnBatch.from_task(task)
        stats.notes["backend"] = "numpy" if xp is not None else "python"

        kernels = self._shippable_kernels(task, batch, xp)
        if kernels is None:
            return self._fallback(task)

        return self._scatter_gather(task, batch, kernels, xp, stats)

    # -- eligibility -----------------------------------------------------------

    def _shippable_kernels(self, task: CubeTask, batch: ColumnBatch,
                           xp) -> "list[tuple[str, int]] | None":
        """Kernel plan ``[(kernel_name, agg_index), ...]`` covering every
        aggregate, or None when any position cannot ship."""
        exact: dict[int, bool] = {}

        def ships_exactly(p: int) -> bool:
            column = batch.aggs[p]
            key = id(column.valid)  # dedup'd columns share their masks
            cached = exact.get(key)
            if cached is None:
                cached = all(
                    -EXACT_INT_BOUND <= value <= EXACT_INT_BOUND
                    for value, is_float in zip(column.raw, column.floats)
                    if type(value) is int and not is_float)
                exact[key] = cached
            return cached

        kernels: list[tuple[str, int]] = []
        for p, fn in enumerate(task.functions):
            kernel = kernel_for(fn)
            if kernel is None:
                return None
            if kernel_needs_numeric(fn):
                if not batch.aggs[p].numeric:
                    return None
                # float64 MIN/MAX can't restore a cross-type tie winner
                if (xp is not None and kernel in ("min", "max")
                        and batch.aggs[p].mixed_number_types):
                    return None
                # the slab ships only the float64 image: every int must
                # survive the round trip or raw reconstruction drifts
                if not ships_exactly(p):
                    return None
            kernels.append((kernel, p))
        return kernels

    def _fallback(self, task: CubeTask) -> CubeResult:
        """Not slab-shippable: run on the thread pool, keeping the
        cluster label so callers see one algorithm."""
        from repro.compute.parallel import ParallelCubeAlgorithm
        inner = ParallelCubeAlgorithm(self.n_workers, use_threads=True)
        with trace.span("cube.cluster.fallback", path=inner.name,
                        workers=self.n_workers):
            result = inner._compute(task)
        result.stats.algorithm = self.name
        result.stats.notes["fallback"] = inner.name
        return result

    # -- scatter / gather ------------------------------------------------------

    def _scatter_gather(self, task: CubeTask, batch: ColumnBatch,
                        kernels: list, xp, stats) -> CubeResult:
        n = task.n_dims
        n_rows = batch.n_rows
        lattice = CubeLattice(task.dims, task.masks)
        core_mask = lattice.core
        core_dims = [i for i in range(n) if core_mask & (1 << i)]
        cards = batch.cardinalities()
        strides = []
        stride = 1
        for i in reversed(core_dims):
            strides.append(stride)
            stride *= cards[i]
        strides.reverse()

        ctx = rctx.current_context()
        workers = max(1, min(self.n_workers, n_rows))
        stats.partitions = workers
        stats.notes["workers"] = workers

        chaos = None
        if ctx is not None and ctx.chaos is not None:
            rates = ctx.chaos.rates
            if rates["worker_crash"] > 0 or rates["slow_node"] > 0:
                chaos = {"seed": ctx.chaos.seed,
                         "worker_crash": rates["worker_crash"],
                         "slow_node": rates["slow_node"],
                         "slow_node_delay": ctx.chaos.slow_node_delay}

        with trace.span("cube.cluster.scatter", rows=n_rows,
                        workers=workers) as span:
            shm = MANAGER.create_for(batch)
            span.set(slab_bytes=slab_size(batch))
        instrument.record_cluster_compute(stats.notes["backend"], n_rows,
                                          slab_size(batch))

        base_spec = {"slab": shm.name, "core_dims": core_dims,
                     "core_strides": strides, "kernels": kernels,
                     "deadline": ctx.deadline if ctx is not None else None}
        bounds = [n_rows * i // workers for i in range(workers + 1)]
        specs = []
        for i in range(workers):
            spec = dict(base_spec)
            spec.update(start=bounds[i], end=bounds[i + 1], worker=i,
                        chaos=chaos)
            specs.append(spec)

        try:
            pool = get_pool(workers, force_python=self.force_python)
            with trace.span("cube.cluster.gather",
                            workers=workers) as gather_span:
                outcomes = pool.run(specs, ctx=ctx, parent=gather_span)

            failed = [o for o in outcomes if isinstance(o, FailedPartition)]
            if failed:
                stats.notes["recovered_partitions"] = len(failed)
                with trace.span("cube.cluster.recover",
                                failures=len(failed)) as recover_span:
                    for lost in failed:
                        rctx.checkpoint("cluster recovery")
                        recover_span.event("recover_partition",
                                           worker=lost.index,
                                           error=str(lost.error))
                        instrument.record_worker_recovery()
                        # serial, in-parent, chaos-exempt re-execution of
                        # the identical partition function: a genuine
                        # deterministic error re-raises here
                        clean = dict(specs[lost.index])
                        clean["chaos"] = None
                        outcomes[lost.index] = run_partition_spec(
                            clean, force_python=self.force_python)
        finally:
            MANAGER.release(shm.name)

        return self._combine(task, core_mask, outcomes, stats)

    def _combine(self, task: CubeTask, core_mask: int, outcomes: list,
                 stats) -> CubeResult:
        project = task.projector(core_mask)
        with trace.span("cube.cluster.coalesce",
                        workers=len(outcomes)) as span:
            combined: dict[tuple, list] = {}
            local_groups = 0
            for payload in outcomes:
                rctx.checkpoint("cluster coalesce")
                stats.base_scans += 1
                stats.iter_calls += payload["iter_calls"]
                stats.start_calls += payload["n_groups"] * task.n_aggs
                local_groups += payload["n_groups"]
                # coordinates come from each group's first row, never
                # from the decode lists (which hold one of several
                # hash-equal values); partitions are contiguous and in
                # row order, so the first partition's key is kept
                for row, (_, handles) in zip(payload["rows"],
                                             payload["groups"]):
                    coordinate = project(task.rows[row])
                    target = combined.get(coordinate)
                    if target is None:
                        target = task.new_handles(stats)
                        combined[coordinate] = target
                    task.merge_handles(target, handles, stats)
            # every partition's groups are alive while the parent folds
            # them into the combined core -- count both for the peak
            stats.observe_resident(local_groups + len(combined))
            span.set(cells=len(combined))

        nodes = {core_mask: combined}
        fold_super_aggregates(task, nodes, stats)
        cells = finalize_nodes(task, nodes, stats)
        return CubeResult(table=task.result_table(cells), stats=stats)
