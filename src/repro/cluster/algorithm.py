"""Multi-process cube computation over shared-memory slabs.

``algorithm="cluster"`` is the process runner of Section 5's one
partition-then-combine engine (:class:`~repro.compute.parallel.
PartitionedCube`, which cuts, recovers, merges and folds), so the GIL
stops bounding cube throughput.  This runner only builds the partition
cores:

1. **Batch** the task's rows into a dictionary-encoded
   :class:`~repro.compute.columnar.batch.ColumnBatch` and encode it
   into one shared-memory slab (:mod:`repro.cluster.slab`) -- flat
   buffers, zero pickling, the dictionaries stay parent-side.
2. **Scatter** each partition's row range to the persistent worker pool
   (:mod:`repro.cluster.pool`), where it is grouped by the core
   dimension codes (first-seen order) and aggregated by the kernels.
3. **Gather** each group's first row plus primitive handles; the parent
   reads the coordinate from that row of the task -- never from the
   dictionaries, which keep one of several hash-equal values (``1``,
   ``1.0``, ``True``).

**Eligibility.**  Every aggregate must be mergeable, and every position
one :func:`~repro.compute.columnar.core.kernel_positions` accepts for a
float64 image: the slab carries only that image, so a column's int sums
must stay within ``2**53`` on both kernel backends.  Anything else --
holistic residuals, UDAFs, mixed-type MIN/MAX under numpy, huge ints --
runs on the thread runner, keeping the ``cluster`` label.  Both runners
share the engine, so the fallback returns the slab path's bits.

Worker retry, deadline/cancellation propagation and a chaos
``worker_crash`` that SIGKILLs real processes live in
:mod:`repro.cluster.pool`; the engine's serial recovery re-runs the
identical partition function in-parent on the still-live slab.
"""

from __future__ import annotations

from functools import partial
from typing import Any

from repro.compute.base import CubeResult, CubeTask
from repro.compute.columnar.batch import ColumnBatch, numpy_backend
from repro.compute.columnar.core import core_strides, kernel_positions
from repro.compute.columnar.kernels import kernel_for
from repro.compute.parallel import (
    FailedPartition,
    ParallelCubeAlgorithm,
    PartitionCore,
    PartitionedCube,
)
from repro.compute.stats import ComputeStats
from repro.core.grouping import Mask
from repro.obs import instrument, trace
from repro.resilience import context as rctx
from repro.cluster.pool import default_workers, get_pool, run_partition_spec
from repro.cluster.slab import MANAGER, slab_size

__all__ = ["ClusterCubeAlgorithm"]


class ClusterCubeAlgorithm(PartitionedCube):
    """Multi-process columnar runner (§5 scatter/gather over slabs).

    - ``n_workers``: worker processes (default ``REPRO_WORKERS`` or 2);
    - ``force_python``: pin the pure-python kernels in the workers
      (the no-numpy CI leg and the parity tests).
    """

    name = "cluster"

    def __init__(self, n_workers: int | None = None, *,
                 force_python: bool = False) -> None:
        super().__init__(default_workers() if n_workers is None
                         else n_workers)
        self.force_python = force_python

    def _recover_span(self, failures: int) -> Any:
        return trace.span("cube.cluster.recover", failures=failures)

    def _coalesce_span(self, workers: int) -> Any:
        return trace.span("cube.cluster.coalesce", workers=workers)

    def _compute(self, task: CubeTask) -> CubeResult:
        self._require_mergeable(task)
        xp = numpy_backend(self.force_python)
        backend = "numpy" if xp is not None else "python"
        with trace.span("cube.batch", rows=len(task.rows), backend=backend):
            batch = ColumnBatch.from_task(task)
        positions = kernel_positions(task.functions, batch, xp,
                                     float64_image=True)
        if len(positions) < task.n_aggs:
            return self._fallback(task)
        kernels = [(kernel_for(task.functions[p]), p) for p in positions]
        return self._partition_then_combine(
            task, partial(self._scatter, batch, kernels, backend))

    def _fallback(self, task: CubeTask) -> CubeResult:
        """Not slab-shippable: run on the thread runner, keeping the
        cluster label so callers see one algorithm."""
        inner = ParallelCubeAlgorithm(self.n_workers, use_threads=True)
        with trace.span("cube.cluster.fallback", path=inner.name,
                        workers=self.n_workers):
            result = inner._compute(task)
        result.stats.algorithm = self.name
        result.stats.notes["fallback"] = inner.name
        return result

    def _scatter(self, batch: ColumnBatch, kernels: list, backend: str,
                 task: CubeTask, core_mask: Mask, bounds: list[int],
                 stats: ComputeStats) -> list[PartitionCore]:
        """The runner: one spec per partition, run by the pool."""
        core_dims = [i for i in range(task.n_dims) if core_mask & (1 << i)]
        strides = core_strides(batch, core_dims)
        ctx = rctx.current_context()
        workers = len(bounds) - 1
        stats.notes["backend"] = backend
        stats.notes["workers"] = workers

        chaos = None
        if ctx is not None and ctx.chaos is not None:
            rates = ctx.chaos.rates
            if rates["worker_crash"] > 0 or rates["slow_node"] > 0:
                chaos = {"seed": ctx.chaos.seed,
                         "worker_crash": rates["worker_crash"],
                         "slow_node": rates["slow_node"],
                         "slow_node_delay": ctx.chaos.slow_node_delay}

        with trace.span("cube.cluster.scatter", rows=batch.n_rows,
                        workers=workers) as span:
            shm = MANAGER.create_for(batch)
            span.set(slab_bytes=slab_size(batch))
        instrument.record_cluster_compute(backend, batch.n_rows,
                                          slab_size(batch))

        specs = [{"slab": shm.name, "core_dims": core_dims,
                  "core_strides": [strides[d] for d in core_dims],
                  "kernels": kernels,
                  "deadline": ctx.deadline if ctx is not None else None,
                  "start": bounds[i], "end": bounds[i + 1], "worker": i,
                  "chaos": chaos}
                 for i in range(workers)]
        project = task.projector(core_mask)

        def rebuild(index: int) -> PartitionCore:
            # the identical partition function, in-parent, chaos-exempt
            clean = dict(specs[index], chaos=None)
            return _payload_core(task, project, run_partition_spec(
                clean, force_python=self.force_python))

        try:
            pool = get_pool(workers, force_python=self.force_python)
            with trace.span("cube.cluster.gather",
                            workers=workers) as gather_span:
                outcomes = pool.run(specs, ctx=ctx, parent=gather_span)
            outcomes = [
                o if isinstance(o, FailedPartition)
                else _payload_core(task, project, o) for o in outcomes]
            return self._recover(outcomes, stats, rebuild)
        finally:
            MANAGER.release(shm.name)


def _payload_core(task: CubeTask, project, payload: dict) -> PartitionCore:
    """One worker's payload as a partition core, each coordinate read
    from its group's first row (hash-equal 1/1.0/True share a code)."""
    stats = ComputeStats(algorithm="cluster-worker")
    stats.base_scans = 1
    stats.iter_calls = payload["iter_calls"]
    stats.start_calls = payload["n_groups"] * task.n_aggs
    rows = task.rows
    cells = {project(rows[row]): handles
             for row, (_, handles) in zip(payload["rows"],
                                          payload["groups"])}
    return cells, stats
