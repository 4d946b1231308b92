"""Partition-parallel cube computation (Section 5).

"If the source data spans many disks or nodes, use parallelism to
aggregate each partition and then coalesce these aggregates.  [...] the
distributive, algebraic, and holistic taxonomy is very useful in
computing aggregates for parallel database systems.  In those systems,
aggregates are computed for each partition of a database in parallel.
Then the results of these parallel computations are combined."

One engine, :class:`PartitionedCube`, and two runners that differ only
in how a partition's core GROUP BY is built: :class:`ParallelCubeAlgorithm`
on a thread pool with the row-path
:func:`~repro.compute.from_core.fold_core`,
:class:`~repro.cluster.ClusterCubeAlgorithm` in worker processes with
the columnar kernels.  The engine cuts ``P = min(n_workers, max(1,
n_rows))`` contiguous partitions, recovers surrendered ones serially,
merges the partition cores in partition order with ``Iter_super`` --
contiguous partitions make that order the global first-seen order, so
the combined core is the dict from-core builds -- and computes the
super-aggregates from it with
:func:`~repro.compute.from_core.fold_super_aggregates`.  The kernels
fold a group's values in row order just as ``Iter`` does, so both
runners return the same bits.  Strict-mode holistic aggregates cannot
be combined across partitions and are refused.

**Fault isolation.** Under an :class:`~repro.resilience.ExecutionContext`
each worker attempt is retried with bounded backoff; a worker that
exhausts its retries surrenders its partition as a
:class:`FailedPartition`, which the engine re-executes serially and
chaos-exempt (so a genuine, deterministic error still propagates).  The
merge order never depends on which path built a core, so results are
bit-identical to the undisturbed run.  Cancellation is never retried
and never recovered.
"""

from __future__ import annotations

from abc import abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, NamedTuple, Sequence

from repro.aggregates.base import Handle
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.from_core import (
    finalize_nodes,
    fold_core,
    fold_super_aggregates,
)
from repro.compute.stats import ComputeStats
from repro.core.grouping import Mask
from repro.core.lattice import CubeLattice
from repro.errors import CubeError, QueryCancelledError
from repro.obs import instrument, trace
from repro.obs.trace import Span
from repro.resilience import context as rctx
from repro.resilience.retry import call_with_retry

__all__ = ["FailedPartition", "ParallelCubeAlgorithm", "PartitionedCube"]

#: One partition's core GROUP BY (coordinate -> live scratchpads, in
#: first-seen order) and the counters spent building it.
PartitionCore = tuple[dict[tuple, list[Handle]], ComputeStats]


class FailedPartition(NamedTuple):
    """Sentinel for a partition whose worker exhausted its retries; the
    engine recovers it serially."""

    index: int
    error: BaseException


class PartitionedCube(CubeAlgorithm):
    """The Section 5 engine; a subclass is a runner that builds the
    partition cores."""

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise CubeError("n_workers must be at least 1")
        self.n_workers = n_workers

    # each runner opens its own recover/coalesce spans, named literally
    # at the call site as the span catalogue's analyzer requires
    @abstractmethod
    def _recover_span(self, failures: int) -> Any: ...

    @abstractmethod
    def _coalesce_span(self, workers: int) -> Any: ...

    def _partition_then_combine(
            self, task: CubeTask,
            build_cores: Callable[..., list[PartitionCore]]) -> CubeResult:
        """``build_cores(task, core_mask, bounds, stats)`` is the runner:
        one core per partition ``rows[bounds[i]:bounds[i + 1]]``,
        surrendered ones recovered through :meth:`_recover`."""
        stats = self._new_stats()
        core_mask = CubeLattice(task.dims, task.masks).core
        n_rows = len(task.rows)
        parts = min(self.n_workers, max(1, n_rows))
        bounds = [n_rows * i // parts for i in range(parts + 1)]
        stats.partitions = parts
        cores = build_cores(task, core_mask, bounds, stats)
        nodes = {core_mask: self._merge(task, cores, stats)}
        fold_super_aggregates(task, nodes, stats)
        cells = finalize_nodes(task, nodes, stats)
        return CubeResult(table=task.result_table(cells), stats=stats)

    def _recover(self, outcomes: list, stats: ComputeStats,
                 rebuild: Callable[[int], PartitionCore]
                 ) -> list[PartitionCore]:
        """Replace every :class:`FailedPartition` in ``outcomes`` with
        ``rebuild(index)``, run serially in the coordinator."""
        failed = [o for o in outcomes if isinstance(o, FailedPartition)]
        if failed:
            stats.notes["recovered_partitions"] = len(failed)
            with self._recover_span(len(failed)) as recover_span:
                for lost in failed:
                    rctx.checkpoint(f"{self.name} recovery")
                    recover_span.event("recover_partition",
                                       worker=lost.index,
                                       error=str(lost.error))
                    instrument.record_worker_recovery()
                    # plain serial re-execution: chaos-exempt, so a
                    # genuine deterministic error re-raises here
                    outcomes[lost.index] = rebuild(lost.index)
        return outcomes

    def _merge(self, task: CubeTask, cores: Sequence[PartitionCore],
               stats: ComputeStats) -> dict[tuple, list[Handle]]:
        """The partition cores merged, in partition order, into the
        combined core."""
        with self._coalesce_span(len(cores)) as span:
            combined: dict[tuple, list[Handle]] = {}
            for cells, partition_stats in cores:
                rctx.checkpoint(f"{self.name} coalesce")
                stats.merged(partition_stats)
                for coordinate, handles in cells.items():
                    target = combined.get(coordinate)
                    if target is None:
                        target = task.new_handles(stats)
                        combined[coordinate] = target
                    task.merge_handles(target, handles, stats)
            # every partition's core is alive while the coordinator
            # folds it into the combined core -- count both for the peak
            stats.observe_resident(
                sum(len(cells) for cells, _ in cores) + len(combined))
            span.set(cells=len(combined))
        return combined


class ParallelCubeAlgorithm(PartitionedCube):
    """The thread runner: each partition's core is a row-path
    :func:`~repro.compute.from_core.fold_core` on a pool thread
    (``use_threads=False`` runs the partitions one after another)."""

    name = "parallel"

    def __init__(self, n_workers: int = 4, *, use_threads: bool = True) -> None:
        super().__init__(n_workers)
        self.use_threads = use_threads

    def _recover_span(self, failures: int) -> Any:
        return trace.span("cube.parallel.recover", failures=failures)

    def _coalesce_span(self, workers: int) -> Any:
        return trace.span("cube.parallel.coalesce", workers=workers)

    def _compute(self, task: CubeTask) -> CubeResult:
        self._require_mergeable(task)
        return self._partition_then_combine(task, self._fold_partitions)

    def _fold_partitions(self, task: CubeTask, core_mask: Mask,
                         bounds: list[int],
                         stats: ComputeStats) -> list[PartitionCore]:
        # worker threads have their own (empty) span stacks, so the
        # coordinating thread's open span is passed down explicitly
        parent = trace.current_span()
        ctx = rctx.current_context()

        def fold(i: int, parent: "Span | None" = None) -> PartitionCore:
            rows = task.rows[bounds[i]:bounds[i + 1]]
            with trace.span("cube.parallel.worker", parent=parent, worker=i,
                            rows=len(rows)) as span:
                # one base scan per worker, so the merged total is the
                # partition count (see the ComputeStats docstring)
                local = ComputeStats(algorithm="parallel-worker",
                                     base_scans=1)
                cells = fold_core(task, rows, core_mask, local)
                local.observe_resident(len(cells))
                span.set(cells=len(cells))
                span.attach_stats(local)
            return cells, local

        def run(i: int) -> "PartitionCore | FailedPartition":
            if ctx is None:
                return fold(i, parent)
            return _guarded(fold, i, parent=parent, ctx=ctx)

        workers = range(len(bounds) - 1)
        if self.use_threads and len(workers) > 1:
            with ThreadPoolExecutor(max_workers=len(workers)) as pool:
                outcomes = list(pool.map(run, workers))
        else:
            outcomes = [run(i) for i in workers]
        return self._recover(outcomes, stats, fold)


def _guarded(fold: Callable[[int, "Span | None"], PartitionCore],
             worker: int, *, parent: "Span | None",
             ctx) -> "PartitionCore | FailedPartition":
    """One worker under the context's fault envelope.

    Each attempt polls the cancellation token and fires the
    ``slow_node`` / ``worker_crash`` chaos points (keyed on worker and
    attempt, so a seed can crash attempt 0 and spare the retry).
    Failures retry with bounded backoff; exhausted retries return a
    :class:`FailedPartition` sentinel for serial recovery instead of
    sinking the whole query.  Cancellation propagates immediately.
    """
    def on_failure(attempt: int, error: BaseException) -> None:
        instrument.record_worker_retry()
        if parent is not None:
            parent.event("worker_retry", worker=worker, attempt=attempt,
                         error=str(error))

    def run(attempt: int) -> PartitionCore:
        # the active-context slot is thread-local, so the worker thread
        # re-installs the coordinator's context before doing any work --
        # budget charges and checkpoints then hit the shared accountant
        with rctx.use_context(ctx):
            ctx.check(f"parallel worker {worker}")
            ctx.inject("slow_node", worker=worker, attempt=attempt)
            ctx.inject("worker_crash", worker=worker, attempt=attempt)
            return fold(worker, parent)

    try:
        return call_with_retry(run, policy=ctx.retry, on_failure=on_failure)
    except QueryCancelledError:
        raise
    except Exception as error:
        instrument.record_worker_failure()
        if parent is not None:
            parent.event("worker_failed", worker=worker, error=str(error))
        return FailedPartition(worker, error)
