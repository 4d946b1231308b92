"""The columnar (vectorized) cube algorithm.

Execution plan:

1. **Batch**: the task's rows are transposed into a
   :class:`~repro.compute.columnar.batch.ColumnBatch` -- dictionary-
   encoded dimension codes plus typed aggregate columns (256-row
   checkpoint cadence).
2. **Partition the aggregate list**: functions that declared a
   ``vector_kernel`` (and whose input column satisfies the kernel's
   numeric requirement) run on the kernels; the rest -- holistic
   aggregates, UDAFs, non-numeric SUM inputs -- form the *residual* and
   transparently run on the row path (from-core when mergeable, the
   2^N-algorithm otherwise).  Both halves are joined per cell, so mixed
   aggregate lists work.
3. **Vector half, dense route** (when the Section 5 dense array,
   ``prod(Ci+1)`` slots, fits ``dense_budget``): group codes become
   flat dense offsets via :func:`repro.core.addressing.dense_strides`;
   each kernel scatter-aggregates into dense accumulators, then the
   2^N super-aggregate fold projects one dimension at a time, smallest
   cardinality first, through the shared slab addressing
   (:func:`repro.core.addressing.iter_slab_offsets`).
4. **Vector half, sparse route** (otherwise): Section 5's "compute
   the super-aggregates from the core" on kernel arrays.  A key pass
   numbers the core's cells in first-seen row order
   (:func:`repro.compute.columnar.core.first_seen_ids` over packed
   dimension codes), then gives every other grouping set first-seen
   cell ids over the cells of its smallest computed parent (exact
   counts, "pick the * with the smallest Ci"), each cell inheriting
   the first row of the first parent cell folded into it.  One state
   per kernel is allocated over all lattice cells; the core is
   scattered, and each node is one ``fold_at`` per kernel in
   parent-cell order -- the order from-core's
   :func:`~repro.compute.from_core.fold_super_aggregates` merges in,
   so the sparse route returns from-core's rows list for list (by
   test, in parent order; numpy VARIANCE/STDEV rounds differently).
5. **Emit**: both routes build output rows column by column -- the
   grouped values from each cell's first input row, the measures from
   one bulk ``handles()`` decode per kernel and one ``fn.end`` per
   handle.

The kernels auto-select numpy when importable and fall back to pure
python otherwise (``force_python=True`` pins the fallback, used by the
parity tests and the no-numpy CI leg).
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import repeat
from typing import Any, Iterable, Iterator

from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.columnar.batch import ColumnBatch, numpy_backend
from repro.compute.columnar.core import (
    core_strides,
    first_seen_ids,
    flat_offsets,
    kernel_positions,
)
from repro.compute.columnar.kernels import kernel_for, make_state
from repro.compute.from_core import smallest_computed_parent
from repro.compute.stats import ComputeStats
from repro.core.addressing import dense_shape, dense_strides, iter_slab_offsets
from repro.core.lattice import CubeLattice
from repro.engine.table import Table
from repro.obs import instrument, trace
from repro.resilience import context as rctx
from repro.types import ALL

__all__ = ["COLUMNAR_ROW_THRESHOLD", "ColumnarCubeAlgorithm"]

#: Below this row count the optimizer prefers the row algorithms: the
#: batching overhead only pays off once the scan dominates.
COLUMNAR_ROW_THRESHOLD = 512


class ColumnarCubeAlgorithm(CubeAlgorithm):
    """Vectorized columnar backend.

    - ``dense_budget``: max dense slots (``prod(Ci+1)``) before the
      sparse route takes over (``mode="auto"``);
    - ``mode``: ``"auto"`` | ``"dense"`` | ``"sparse"`` route pin;
    - ``force_python``: skip numpy even when importable.
    """

    name = "columnar"

    def __init__(self, dense_budget: int = 1 << 20, *,
                 mode: str = "auto",
                 force_python: bool = False) -> None:
        if mode not in ("auto", "dense", "sparse"):
            # constructor-arg validation, documented as ValueError
            raise ValueError(f"mode must be auto|dense|sparse, got {mode!r}")  # repro: allow-S004
        self.dense_budget = dense_budget
        self.mode = mode
        self.force_python = force_python

    # -- top level ------------------------------------------------------------

    def _compute(self, task: CubeTask) -> CubeResult:
        stats = self._new_stats()
        stats.base_scans = 1

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

        vector_positions = kernel_positions(task.functions, batch, xp)
        residual_positions = [p for p in range(task.n_aggs)
                              if p not in vector_positions]

        if not vector_positions:
            return self._fallback(task)

        vector_task = replace(
            task,
            functions=tuple(task.functions[p] for p in vector_positions),
            agg_names=tuple(task.agg_names[p] for p in vector_positions))
        columns = [batch.aggs[p] for p in vector_positions]

        residual_result = None
        if residual_positions:
            residual_result = self._residual(task, residual_positions, stats)

        cards = batch.cardinalities()
        dense_cells = math.prod(c + 1 for c in cards)
        use_dense = (self.mode == "dense"
                     or (self.mode == "auto"
                         and dense_cells <= self.dense_budget))
        stats.notes["route"] = "dense" if use_dense else "sparse"
        instrument.record_columnar_batch(stats.notes["backend"],
                                         stats.notes["route"],
                                         batch.n_rows)
        if use_dense:
            rows = self._dense(vector_task, batch, columns, xp, stats)
        else:
            rows = self._sparse(vector_task, batch, columns, xp, stats)

        if residual_result is None:
            stats.cells_produced = len(rows)
            return CubeResult(table=Table(task.output_schema(), rows,
                                          validate=False), stats=stats)

        residual_values = {}
        n_dims = task.n_dims
        for row in residual_result.table.rows:
            residual_values[row[:n_dims]] = row[n_dims:]
        cells = []
        for row in rows:
            coordinate = row[:n_dims]
            values: list[Any] = [None] * task.n_aggs
            for j, p in enumerate(vector_positions):
                values[p] = row[n_dims + j]
            for j, p in enumerate(residual_positions):
                values[p] = residual_values[coordinate][j]
            cells.append((coordinate, tuple(values)))
        stats.merged(residual_result.stats)
        stats.cells_produced = len(cells)
        return CubeResult(table=task.result_table(cells), stats=stats)

    # -- row-path delegates ---------------------------------------------------

    def _row_algorithm(self, task: CubeTask):
        from repro.compute.from_core import FromCoreAlgorithm
        from repro.compute.twon import TwoNAlgorithm
        if task.all_mergeable():
            return FromCoreAlgorithm()
        return TwoNAlgorithm()  # strict holistic: the paper's only option

    def _fallback(self, task: CubeTask) -> CubeResult:
        """No function is vectorizable: run the whole task on the row
        path, keeping the columnar label so callers see one algorithm."""
        inner = self._row_algorithm(task)
        with trace.span("cube.residual", functions=",".join(
                fn.name for fn in task.functions), path=inner.name):
            result = inner._compute(task)
        result.stats.algorithm = self.name
        result.stats.notes["fallback"] = inner.name
        return result

    def _residual(self, task: CubeTask, positions: list[int],
                  stats: ComputeStats) -> CubeResult:
        """Row-path pass over the non-vectorizable aggregates only."""
        n_dims = task.n_dims
        residual_task = replace(
            task,
            functions=tuple(task.functions[p] for p in positions),
            agg_names=tuple(task.agg_names[p] for p in positions),
            rows=[row[:n_dims] + tuple(row[n_dims + p] for p in positions)
                  for row in task.rows])
        inner = self._row_algorithm(residual_task)
        stats.notes["residual"] = [fn.name for fn in residual_task.functions]
        stats.notes["residual_path"] = inner.name
        with trace.span("cube.residual", functions=",".join(
                residual_task.agg_names), path=inner.name):
            return inner._compute(residual_task)

    # -- dense route -----------------------------------------------------------

    def _dense(self, task: CubeTask, batch: ColumnBatch, columns: list,
               xp, stats: ComputeStats) -> list[tuple]:
        n = task.n_dims
        cards = batch.cardinalities()
        shape = dense_shape(cards)
        strides = dense_strides(shape)
        dense_slots = math.prod(shape)
        # the dense array commits one slot per coordinate up front:
        # charge it all, so sparse data over wide domains trips the
        # budget here and degrades to the external algorithm
        rctx.charge_cells(dense_slots, "columnar dense allocation")
        stats.start_calls += dense_slots * task.n_aggs

        slots = flat_offsets(batch, range(n), strides, xp)

        # ``first`` is each slot's first input row (a min-scatter of the
        # row index, projected with min): a cell's grouped values are
        # read from that row, which is what from-core reports
        n_rows = len(task.rows)
        if xp is None:
            counts = [0] * dense_slots
            first = [n_rows] * dense_slots
            for i, code in enumerate(slots):
                counts[code] += 1
                if first[code] > i:
                    first[code] = i
        else:
            counts = xp.zeros(dense_slots, dtype=xp.int64)
            xp.add.at(counts, slots, 1)
            first = xp.full(dense_slots, n_rows, dtype=xp.int64)
            xp.minimum.at(first, slots, xp.arange(n_rows, dtype=xp.int64))

        states = []
        for fn, column in zip(task.functions, columns):
            state = make_state(kernel_for(fn), dense_slots, xp)
            stats.iter_calls += state.scatter(slots, column)
            states.append(state)

        order = sorted(range(n), key=lambda i: cards[i])
        stats.notes["projection_order"] = [task.dims[i] for i in order]
        for axis in order:
            rctx.checkpoint("columnar projection axis")
            ci = cards[axis]
            if xp is None:
                stride = strides[axis]
                for base in iter_slab_offsets(shape, axis):
                    target = base + ci * stride
                    offsets = [base + k * stride for k in range(ci)]
                    counts[target] = sum(counts[o] for o in offsets)
                    first[target] = min(first[o] for o in offsets)
                    for state in states:
                        for offset in offsets:
                            state.fold(target, offset)
            else:
                core_slice: list = [slice(None)] * n
                core_slice[axis] = slice(0, ci)
                all_slice: list = [slice(None)] * n
                all_slice[axis] = ci
                core, target = tuple(core_slice), tuple(all_slice)
                view = counts.reshape(shape)
                view[target] = view[core].sum(axis=axis)
                view = first.reshape(shape)
                view[target] = view[core].min(axis=axis)
                for state in states:
                    state.project_np(shape, axis, core, target)
            slab_cells = math.prod(shape[i] for i in range(n) if i != axis)
            stats.merge_calls += slab_cells * ci * task.n_aggs

        stats.observe_resident(dense_slots * (2 * task.n_aggs + 1))

        built = list(zip(task.functions, states))
        out: list[tuple] = []
        for mask in task.masks:
            flats, firsts = _occupied(mask, counts, first, shape, xp)
            out.extend(_emit(task, mask, built, flats, firsts))
            stats.end_calls += len(firsts) * len(built)

        rctx.release_cells(dense_slots)
        return out

    # -- sparse route ----------------------------------------------------------

    def _sparse(self, task: CubeTask, batch: ColumnBatch, columns: list,
                xp, stats: ComputeStats) -> list[tuple]:
        lattice = CubeLattice(task.dims, task.masks)
        core_mask = lattice.core
        core_dims = _grouped(core_mask, task.n_dims)
        slots, core_rows = first_seen_ids(flat_offsets(
            batch, core_dims, core_strides(batch, core_dims), xp), xp)

        # key pass: every other node's cells as first-seen ids over the
        # cells of its smallest computed parent (exact counts), keyed by
        # the packed codes of the parent cells' first rows; a cell's
        # first row is that of the first parent cell folded into it
        first_rows = {core_mask: (core_rows if xp is None
                                  else xp.asarray(core_rows, dtype=xp.int64))}
        # one state per kernel over every lattice cell, node after node
        offsets = {core_mask: 0}
        n_cells = len(core_rows)
        steps = []
        for level_masks in lattice.by_level_descending():
            for mask in level_masks:
                if mask == core_mask:
                    continue
                parent = smallest_computed_parent(lattice, mask, first_rows)
                parent_rows = first_rows[parent]
                dims = _grouped(mask, task.n_dims)
                ids, firsts = first_seen_ids(flat_offsets(
                    batch, dims, core_strides(batch, dims), xp,
                    rows=parent_rows), xp)
                first_rows[mask] = (
                    [parent_rows[i] for i in firsts] if xp is None
                    else parent_rows[firsts])
                offsets[mask] = n_cells
                n_cells += len(firsts)
                steps.append((mask, parent, ids))

        rctx.charge_cells(n_cells, "columnar lattice cells")
        stats.start_calls += n_cells * task.n_aggs

        with trace.span("cube.node", dims=task.mask_label(core_mask),
                        role="core", rows=len(task.rows)) as span:
            states = []
            for fn, column in zip(task.functions, columns):
                state = make_state(kernel_for(fn), n_cells, xp)
                stats.iter_calls += state.scatter(slots, column)
                states.append(state)
            span.set(cells=len(core_rows))

        # Iter_super, node by node in parent-cell order
        for mask, parent, ids in steps:
            rctx.checkpoint("columnar lattice node")
            parent_cells = len(first_rows[parent])
            with trace.span("cube.node", dims=task.mask_label(mask),
                            parent_node=task.mask_label(parent),
                            parent_cells=parent_cells) as span:
                offset = offsets[mask]
                dst = ([i + offset for i in ids] if xp is None
                       else ids + offset)
                src = range(offsets[parent], offsets[parent] + parent_cells)
                for state in states:
                    state.fold_at(dst, src)
                span.set(cells=len(first_rows[mask]))
            stats.merge_calls += parent_cells * task.n_aggs
        stats.observe_resident(n_cells)

        built = list(zip(task.functions, states))
        out: list[tuple] = []
        for mask in task.masks:
            node_rows = first_rows[mask]
            if xp is not None:
                node_rows = node_rows.tolist()
            start = offsets[mask]
            out.extend(_emit(task, mask, built,
                             slice(start, start + len(node_rows)),
                             node_rows))
            stats.end_calls += len(node_rows) * len(built)
        rctx.release_cells(n_cells)
        return out


def _grouped(mask: int, n_dims: int) -> list[int]:
    return [i for i in range(n_dims) if mask & (1 << i)]


def _emit(task: CubeTask, mask: int, built: list[tuple], slots,
          first_rows: list[int]) -> Iterator[tuple]:
    """The output rows of ``mask``'s cells at kernel ``slots``, built
    column by column: each cell's grouped values come from its first
    input row (hash-equal 1/1.0/True share a code, so the decode lists
    cannot be used) and ALL elsewhere; its measures are Final() of its
    handles -- one bulk decode per kernel, one ``fn.end`` per handle."""
    rows = task.rows
    columns: list[Iterable] = [
        [rows[r][i] for r in first_rows] if mask & (1 << i)
        else repeat(ALL, len(first_rows)) for i in range(task.n_dims)]
    columns += [list(map(fn.end, state.handles(slots)))
                for fn, state in built]
    return zip(*columns)


def _occupied(mask: int, counts, first, shape: tuple[int, ...], xp
              ) -> tuple[Any, list[int]]:
    """The flat offsets of ``mask``'s non-empty cells in ascending
    order (an int64 array on numpy), with each cell's first input row.

    A mask's cells are the slots holding a real index on its grouped
    dimensions and the ALL index ``Ci`` on the rest.  numpy takes
    ``flatnonzero`` over that sub-block, so it touches only occupied
    slots; pure python walks the sub-block with an odometer.  Both
    yield the same row-major order.
    """
    n = len(shape)
    strides = dense_strides(shape)
    grouped = [i for i in range(n) if mask & (1 << i)]
    base = sum((shape[i] - 1) * strides[i]
               for i in range(n) if not mask & (1 << i))
    if xp is not None:
        block = counts.reshape(shape)[tuple(
            slice(0, shape[i] - 1) if mask & (1 << i) else shape[i] - 1
            for i in range(n))]
        hits = xp.flatnonzero(block)
        flats = xp.full(hits.shape, base, dtype=xp.int64)
        for i in reversed(grouped):  # unravel the block's row-major index
            hits, index = xp.divmod(hits, shape[i] - 1)
            flats += index * strides[i]
        return flats, first[flats].tolist()
    flats = []
    index = [0] * len(grouped)
    while True:
        flat = base + sum(index[j] * strides[i]
                          for j, i in enumerate(grouped))
        if counts[flat] > 0:
            flats.append(flat)
        # odometer over the grouped dimensions' real slots
        position = len(grouped) - 1
        while position >= 0:
            index[position] += 1
            if index[position] < shape[grouped[position]] - 1:
                break
            index[position] = 0
            position -= 1
        else:
            break
    return flats, [first[flat] for flat in flats]
