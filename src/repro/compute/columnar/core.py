"""The core GROUP BY on the kernels: one builder of core scratchpads.

Section 5 computes a cube in two steps -- aggregate the core once, then
"compute super-aggregates from the core" with ``Iter_super``.  This
module holds the pieces of that first step: :func:`kernel_positions`
decides which aggregates the kernels may compute, :func:`flat_offsets`
packs dimension codes into one int key per row, and
:func:`first_seen_ids` numbers the distinct keys in first-seen order.
The sparse route of
:class:`~repro.compute.columnar.ColumnarCubeAlgorithm` uses them to
group the core and then every lattice node on kernel arrays.

:func:`core_scratchpads` is the core for everything that keeps *live
scratchpads* -- :class:`~repro.compute.view_selection.PartialCube`
(which keeps the handles resident as a cached cuboid and maintains them
under deltas): it groups the batch's rows to first-seen group ids over
the core dimensions, scatter-aggregates the eligible columns, and
rebuilds one ordinary ``Handle`` list per group with one bulk decode
per kernel.  Without numpy no column is scattered (the caller folds
every position on its row loop); the grouping itself -- flat keys,
first-seen ids, row and accepted counts -- keeps a pure-python
implementation for that case.  The returned :class:`CoreCells` can
also report, per cell, the contributing row count and each
aggregate's accepted-value count (what delta maintenance needs to know
when a cell or a scratchpad empties) from one ``bincount`` per
distinct validity mask instead of a Python ``accepts()`` call per row
and aggregate.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.aggregates.base import AggregateFunction, Handle
from repro.compute.base import CubeTask
from repro.compute.columnar.batch import BATCH_ROWS, AggColumn, ColumnBatch
from repro.compute.columnar.kernels import (
    KERNELS,
    kernel_for,
    kernel_needs_numeric,
    make_state,
)
from repro.compute.stats import ComputeStats
from repro.core.grouping import Mask
from repro.obs import trace
from repro.resilience import context as rctx

__all__ = ["CoreCells", "core_scratchpads", "core_strides",
           "first_seen_ids", "flat_offsets", "kernel_positions"]


def _ints_exact(column: AggColumn, xp) -> bool:
    """Can float64 carry every partial sum of the column's int-typed
    values exactly?  Python ints never round, so a column that could
    push an integer accumulator past 2**53 stays on the row path."""
    if column.n_float == column.n_valid:
        return True
    ints = column.data_np(xp)[column.valid_np(xp) & ~column.floats_np(xp)]
    return float(xp.abs(ints).max()) * column.n_valid <= 2 ** 53


def kernel_positions(functions: Sequence[AggregateFunction],
                     batch: ColumnBatch, xp) -> list[int]:
    """Positions of the aggregates the kernels can compute exactly: the
    function declared a kernel and its input column satisfies the
    kernel's numeric requirement.  The rest -- holistic aggregates,
    UDAFs, non-numeric SUM inputs -- are the caller's *residual*.
    Without numpy (``xp`` is None) the kernels do not run, and every
    position is residual."""
    if xp is None:
        return []
    return [
        p for p, fn in enumerate(functions)
        if kernel_for(fn) is not None
        and (not kernel_needs_numeric(fn)
             or (batch.aggs[p].numeric
                 and _ints_exact(batch.aggs[p], xp)))
        # a float64 MIN/MAX can't tell which *type* won a cross-type
        # tie, and np.minimum/np.maximum keep the later of 0.0 and -0.0,
        # so such columns stay on the exact row path
        and (kernel_for(fn) not in ("min", "max")
             or not (batch.aggs[p].mixed_number_types
                     or _both_zeros(batch.aggs[p], xp)))
    ]


def _both_zeros(column: AggColumn, xp) -> bool:
    """Does the column hold both ``0.0`` and ``-0.0``?"""
    data = column.data_np(xp)[column.valid_np(xp)]
    negative = xp.signbit(data[data == 0])
    return bool(negative.any()) and not bool(negative.all())


def core_strides(batch: ColumnBatch, core_dims: Sequence[int]
                 ) -> dict[int, int]:
    """Mixed-radix strides over the core dimensions' real cardinalities:
    flat keys for the core only (no ALL slots -- the fold adds those)."""
    cards = batch.cardinalities()
    strides = {}
    stride = 1
    for i in reversed(core_dims):
        strides[i] = stride
        stride *= cards[i]
    return strides


def flat_offsets(batch: ColumnBatch, dims, strides, xp, rows=None):
    """Per-row flat offsets ``sum(code[d] * stride[d])`` over the
    given dimensions, for every row or for ``rows`` (row indices, an
    int64 ndarray on numpy) only; int list (python) or int64 ndarray
    (numpy).  ``strides`` may be a sequence or a {dim: stride}
    mapping."""
    dims = list(dims)
    n_rows = batch.n_rows if rows is None else len(rows)
    if xp is not None:
        flat = xp.zeros(n_rows, dtype=xp.int64)
        for d in dims:
            codes = batch.dims[d].codes_np(xp)
            flat += (codes if rows is None else codes[rows]) * strides[d]
        return flat
    flat = [0] * n_rows
    for d in dims:
        codes = batch.dims[d].codes
        if rows is not None:
            codes = [codes[r] for r in rows]
        stride = strides[d]
        if stride == 1:
            for i, code in enumerate(codes):
                flat[i] += code
        else:
            for i, code in enumerate(codes):
                flat[i] += code * stride
    return flat


class CoreCells:
    """The core GROUP BY's cells, in first-seen row order.

    ``coordinates[g]`` and ``handles[g]`` describe cell ``g`` (one
    handle per task aggregate; positions the kernels did not build hold
    ``fn.start()``); :attr:`gids` maps input rows to cells.
    """

    __slots__ = ("coordinates", "handles", "_functions",
                 "_columns", "_slots", "_xp", "_rows")

    def __init__(self, coordinates: list[tuple],
                 handles: list[list[Handle]],
                 functions: Sequence[AggregateFunction],
                 columns: Sequence[AggColumn | None], slots, xp) -> None:
        self.coordinates = coordinates
        self.handles = handles
        self._functions = functions
        self._columns = columns
        self._slots = slots
        self._xp = xp
        self._rows: list[int] | None = None

    @property
    def gids(self) -> list[int]:
        """``gids[i]`` is the cell of input row ``i``."""
        return self._slots if self._xp is None else self._slots.tolist()

    def _bincount(self, mask=None) -> list[int]:
        """Rows per cell (``mask`` keeps a subset), as python ints."""
        size = len(self.coordinates)
        slots = self._slots
        if self._xp is not None:
            picked = slots if mask is None else slots[mask]
            return self._xp.bincount(picked, minlength=size).tolist()
        counts = [0] * size
        if mask is None:
            for code in slots:
                counts[code] += 1
        else:
            for code, keep in zip(slots, mask):
                if keep:
                    counts[code] += 1
        return counts

    def _accepted_mask(self, column: AggColumn, skip_nan: bool):
        xp = self._xp
        if xp is not None:
            mask = column.valid_np(xp)
            return mask & ~column.nan_np(xp) if skip_nan else mask
        if not skip_nan:
            return column.valid
        return [v and not n for v, n in zip(column.valid, column.nan)]

    def row_counts(self) -> list[int]:
        """Contributing input rows per cell."""
        if self._rows is None:
            self._rows = self._bincount()
        return self._rows

    def accepted_counts(self) -> list[list[int]]:
        """Per cell, the number of values each aggregate's ``accepts()``
        let through -- one ``bincount`` per distinct validity mask.
        Positions the kernels did not build report 0."""
        zeros = [0] * len(self.coordinates)
        memo: dict[tuple, list[int]] = {}
        per_position = []
        for fn, column in zip(self._functions, self._columns):
            if column is None:
                per_position.append(zeros)
                continue
            accepts = KERNELS[kernel_for(fn)].accepts
            if accepts == "rows":
                per_position.append(self.row_counts())
                continue
            # columns batched from one source share their mask buffers
            key = (accepts, id(column.valid))
            counts = memo.get(key)
            if counts is None:
                counts = memo[key] = self._bincount(
                    self._accepted_mask(column, accepts == "finite"))
            per_position.append(counts)
        if not per_position:
            return [[] for _ in zeros]
        return [list(cell) for cell in zip(*per_position)]


def core_scratchpads(task: CubeTask, batch: ColumnBatch,
                     columns: Sequence[AggColumn | None], core_mask: Mask,
                     xp, stats: ComputeStats) -> CoreCells:
    """Aggregate ``batch`` at the core grouping set on the kernels.

    ``columns[p]`` is the batch column to scatter for
    ``task.functions[p]``, or ``None`` for a position the caller folds
    itself (its handles come back as ``fn.start()``).  Group ids follow
    first-seen row order, matching from-core's core cell insertion order
    (so downstream float merges agree bitwise).  Charges one cell per
    group to the active execution context and records the scatter as
    ``iter_calls``.
    """
    core_dims = [i for i in range(task.n_dims) if core_mask & (1 << i)]
    flat = flat_offsets(batch, core_dims, core_strides(batch, core_dims), xp)
    slots, representatives = first_seen_ids(flat, xp)
    n_groups = len(representatives)

    rctx.charge_cells(n_groups, "columnar core groups")
    stats.start_calls += n_groups * task.n_aggs

    with trace.span("cube.node", dims=task.mask_label(core_mask),
                    role="core", rows=len(task.rows)) as span:
        states = []
        for fn, column in zip(task.functions, columns):
            if column is None:
                states.append(None)
                continue
            state = make_state(kernel_for(fn), n_groups, xp)
            stats.iter_calls += state.scatter(slots, column)
            states.append(state)
        rows = task.rows
        project = task.projector(core_mask)
        coordinates = [project(rows[i]) for i in representatives]
        per_position = [
            [fn.start() for _ in range(n_groups)] if state is None
            else state.handles(slice(0, n_groups))
            for fn, state in zip(task.functions, states)]
        handles = [[position[gid] for position in per_position]
                   for gid in range(n_groups)]
        span.set(cells=n_groups)
    return CoreCells(coordinates, handles, task.functions, columns, slots,
                     xp)


def first_seen_ids(flat, xp, checkpoint: Callable[[str], None]
                   = rctx.checkpoint) -> tuple[Any, list[int]]:
    """Group id per row of ``flat``, numbered in first-seen order, plus
    each group's first row.  ``checkpoint`` is polled per chunk of
    :data:`BATCH_ROWS` rows (a worker process passes its own
    deadline/cancel check)."""
    if xp is not None:
        return _first_seen_ids_np(flat, xp, checkpoint)
    return _first_seen_ids(flat, checkpoint)


def _first_seen_ids(flat: list[int], checkpoint: Callable[[str], None]
                    ) -> tuple[list[int], list[int]]:
    """:func:`first_seen_ids` in pure python: one dict probe per row."""
    group_of: dict[int, int] = {}
    gids = [0] * len(flat)
    representatives: list[int] = []
    for start in range(0, len(flat), BATCH_ROWS):
        checkpoint("columnar group scan")
        for i in range(start, min(start + BATCH_ROWS, len(flat))):
            key = flat[i]
            gid = group_of.get(key)
            if gid is None:
                gid = group_of[key] = len(group_of)
                representatives.append(i)
            gids[i] = gid
    return gids, representatives


def _first_seen_ids_np(flat, xp, checkpoint: Callable[[str], None]
                       ) -> tuple[Any, list[int]]:
    """:func:`first_seen_ids` on numpy: ``unique`` sorts the keys, and
    ranking each key by its first row restores first-seen numbering."""
    checkpoint("columnar group scan")
    _, first, inverse = xp.unique(flat, return_index=True,
                                  return_inverse=True)
    order = xp.argsort(first)
    rank = xp.empty_like(order)
    rank[order] = xp.arange(order.shape[0])
    return rank[inverse.reshape(-1)], first[order].tolist()
