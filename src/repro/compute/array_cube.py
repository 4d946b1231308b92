"""Dense N-dimensional array cube (Section 5).

"If possible, use arrays [...] to organize the aggregation columns in
memory, storing one aggregate value for each array entry. [...] Given
that the core is represented as an N-dimensional array in memory, each
dimension having size Ci+1, the N-1 dimensional slabs can be computed
by projecting (aggregating) one dimension of the core."

Each dimension's values are mapped to dense integers 0..Ci-1 (the
paper's "hashed symbol table that maps each string to an integer so the
values become dense"); slot Ci is the ALL slot.  The core is filled in
one vectorized pass, then dimensions are projected one at a time,
smallest Ci first (the paper's efficiency rule), so every super-
aggregate level reuses the previous level's ALL slabs.

Supports the distributive SQL aggregates (COUNT/COUNT(*)/SUM/MIN/MAX)
over numeric inputs -- exactly the class the paper says array projection
handles.  Anything else raises and the optimizer falls back.

numpy is optional: without it, the same dense-array plan runs on the
columnar backend's pure-python kernels (identical semantics, including
the projection-order ablation), so the algorithm stays available on
dependency-free installs.
"""

from __future__ import annotations

import math
from typing import Any, Callable

try:  # optional: the pure-python columnar engine covers its absence
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    np = None

from repro.aggregates.distributive import Count, CountStar, Max, Min, Sum
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.errors import CubeError
from repro.resilience import context as rctx
from repro.types import ALL, is_null_or_all, sort_key

__all__ = ["ArrayCubeAlgorithm"]

_SUPPORTED = (Count, CountStar, Sum, Min, Max)


class _Accumulator:
    """One aggregate's dense arrays: the values, the accepted-count, and
    the count of float-typed accepted inputs.

    The accepted-count array keeps SQL semantics exact: a cell whose
    inputs were all NULL yields NULL for SUM/MIN/MAX even though rows
    exist there.  The float count restores the row path's result type:
    a SUM is a float once any float input reached it, and a MIN/MAX
    over only floats is a float (over mixed int and float inputs the
    winner's type is unknown, so an integral extreme decodes as int).
    """

    def __init__(self, fn, values: np.ndarray, accepted: np.ndarray,
                 floats: np.ndarray, reducer: Callable,
                 sentinel: float | None) -> None:
        self.fn = fn
        self.values = values
        self.accepted = accepted
        self.floats = floats
        self.reducer = reducer
        self.sentinel = sentinel

    def project(self, axis: int, core: tuple, target: tuple) -> None:
        self.values[target] = self.reducer(self.values[core], axis)
        self.accepted[target] = self.accepted[core].sum(axis=axis)
        self.floats[target] = self.floats[core].sum(axis=axis)

    def decode(self, index: tuple) -> Any:
        raw = self.values[index]
        if isinstance(self.fn, (Count, CountStar)):
            return int(raw)
        accepted = self.accepted[index]
        if accepted == 0:
            return None
        value = float(raw)
        floats = self.floats[index]
        if floats == accepted or (floats and isinstance(self.fn, Sum)):
            return value
        if value.is_integer():
            return int(value)
        return value


class ArrayCubeAlgorithm(CubeAlgorithm):
    """``projection_order`` ablates the smallest-dimension-first rule:

    - ``"smallest"`` (default): the paper's rule;
    - ``"largest"``: worst-case ordering, for the ablation bench (the
      cell-merge count grows because early ALL slabs multiply the work
      of later projections).
    """

    name = "array"

    def __init__(self, projection_order: str = "smallest") -> None:
        if projection_order not in ("smallest", "largest"):
            # constructor-arg validation, documented as ValueError
            raise ValueError("projection_order must be smallest|largest, "  # repro: allow-S004
                             f"got {projection_order!r}")
        self.projection_order = projection_order

    def _compute(self, task: CubeTask) -> CubeResult:
        for fn in task.functions:
            if not isinstance(fn, _SUPPORTED):
                raise CubeError(
                    f"array cube supports distributive COUNT/SUM/MIN/MAX, "
                    f"not {fn.name} (Section 5 limits array projection to "
                    "distributive functions)")
        if np is None:
            return self._compute_without_numpy(task)
        stats = self._new_stats()
        stats.base_scans = 1
        n = task.n_dims

        if not task.rows:
            cells = []
            if 0 in task.masks:
                coordinate = tuple(ALL for _ in range(n))
                values = tuple(fn.end(fn.start()) for fn in task.functions)
                cells.append((coordinate, values))
                stats.start_calls = task.n_aggs
                stats.end_calls = task.n_aggs
            stats.cells_produced = len(cells)
            return CubeResult(table=task.result_table(cells), stats=stats)

        # dense symbol tables per dimension ("map each string to an integer")
        value_lists: list[list[Any]] = []
        encoders: list[dict[Any, int]] = []
        for i in range(n):
            values = sorted({row[i] for row in task.rows}, key=sort_key)
            value_lists.append(values)
            encoders.append({v: j for j, v in enumerate(values)})
        shape = tuple(len(values) + 1 for values in value_lists)  # +1 = ALL
        # the dense array commits to one slot per coordinate up front --
        # charge the whole allocation, so sparse data over wide domains
        # trips the budget here and degrades to the external algorithm
        dense_slots = int(np.prod(shape))
        rctx.charge_cells(dense_slots, "array dense allocation")
        # every dense slot is an initialized scratchpad per aggregate
        # (the array analogue of Init), so emitted cells never outnumber
        # starts -- the Figure 7 accounting the property tests assert
        stats.start_calls = dense_slots * task.n_aggs

        t_rows = len(task.rows)
        coords = np.empty((t_rows, n), dtype=np.int64)
        for r, row in enumerate(task.rows):
            for i in range(n):
                coords[r, i] = encoders[i][row[i]]
        flat_core = np.ravel_multi_index(
            tuple(coords[:, i] for i in range(n)), shape)

        count_array = np.zeros(shape, dtype=np.int64)
        np.add.at(count_array.reshape(-1), flat_core, 1)
        # each slot's first input row, projected with min: coordinates
        # read their values from it, as from-core does -- the symbol
        # table holds one of several hash-equal values (1, 1.0, True)
        first_row = np.full(shape, t_rows, dtype=np.int64)
        np.minimum.at(first_row.reshape(-1), flat_core,
                      np.arange(t_rows, dtype=np.int64))

        accumulators: list[_Accumulator] = []
        for position, fn in enumerate(task.functions):
            inputs = [task.agg_values(row)[position] for row in task.rows]
            accumulators.append(
                self._fill_core(fn, inputs, flat_core, shape))
            stats.iter_calls += t_rows  # one logical Iter per input row

        # project one dimension at a time, smallest cardinality first
        order = sorted(range(n), key=lambda i: len(value_lists[i]),
                       reverse=self.projection_order == "largest")
        stats.notes["projection_order"] = [task.dims[i] for i in order]
        for axis in order:
            rctx.checkpoint("array projection axis")
            ci = len(value_lists[axis])
            core_slice = [slice(None)] * n
            core_slice[axis] = slice(0, ci)
            all_slice = [slice(None)] * n
            all_slice[axis] = ci
            core = tuple(core_slice)
            target = tuple(all_slice)
            count_array[target] = count_array[core].sum(axis=axis)
            first_row[target] = first_row[core].min(axis=axis)
            for accumulator in accumulators:
                accumulator.project(axis, core, target)
            slab_cells = int(np.prod(
                [shape[i] for i in range(n) if i != axis])) if n > 1 else 1
            stats.merge_calls += slab_cells * ci * task.n_aggs

        stats.observe_resident(int(np.prod(shape)) * (2 * task.n_aggs + 1))

        # -- emit the requested grouping sets (non-empty cells only) -------
        cells = []
        for mask in task.masks:
            indexer = []
            for i in range(n):
                ci = len(value_lists[i])
                indexer.append(slice(0, ci) if mask & (1 << i) else
                               slice(ci, ci + 1))
            sub_counts = count_array[tuple(indexer)]
            for offset in np.argwhere(sub_counts > 0):
                full_index = tuple(
                    int(offset[i]) if mask & (1 << i) else len(value_lists[i])
                    for i in range(n))
                row = task.rows[first_row[full_index]]
                coordinate = tuple(row[i] if mask & (1 << i) else ALL
                                   for i in range(n))
                values = tuple(acc.decode(full_index)
                               for acc in accumulators)
                cells.append((coordinate, values))

        rctx.release_cells(dense_slots)
        stats.end_calls += len(cells) * task.n_aggs
        stats.cells_produced = len(cells)
        return CubeResult(table=task.result_table(cells), stats=stats)

    def _compute_without_numpy(self, task: CubeTask) -> CubeResult:
        """Dense-array plan on the columnar pure-python kernels.

        Keeps the array algorithm's contract exactly: the numeric
        pre-check below raises the same :class:`CubeError` the numpy
        fill loop would, and the delegated computation is pinned to the
        dense route with this instance's projection order.
        """
        from repro.compute.columnar import ColumnarCubeAlgorithm
        for position, fn in enumerate(task.functions):
            if isinstance(fn, (Count, CountStar)):
                continue  # COUNT folds anything, like the numpy path
            for row in task.rows:
                value = task.agg_values(row)[position]
                if is_null_or_all(value):
                    continue
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool):
                    raise CubeError(
                        f"array cube needs numeric input for {fn.name}, "
                        f"got {value!r}")
        delegate = ColumnarCubeAlgorithm(
            mode="dense", force_python=True,
            projection_order=self.projection_order)
        result = delegate._compute(task)
        result.stats.algorithm = self.name
        result.stats.notes["backend"] = "python-columnar"
        return result

    @staticmethod
    def _fill_core(fn, inputs: list, flat_core: np.ndarray,
                   shape: tuple) -> _Accumulator:
        size = int(np.prod(shape))
        float_rows: list[int] = []
        if isinstance(fn, CountStar):
            accept_rows = list(range(len(inputs)))
            data = np.ones(len(inputs), dtype=np.float64)
        else:
            accept_rows = []
            numeric: list[float] = []
            for r, v in enumerate(inputs):
                if is_null_or_all(v):
                    continue
                if isinstance(fn, Count):
                    accept_rows.append(r)
                    numeric.append(1.0)
                    continue
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    raise CubeError(
                        f"array cube needs numeric input for {fn.name}, "
                        f"got {v!r}")
                if isinstance(fn, (Min, Max)) and isinstance(v, float) \
                        and math.isnan(v):
                    continue  # NaN never participates (_Extreme.accepts)
                accept_rows.append(r)
                numeric.append(float(v))
                if isinstance(v, float):
                    float_rows.append(r)
            data = np.array(numeric, dtype=np.float64)
        idx = (flat_core[np.array(accept_rows, dtype=np.int64)]
               if accept_rows else np.empty(0, dtype=np.int64))

        accepted = np.zeros(size, dtype=np.int64)
        np.add.at(accepted, idx, 1)
        floats = np.zeros(size, dtype=np.int64)
        np.add.at(floats, flat_core[np.array(float_rows, dtype=np.int64)], 1)

        if isinstance(fn, (Count, CountStar, Sum)):
            values = np.zeros(size, dtype=np.float64)
            np.add.at(values, idx, data)
            reducer = lambda a, axis: a.sum(axis=axis)  # noqa: E731
        elif isinstance(fn, Min):
            values = np.full(size, np.inf, dtype=np.float64)
            np.minimum.at(values, idx, data)
            reducer = lambda a, axis: a.min(axis=axis)  # noqa: E731
        else:  # Max
            values = np.full(size, -np.inf, dtype=np.float64)
            np.maximum.at(values, idx, data)
            reducer = lambda a, axis: a.max(axis=axis)  # noqa: E731
        return _Accumulator(fn, values.reshape(shape),
                            accepted.reshape(shape), floats.reshape(shape),
                            reducer, None)
