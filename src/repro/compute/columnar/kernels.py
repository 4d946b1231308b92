"""Fused grouped-aggregation kernels for the columnar backend.

Each kernel owns the dense per-group accumulator state for one
aggregate function and knows four operations:

- ``scatter(slots, column)``: fold every input row's value into the
  accumulator of its group code -- the vectorized image of the paper's
  ``Iter()`` loop.  Returns the number of values folded, which the
  algorithm reports as ``iter_calls``;
- ``fold_at(dst, src)``: merge each slot of ``src`` into the matching
  slot of ``dst``, in order -- the image of ``Iter_super()`` for a
  whole lattice node (one ``ufunc.at`` per array);
- ``project_np(...)``: merge a dense slab into its ALL slab, the dense
  path's axis projection;
- ``handles(slots)``: rebuild the owning aggregate function's
  *scratchpad handles* for a run of groups, reading each buffer once
  (``tolist()``).  The algorithms always finish through
  ``fn.end(handle)``, so kernels never re-implement Final() semantics
  -- they only accelerate Init/Iter/Iter_super.

The kernels run on numpy (``xp``, the module) over zero-copy views of
the batch's buffers.  Without numpy no kernel runs:
:func:`~repro.compute.columnar.core.kernel_positions` returns no
position and every consumer takes the row path.  The arithmetic runs
under ``errstate(invalid="ignore", over="ignore")``: ``inf + -inf`` and
an overflowing square are NaN and inf, silently, as on the row path.

An aggregate function opts in by naming a kernel in its
``vector_kernel`` class attribute (see
:class:`repro.aggregates.base.AggregateFunction`).  Functions without a
kernel -- holistic aggregates, UDAFs -- transparently stay on the row
path (see :mod:`repro.compute.columnar.algorithm`).
"""

from __future__ import annotations

from repro.aggregates.base import AggregateFunction

__all__ = ["KERNELS", "kernel_for", "kernel_needs_numeric", "make_state"]


#: the ufunc that merges one slot into another, per ``np_arrays`` mode
_UFUNCS = {"sum": "add", "min": "minimum", "max": "maximum"}


def _quiet(xp):
    """Silence the IEEE warnings the row path never raises."""
    return xp.errstate(invalid="ignore", over="ignore")


class _KernelState:
    """Shared scaffolding; subclasses fill in the per-kernel pieces."""

    #: does scatter need a float64 data buffer (False: validity only)?
    needs_numeric = True
    #: which rows scatter folds -- the image of the owning function's
    #: ``accepts()``: "valid" (non-NULL), "rows" (every row, COUNT(*))
    #: or "finite" (non-NULL and not NaN, MIN/MAX)
    accepts = "valid"

    def __init__(self, size: int, xp) -> None:
        self.size = size
        self.xp = xp
        #: numpy arrays to project on the dense path: (array, reduce mode)
        self.np_arrays: list[tuple] = []
        self._init()

    def _init(self) -> None:
        raise NotImplementedError

    def scatter(self, slots, column) -> int:
        raise NotImplementedError

    def fold_at(self, dst, src: range) -> None:
        """Merge slot ``src[k]`` into slot ``dst[k]`` for every ``k``, in
        ``k`` order (``dst`` repeats; ``src`` is a run of slots disjoint
        from every ``dst``).  numpy's ``ufunc.at`` applies a repeated
        index in index order, so a cell's parents merge in from-core's
        order."""
        with _quiet(self.xp):
            for array, mode in self.np_arrays:
                getattr(self.xp, _UFUNCS[mode]).at(
                    array, dst, array[src.start:src.stop])

    def handles(self, slots) -> list:
        """One scratchpad handle per slot of ``slots`` (a ``slice`` or a
        sequence of slots)."""
        raise NotImplementedError

    def handle(self, slot: int):
        return self.handles([slot])[0]

    @staticmethod
    def _take(buffer, slots) -> list:
        """``buffer[slots]`` as a list of python scalars."""
        return buffer[slots].tolist()

    def _scalars(self, buffer, slots) -> list:
        """The row path's scalar per slot from a float64 accumulator
        (needs ``cnt``/``fcnt``): ``None`` where no value was
        folded (SQL's empty SUM/MIN/MAX).  ``fcnt`` counts the
        *float-typed* values that reached each slot: with one the row
        path holds a float (``sum([1, 2.0])`` is ``3.0``), so integral
        results keep their ``.0``; with none every input was an int and
        the row path held an exact int."""
        xp = self.xp
        values = buffer[slots]
        counts = self.cnt[slots]
        exact = ((self.fcnt[slots] == 0) & (counts > 0)
                 & xp.isfinite(values) & (values == xp.trunc(values)))
        ints = xp.where(exact, values, 0).astype(xp.int64)
        return [None if count == 0 else whole if is_int else value
                for value, whole, count, is_int in zip(
                    values.tolist(), ints.tolist(), counts.tolist(),
                    exact.tolist())]

    def project_np(self, shape, axis: int, core, target) -> None:
        with _quiet(self.xp):
            for arr, mode in self.np_arrays:
                view = arr.reshape(shape)
                if mode == "sum":
                    # numpy's reduction starts at +0.0, which would turn
                    # a slab of -0.0 into 0.0; -0.0 changes nothing else
                    view[target] = view[core].sum(axis=axis, initial=-0.0)
                elif mode == "min":
                    view[target] = view[core].min(axis=axis)
                else:
                    view[target] = view[core].max(axis=axis)


class _CountStarState(_KernelState):
    """COUNT(*): every row counts, valid or not."""

    needs_numeric = False
    accepts = "rows"

    def _init(self) -> None:
        self.n = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.np_arrays = [(self.n, "sum")]

    def scatter(self, slots, column) -> int:
        self.xp.add.at(self.n, slots, 1)
        return int(slots.shape[0])

    def handles(self, slots) -> list:
        return self._take(self.n, slots)


class _CountState(_CountStarState):
    """COUNT(expr): count rows where the column is non-NULL."""

    accepts = "valid"

    def scatter(self, slots, column) -> int:
        idx = slots[column.valid_np(self.xp)]
        self.xp.add.at(self.n, idx, 1)
        return int(idx.shape[0])


class _SumState(_KernelState):
    """SUM: handle is None until a value is seen (SQL's empty-sum NULL).

    The accumulator starts at ``-0.0``, the IEEE additive
    identity: ``-0.0 + x`` is ``x`` for every ``x``, so a group of only
    ``-0.0`` sums to ``-0.0`` as the row path does (``+0.0`` would turn
    it into ``0.0``), and empty dense slots fold in as no-ops.  AVG
    keeps ``+0.0``: its row-path scratchpad starts at the int ``0``."""

    def _init(self) -> None:
        self.acc = self.xp.full(self.size, -0.0, dtype=self.xp.float64)
        self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.fcnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.np_arrays = [(self.acc, "sum"), (self.cnt, "sum"),
                          (self.fcnt, "sum")]

    def scatter(self, slots, column) -> int:
        xp = self.xp
        mask = column.valid_np(xp)
        idx = slots[mask]
        with _quiet(xp):
            xp.add.at(self.acc, idx, column.data_np(xp)[mask])
        xp.add.at(self.cnt, idx, 1)
        xp.add.at(self.fcnt, idx, column.floats_np(xp)[mask])
        return int(idx.shape[0])

    def handles(self, slots) -> list:
        return self._scalars(self.acc, slots)


class _ExtremeState(_KernelState):
    """Shared MIN/MAX state.  NaN rows are excluded from the scatter
    mask, mirroring ``_Extreme.accepts``.

    The decode restores the winner's type from the per-group float
    count, which is only unambiguous when the column doesn't mix int-
    and float-typed values, and ``np.minimum``/``np.maximum`` keep the
    later of two equal values where the row path keeps the first -- so
    :func:`~repro.compute.columnar.core.kernel_positions` keeps mixed
    columns and columns holding both zeros off these kernels."""

    _mode = "min"
    accepts = "finite"

    def _init(self) -> None:
        sentinel = self.xp.inf if self._mode == "min" else -self.xp.inf
        self.val = self.xp.full(self.size, sentinel, dtype=self.xp.float64)
        self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.fcnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.np_arrays = [(self.val, self._mode), (self.cnt, "sum"),
                          (self.fcnt, "sum")]

    def scatter(self, slots, column) -> int:
        xp = self.xp
        mask = column.valid_np(xp) & ~column.nan_np(xp)
        idx = slots[mask]
        data = column.data_np(xp)[mask]
        if self._mode == "min":
            xp.minimum.at(self.val, idx, data)
        else:
            xp.maximum.at(self.val, idx, data)
        xp.add.at(self.cnt, idx, 1)
        xp.add.at(self.fcnt, idx, column.floats_np(xp)[mask])
        return int(idx.shape[0])

    def handles(self, slots) -> list:
        return self._scalars(self.val, slots)


class _MinState(_ExtremeState):
    _mode = "min"


class _MaxState(_ExtremeState):
    _mode = "max"


class _AvgState(_KernelState):
    """AVG: rebuilds the paper's (sum, count) scratchpad per group."""

    def _init(self) -> None:
        self.acc = self.xp.zeros(self.size, dtype=self.xp.float64)
        self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.fcnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.np_arrays = [(self.acc, "sum"), (self.cnt, "sum"),
                          (self.fcnt, "sum")]

    def scatter(self, slots, column) -> int:
        xp = self.xp
        mask = column.valid_np(xp)
        idx = slots[mask]
        with _quiet(xp):
            xp.add.at(self.acc, idx, column.data_np(xp)[mask])
        xp.add.at(self.cnt, idx, 1)
        xp.add.at(self.fcnt, idx, column.floats_np(xp)[mask])
        return int(idx.shape[0])

    def handles(self, slots) -> list:
        return [(0, 0) if total is None else (total, count)
                for total, count in zip(self._scalars(self.acc, slots),
                                        self._take(self.cnt, slots))]


class _VarState(_KernelState):
    """VARIANCE/STDEV: accumulates and folds (count, sum, sum of
    squares) and rebuilds the Welford scratchpad only at the end --
    algebraically identical to the row path's Welford/Chan merge,
    rounded differently, which is why cross-path VARIANCE comparisons
    are approximate."""

    def _init(self) -> None:
        self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
        self.acc = self.xp.zeros(self.size, dtype=self.xp.float64)
        self.sumsq = self.xp.zeros(self.size, dtype=self.xp.float64)
        self.np_arrays = [(self.cnt, "sum"), (self.acc, "sum"),
                          (self.sumsq, "sum")]

    def scatter(self, slots, column) -> int:
        xp = self.xp
        mask = column.valid_np(xp)
        idx = slots[mask]
        data = column.data_np(xp)[mask]
        xp.add.at(self.cnt, idx, 1)
        with _quiet(xp):
            xp.add.at(self.acc, idx, data)
            xp.add.at(self.sumsq, idx, data * data)
        return int(idx.shape[0])

    def handles(self, slots) -> list:
        out = []
        for count, total, sumsq in zip(self._take(self.cnt, slots),
                                       self._take(self.acc, slots),
                                       self._take(self.sumsq, slots)):
            if count == 0:
                out.append((0, 0.0, 0.0))
                continue
            m2 = sumsq - total * total / count
            # float cancellation guard
            out.append((count, total / count, 0.0 if m2 < 0 else m2))
        return out


KERNELS: dict[str, type[_KernelState]] = {
    "count_star": _CountStarState,
    "count": _CountState,
    "sum": _SumState,
    "min": _MinState,
    "max": _MaxState,
    "avg": _AvgState,
    "var": _VarState,
}


def kernel_for(fn: AggregateFunction) -> str | None:
    """The registered kernel name for a function, or None if the
    function did not declare one (it stays on the row path)."""
    name = getattr(fn, "vector_kernel", None)
    return name if name in KERNELS else None


def kernel_needs_numeric(fn: AggregateFunction) -> bool:
    name = kernel_for(fn)
    return name is not None and KERNELS[name].needs_numeric


def make_state(name: str, size: int, xp) -> _KernelState:
    return KERNELS[name](size, xp)
