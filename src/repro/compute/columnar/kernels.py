"""Fused grouped-aggregation kernels for the columnar backend.

Each kernel owns the dense per-group accumulator state for one
aggregate function and knows four operations:

- ``scatter(slots, column)``: fold every input row's value into the
  accumulator of its group code -- the vectorized image of the paper's
  ``Iter()`` loop.  Returns the number of values folded, which the
  algorithm reports as ``iter_calls``;
- ``fold_at(dst, src)``: merge each slot of ``src`` into the matching
  slot of ``dst``, in order -- the image of ``Iter_super()`` for a
  whole lattice node (one ``ufunc.at`` per array on numpy, one
  ``fold(dst, src)`` per slot pair on pure python);
- ``project_np(...)``: merge a dense slab into its ALL slab, the dense
  path's axis projection on numpy (pure python folds slot by slot);
- ``handles(slots)``: rebuild the owning aggregate function's
  *scratchpad handles* for a run of groups, reading each buffer once
  (``tolist()`` on numpy).  The algorithms always finish through
  ``fn.end(handle)``, so kernels never re-implement Final() semantics
  -- they only accelerate Init/Iter/Iter_super.

Every kernel has a pure-python implementation over stdlib buffers and a
numpy implementation over zero-copy views of the same buffers; ``xp``
(the numpy module, or None) picks the backend at construction time.

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

    def fold(self, dst: int, src: int) -> None:
        """Pure-python slot merge."""
        raise NotImplementedError

    def fold_at(self, dst, src: range) -> None:
        """Merge slot ``src[k]`` into slot ``dst[k]`` for every ``k``, in
        ``k`` order (``dst`` repeats; ``src`` is a run of slots disjoint
        from every ``dst``).  numpy's ``ufunc.at`` applies a repeated
        index in index order, as the pure-python loop does, so both
        backends merge a cell's parents in the same order."""
        if self.xp is None:
            fold = self.fold
            for target, source in zip(dst, src):
                fold(target, source)
            return
        for array, mode in self.np_arrays:
            getattr(self.xp, _UFUNCS[mode]).at(
                array, dst, array[src.start:src.stop])

    def handles(self, slots) -> list:
        """One scratchpad handle per slot of ``slots`` (a ``slice`` or a
        sequence of slots)."""
        raise NotImplementedError

    def handle(self, slot: int):
        return self.handles([slot])[0]

    def _take(self, buffer, slots) -> list:
        """``buffer[slots]`` as a list of python scalars."""
        if self.xp is not None:
            return buffer[slots].tolist()
        if isinstance(slots, slice):
            return buffer[slots]
        return [buffer[slot] for slot in slots]

    def _scalars(self, buffer, slots) -> list:
        """The row path's scalar per slot from a float64 accumulator
        (numpy; needs ``cnt``/``fcnt``): ``None`` where no value was
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
        for arr, mode in self.np_arrays:
            view = arr.reshape(shape)
            if mode == "sum":
                # numpy's reduction starts at +0.0, which would turn a
                # slab of -0.0 into 0.0; -0.0 changes nothing else
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
        if self.xp is None:
            self.n = [0] * self.size
        else:
            self.n = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.np_arrays = [(self.n, "sum")]

    def scatter(self, slots, column) -> int:
        if self.xp is None:
            n = self.n
            for code in slots:
                n[code] += 1
            return len(slots)
        self.xp.add.at(self.n, slots, 1)
        return int(slots.shape[0])

    def fold(self, dst: int, src: int) -> None:
        self.n[dst] += self.n[src]

    def handles(self, slots) -> list:
        return self._take(self.n, slots)


class _CountState(_CountStarState):
    """COUNT(expr): count rows where the column is non-NULL."""

    accepts = "valid"

    def scatter(self, slots, column) -> int:
        if self.xp is None:
            n = self.n
            valid = column.valid
            folds = 0
            for i, code in enumerate(slots):
                if valid[i]:
                    n[code] += 1
                    folds += 1
            return folds
        idx = slots[column.valid_np(self.xp)]
        self.xp.add.at(self.n, idx, 1)
        return int(idx.shape[0])


class _SumState(_KernelState):
    """SUM: handle is None until a value is seen (SQL's empty-sum NULL).

    The numpy accumulator starts at ``-0.0``, the IEEE additive
    identity: ``-0.0 + x`` is ``x`` for every ``x``, so a group of only
    ``-0.0`` sums to ``-0.0`` as the row path does (``+0.0`` would turn
    it into ``0.0``), and empty dense slots fold in as no-ops.  AVG
    keeps ``+0.0``: its row-path scratchpad starts at the int ``0``."""

    def _init(self) -> None:
        if self.xp is None:
            self.acc: list = [None] * self.size
        else:
            self.acc = self.xp.full(self.size, -0.0, dtype=self.xp.float64)
            self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.fcnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.np_arrays = [(self.acc, "sum"), (self.cnt, "sum"),
                              (self.fcnt, "sum")]

    def scatter(self, slots, column) -> int:
        if self.xp is None:
            acc = self.acc
            raw = column.raw
            valid = column.valid
            folds = 0
            for i, code in enumerate(slots):
                if valid[i]:
                    value = raw[i]
                    current = acc[code]
                    acc[code] = value if current is None else current + value
                    folds += 1
            return folds
        mask = column.valid_np(self.xp)
        idx = slots[mask]
        self.xp.add.at(self.acc, idx, column.data_np(self.xp)[mask])
        self.xp.add.at(self.cnt, idx, 1)
        self.xp.add.at(self.fcnt, idx, column.floats_np(self.xp)[mask])
        return int(idx.shape[0])

    def fold(self, dst: int, src: int) -> None:
        value = self.acc[src]
        if value is None:
            return
        current = self.acc[dst]
        self.acc[dst] = value if current is None else current + value

    def handles(self, slots) -> list:
        if self.xp is None:
            return self._take(self.acc, slots)
        return self._scalars(self.acc, slots)


class _ExtremeState(_KernelState):
    """Shared MIN/MAX state.  NaN rows are excluded from the scatter
    mask, mirroring ``_Extreme.accepts``; strict comparison keeps the
    first-seen value on ties, matching ``_better``.

    The numpy decode restores the winner's type from the per-group
    float count, which is only unambiguous when the column doesn't mix
    int- and float-typed values -- the algorithm keeps mixed columns
    off the numpy extreme kernels (``AggColumn.mixed_number_types``)."""

    _mode = "min"
    accepts = "finite"

    def _init(self) -> None:
        if self.xp is None:
            self.best: list = [None] * self.size
        else:
            sentinel = self.xp.inf if self._mode == "min" else -self.xp.inf
            self.val = self.xp.full(self.size, sentinel,
                                    dtype=self.xp.float64)
            self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.fcnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.np_arrays = [(self.val, self._mode), (self.cnt, "sum"),
                              (self.fcnt, "sum")]

    def _wins(self, challenger, incumbent) -> bool:
        raise NotImplementedError

    def scatter(self, slots, column) -> int:
        if self.xp is None:
            best = self.best
            raw = column.raw
            valid = column.valid
            nan = column.nan
            folds = 0
            for i, code in enumerate(slots):
                if valid[i] and not nan[i]:
                    value = raw[i]
                    incumbent = best[code]
                    if incumbent is None or self._wins(value, incumbent):
                        best[code] = value
                    folds += 1
            return folds
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

    def fold(self, dst: int, src: int) -> None:
        value = self.best[src]
        if value is None:
            return
        incumbent = self.best[dst]
        if incumbent is None or self._wins(value, incumbent):
            self.best[dst] = value

    def handles(self, slots) -> list:
        if self.xp is None:
            return self._take(self.best, slots)
        return self._scalars(self.val, slots)


class _MinState(_ExtremeState):
    _mode = "min"

    def _wins(self, challenger, incumbent) -> bool:
        return challenger < incumbent


class _MaxState(_ExtremeState):
    _mode = "max"

    def _wins(self, challenger, incumbent) -> bool:
        return challenger > incumbent


class _AvgState(_KernelState):
    """AVG: rebuilds the paper's (sum, count) scratchpad per group."""

    def _init(self) -> None:
        if self.xp is None:
            self.sums: list = [0] * self.size
            self.counts = [0] * self.size
        else:
            self.acc = self.xp.zeros(self.size, dtype=self.xp.float64)
            self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.fcnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.np_arrays = [(self.acc, "sum"), (self.cnt, "sum"),
                              (self.fcnt, "sum")]

    def scatter(self, slots, column) -> int:
        if self.xp is None:
            sums = self.sums
            counts = self.counts
            raw = column.raw
            valid = column.valid
            folds = 0
            for i, code in enumerate(slots):
                if valid[i]:
                    sums[code] += raw[i]
                    counts[code] += 1
                    folds += 1
            return folds
        mask = column.valid_np(self.xp)
        idx = slots[mask]
        self.xp.add.at(self.acc, idx, column.data_np(self.xp)[mask])
        self.xp.add.at(self.cnt, idx, 1)
        self.xp.add.at(self.fcnt, idx, column.floats_np(self.xp)[mask])
        return int(idx.shape[0])

    def fold(self, dst: int, src: int) -> None:
        self.sums[dst] += self.sums[src]
        self.counts[dst] += self.counts[src]

    def handles(self, slots) -> list:
        if self.xp is None:
            return list(zip(self._take(self.sums, slots),
                            self._take(self.counts, slots)))
        return [(0, 0) if total is None else (total, count)
                for total, count in zip(self._scalars(self.acc, slots),
                                        self._take(self.cnt, slots))]


class _VarState(_KernelState):
    """VARIANCE/STDEV.

    The python backend runs Welford in row order and merges with Chan's
    update, so its (count, mean, M2) handles are bit-identical to the
    row path.  The numpy backend accumulates and folds (count, sum, sum
    of squares) and rebuilds the Welford scratchpad only at the end --
    algebraically identical, rounded differently, which is why
    cross-path VARIANCE comparisons are approximate.
    """

    def _init(self) -> None:
        if self.xp is None:
            self.counts = [0] * self.size
            self.means = [0.0] * self.size
            self.m2s = [0.0] * self.size
        else:
            self.cnt = self.xp.zeros(self.size, dtype=self.xp.int64)
            self.acc = self.xp.zeros(self.size, dtype=self.xp.float64)
            self.sumsq = self.xp.zeros(self.size, dtype=self.xp.float64)
            self.np_arrays = [(self.cnt, "sum"), (self.acc, "sum"),
                              (self.sumsq, "sum")]

    def scatter(self, slots, column) -> int:
        if self.xp is None:
            counts = self.counts
            means = self.means
            m2s = self.m2s
            raw = column.raw
            valid = column.valid
            folds = 0
            for i, code in enumerate(slots):
                if valid[i]:
                    value = raw[i]
                    count = counts[code] + 1
                    counts[code] = count
                    delta = value - means[code]
                    mean = means[code] + delta / count
                    means[code] = mean
                    m2s[code] += delta * (value - mean)
                    folds += 1
            return folds
        mask = column.valid_np(self.xp)
        idx = slots[mask]
        data = column.data_np(self.xp)[mask]
        self.xp.add.at(self.cnt, idx, 1)
        self.xp.add.at(self.acc, idx, data)
        self.xp.add.at(self.sumsq, idx, data * data)
        return int(idx.shape[0])

    def fold(self, dst: int, src: int) -> None:
        # Chan's parallel update, exactly as Variance.merge performs it
        count_b = self.counts[src]
        if count_b == 0:
            return
        count_a = self.counts[dst]
        if count_a == 0:
            self.counts[dst] = count_b
            self.means[dst] = self.means[src]
            self.m2s[dst] = self.m2s[src]
            return
        count = count_a + count_b
        delta = self.means[src] - self.means[dst]
        self.means[dst] += delta * count_b / count
        self.m2s[dst] = (self.m2s[dst] + self.m2s[src]
                         + delta * delta * count_a * count_b / count)
        self.counts[dst] = count

    def handles(self, slots) -> list:
        if self.xp is None:
            return list(zip(self._take(self.counts, slots),
                            self._take(self.means, slots),
                            self._take(self.m2s, slots)))
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
