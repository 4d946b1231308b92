"""Dense N-dimensional array cube (Section 5).

"If possible, use arrays [...] to organize the aggregation columns in
memory, storing one aggregate value for each array entry. [...] Given
that the core is represented as an N-dimensional array in memory, each
dimension having size Ci+1, the N-1 dimensional slabs can be computed
by projecting (aggregating) one dimension of the core."

The plan is the columnar backend's dense route
(:class:`~repro.compute.columnar.ColumnarCubeAlgorithm` with
``mode="dense"``): each dimension's values are dictionary-encoded to
dense integers 0..Ci-1 (the paper's "hashed symbol table that maps each
string to an integer so the values become dense"), slot Ci is the ALL
slot, the kernels fill the core in one pass, and dimensions are
projected one at a time, smallest Ci first (the paper's efficiency
rule), so every super-aggregate level reuses the previous level's ALL
slabs.  The kernels run on numpy; without it the route's row-path
fallback (from-core) answers, as it does for every columnar cube.

This class is that route's pinned entry point with the paper's limits:
the distributive SQL aggregates (COUNT/COUNT(*)/SUM/MIN/MAX) over
numeric inputs -- exactly the class the paper says array projection
handles.  Anything else raises and the optimizer falls back.
"""

from __future__ import annotations

from repro.aggregates.distributive import Count, CountStar, Max, Min, Sum
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.columnar import ColumnarCubeAlgorithm
from repro.errors import CubeError
from repro.resilience import context as rctx
from repro.types import is_null_or_all

__all__ = ["ArrayCubeAlgorithm"]

_SUPPORTED = (Count, CountStar, Sum, Min, Max)


class ArrayCubeAlgorithm(CubeAlgorithm):
    """The Section 5 dense array plan, restricted to the functions and
    inputs the paper's array projection handles."""

    name = "array"

    def _compute(self, task: CubeTask) -> CubeResult:
        for position, fn in enumerate(task.functions):
            if not isinstance(fn, _SUPPORTED):
                raise CubeError(
                    f"array cube supports distributive COUNT/SUM/MIN/MAX, "
                    f"not {fn.name} (Section 5 limits array projection to "
                    "distributive functions)")
            if isinstance(fn, (Count, CountStar)):
                continue  # COUNT folds anything
            rctx.checkpoint("array input check")
            for row in task.rows:
                value = task.agg_values(row)[position]
                if is_null_or_all(value):
                    continue
                if not isinstance(value, (int, float)) or \
                        isinstance(value, bool):
                    raise CubeError(
                        f"array cube needs numeric input for {fn.name}, "
                        f"got {value!r}")
        result = ColumnarCubeAlgorithm(mode="dense")._compute(task)
        result.stats.algorithm = self.name
        return result
