"""Algorithm selection (the Section 5 trichotomy, made executable).

The paper's guidance, encoded:

- **holistic** functions (strict mode): "we know of no more efficient
  way [...] than the 2^N-algorithm" -- pick :class:`TwoNAlgorithm`;
- kernel-covered aggregates over enough rows that batching pays off:
  the vectorized **columnar** backend (which itself routes between the
  Section 5 dense array and the from-core fold);
- distributive COUNT/SUM/MIN/MAX over dimensions whose dense cube fits
  the budget: use the **array** technique;
- otherwise distributive/algebraic: compute **from the core**,
  smallest parent first;
- if even the core exceeds the memory budget: "partition the cube with
  a hash function" -- the **external** hybrid-hash algorithm.
"""

from __future__ import annotations

import math

from repro.compute.array_cube import ArrayCubeAlgorithm, _SUPPORTED
from repro.compute.base import CubeAlgorithm, CubeTask
from repro.compute.columnar import (
    COLUMNAR_ROW_THRESHOLD,
    ColumnarCubeAlgorithm,
    kernel_for,
    kernel_needs_numeric,
)
from repro.compute.external import ExternalCubeAlgorithm
from repro.compute.from_core import FromCoreAlgorithm
from repro.compute.naive_union import NaiveUnionAlgorithm
from repro.compute.parallel import ParallelCubeAlgorithm
from repro.compute.pipesort import PipeSortAlgorithm
from repro.compute.sort_cube import SortCubeAlgorithm
from repro.compute.twon import TwoNAlgorithm
from repro.cluster.algorithm import ClusterCubeAlgorithm
from repro.errors import CubeError
from repro.types import is_null_or_all

__all__ = ["ALGORITHMS", "choose_algorithm", "explain_choice"]


def _validate_budgets(memory_budget: int | None, dense_budget: int) -> None:
    """Match ``ExternalCubeAlgorithm.__init__``'s check at plan time, so
    a bad budget fails before any work rather than mid-selection."""
    if memory_budget is not None and memory_budget < 1:
        raise CubeError(
            f"memory_budget must be at least 1 cell, got {memory_budget}")
    if dense_budget < 1:
        raise CubeError(
            f"dense_budget must be at least 1 cell, got {dense_budget}")

#: Name -> zero-argument factory for every registered algorithm.
ALGORITHMS: dict[str, type[CubeAlgorithm]] = {
    "naive-union": NaiveUnionAlgorithm,
    "2^N": TwoNAlgorithm,
    "from-core": FromCoreAlgorithm,
    "array": ArrayCubeAlgorithm,
    "columnar": ColumnarCubeAlgorithm,
    "sort": SortCubeAlgorithm,
    "pipesort": PipeSortAlgorithm,
    "external": ExternalCubeAlgorithm,
    "parallel": ParallelCubeAlgorithm,
    # multi-process execution is never auto-chosen (process pools are a
    # deliberate deployment decision); pin it with algorithm="cluster"
    "cluster": ClusterCubeAlgorithm,
}


def _columnar_eligible(task: CubeTask) -> bool:
    """Every aggregate has a vector kernel (numeric inputs where the
    kernel demands them, sampled) and the scan is long enough that the
    batching overhead amortizes."""
    if len(task.rows) < COLUMNAR_ROW_THRESHOLD:
        return False
    if not all(kernel_for(fn) is not None for fn in task.functions):
        return False
    sample = task.rows[:256]
    for position, fn in enumerate(task.functions):
        if not kernel_needs_numeric(fn):
            continue
        for row in sample:
            value = row[task.n_dims + position]
            if is_null_or_all(value):
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
    return True


def _array_eligible(task: CubeTask, dense_budget: int) -> bool:
    if not all(isinstance(fn, _SUPPORTED) for fn in task.functions):
        return False
    sample = task.rows[:256]
    for row in sample:
        for value in task.agg_values(row):
            if is_null_or_all(value):
                continue
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return False
    cardinalities = task.cardinalities()
    dense_cells = math.prod(c + 1 for c in cardinalities)
    return dense_cells <= dense_budget


def _core_over_budget(task: CubeTask,
                      memory_budget: int | None) -> int | None:
    """The core's cell count when it exceeds ``memory_budget``, else
    None.  Counting the core is a full scan, so it only happens under a
    budget."""
    if memory_budget is None:
        return None
    core = len({task.dim_values(r) for r in task.rows})
    return core if core > memory_budget else None


def _decide(task: CubeTask, algorithm: str | None,
            memory_budget: int | None,
            dense_budget: int) -> tuple[str, str]:
    """The algorithm's name and the reason for it: a pinned name as is,
    else the first of the Section 5 rules that applies."""
    _validate_budgets(memory_budget, dense_budget)
    if algorithm is not None and algorithm != "auto":
        _factory(algorithm)  # an unknown name fails for EXPLAIN too
        return algorithm, "pinned by the caller"
    if not task.all_mergeable():
        bad = [fn.name for fn in task.functions if not fn.mergeable]
        return "2^N", (f"{bad} are holistic (no Iter_super), so only the "
                       "2^N-algorithm applies (Section 5)")
    core_estimate = _core_over_budget(task, memory_budget)
    if core_estimate is not None:
        return "external", (f"estimated core ({core_estimate} cells) "
                            f"exceeds the memory budget ({memory_budget}); "
                            "hybrid-hash partitioning required")
    if _columnar_eligible(task):
        return "columnar", ("every aggregate has a vector kernel and the "
                            f"scan ({len(task.rows)} rows) is long enough "
                            "to amortize batching "
                            f"(threshold {COLUMNAR_ROW_THRESHOLD})")
    if _array_eligible(task, dense_budget):
        return "array", ("distributive numeric aggregates over a dense "
                         f"cube within budget ({dense_budget} cells)")
    return "from-core", ("mergeable aggregates; compute the core once and "
                         "derive super-aggregates via Iter_super, smallest "
                         "parent first")


def choose_algorithm(task: CubeTask, *,
                     algorithm: str | None = None,
                     memory_budget: int | None = None,
                     dense_budget: int = 1 << 20) -> CubeAlgorithm:
    """The pinned ``algorithm`` or the Section 5 rules' pick, built with
    the caller's budgets."""
    name, _ = _decide(task, algorithm, memory_budget, dense_budget)
    if name == "columnar":
        return ColumnarCubeAlgorithm(dense_budget=dense_budget)
    if name == "external" and memory_budget is not None:
        return ExternalCubeAlgorithm(memory_budget=memory_budget)
    return make_algorithm(name)


def explain_choice(task: CubeTask, *,
                   algorithm: str | None = None,
                   memory_budget: int | None = None,
                   dense_budget: int = 1 << 20) -> str:
    """Human-readable rationale for :func:`choose_algorithm`."""
    return "{}: {}".format(*_decide(task, algorithm, memory_budget,
                                    dense_budget))


def _factory(name: str) -> type[CubeAlgorithm]:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise CubeError(
            f"unknown algorithm {name!r}; have {sorted(ALGORITHMS)}") from None


def make_algorithm(name: str, **kwargs) -> CubeAlgorithm:
    """Instantiate a registered algorithm by name."""
    return _factory(name)(**kwargs)
