"""Cube computation algorithms (Section 5 of the paper).

Every algorithm consumes a :class:`~repro.compute.base.CubeTask` and
produces the identical bag of result rows (cross-checked by the
property-based tests) while reporting machine-independent cost counters
(:class:`~repro.compute.stats.ComputeStats`) so the paper's cost claims
can be verified exactly:

- :class:`NaiveUnionAlgorithm` -- one GROUP BY per grouping set,
  unioned; 2^N scans of the base data (the Section 2 strawman).
- :class:`TwoNAlgorithm` -- the paper's "2^N-algorithm": one scan, each
  input tuple applied to every matching cell; T x 2^N Iter() calls.
- :class:`FromCoreAlgorithm` -- compute the core GROUP BY once, then
  derive each super-aggregate from its *smallest parent* by merging
  scratchpads (Iter_super); needs mergeable (distributive/algebraic)
  functions.
- :class:`ArrayCubeAlgorithm` -- the Section 5 dense N-dimensional
  array for distributive functions over numeric inputs, projecting one
  dimension at a time, smallest first: the columnar backend's dense
  route, pinned.
- :class:`SortCubeAlgorithm` -- sort-based: covers the cube lattice
  with rollup *chains* (symmetric chain decomposition), one sort per
  chain, pipelined prefix aggregation.
- :class:`ExternalCubeAlgorithm` -- memory-bounded hybrid-hash
  partitioning: partition the input, cube each partition's core, merge;
  super-aggregates stay in memory as the paper observes they fit.
- :class:`ParallelCubeAlgorithm` -- partition-parallel core GROUP BYs
  merged with Iter_super, the parallel-database pattern of Section 5
  (the thread runner of the engine the cluster backend shares).
- :class:`ColumnarCubeAlgorithm` -- vectorized columnar backend: typed
  column batches, dictionary-encoded dimensions, fused grouped kernels
  (numpy; without it the whole cube runs on the row path); holistic
  functions and UDAFs transparently stay on the row path.
"""

from repro.compute.stats import ComputeStats
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask, build_task
from repro.compute.naive_union import NaiveUnionAlgorithm
from repro.compute.twon import TwoNAlgorithm
from repro.compute.from_core import FromCoreAlgorithm
from repro.compute.array_cube import ArrayCubeAlgorithm
from repro.compute.sort_cube import SortCubeAlgorithm
from repro.compute.external import ExternalCubeAlgorithm
from repro.compute.parallel import ParallelCubeAlgorithm
from repro.compute.pipesort import PipeSortAlgorithm
from repro.compute.columnar import ColumnarCubeAlgorithm
from repro.compute.optimizer import choose_algorithm, ALGORITHMS
from repro.compute.view_selection import (
    PartialCube,
    greedy_select,
    view_sizes,
)

__all__ = [
    "ALGORITHMS",
    "ArrayCubeAlgorithm",
    "ColumnarCubeAlgorithm",
    "ComputeStats",
    "CubeAlgorithm",
    "CubeResult",
    "CubeTask",
    "ExternalCubeAlgorithm",
    "FromCoreAlgorithm",
    "NaiveUnionAlgorithm",
    "ParallelCubeAlgorithm",
    "PartialCube",
    "PipeSortAlgorithm",
    "SortCubeAlgorithm",
    "TwoNAlgorithm",
    "build_task",
    "choose_algorithm",
    "greedy_select",
    "view_sizes",
]
