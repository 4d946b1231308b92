"""Computing the cube from the core GROUP BY (Section 5).

"It is often faster to compute the super-aggregates from the core GROUP
BY, reducing the number of calls by approximately a factor of T."

One scan computes the core (the finest grouping set) keeping live
scratchpads.  The remaining grouping sets are then computed level by
level down the lattice: each node picks its **smallest parent** -- "the
algorithm will be most efficient if it aggregates the smaller of the
two; pick the * with the smallest Ci" -- and folds the parent's
scratchpads into its own with ``merge`` (the paper's ``Iter_super``).

Requires mergeable functions (distributive or algebraic; or holistic in
carrying mode, at unbounded scratchpad cost -- which the benchmarks use
to *show* why the paper declares holistic functions hopeless here).

The super-aggregate walk (pass 2) is exposed as module-level functions
(:func:`fold_super_aggregates`, :func:`finalize_nodes`) because the
partition engine (:mod:`repro.compute.parallel`) runs it over its
merged core.  The columnar sparse route walks the same lattice in the
same order on kernel arrays (:func:`smallest_computed_parent` picks
each node's parent there too), and its rows are identical to
``from-core``'s by test, in parent order
(``tests/test_columnar_sparse_referee.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.aggregates.base import Handle
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.stats import ComputeStats
from repro.core.grouping import Mask
from repro.core.lattice import CubeLattice
from repro.errors import NotMergeableError
from repro.obs import trace
from repro.resilience import context as rctx

__all__ = ["FromCoreAlgorithm", "finalize_nodes", "fold_core",
           "fold_super_aggregates", "smallest_computed_parent"]

#: One cell store per grouping set: coordinate -> live scratchpads.
Nodes = "dict[Mask, dict[tuple, list[Handle]]]"


def smallest_computed_parent(lattice: CubeLattice, mask: Mask,
                             nodes: dict,
                             parent_choice: str = "smallest") -> Mask:
    """The already-computed parent with the fewest actual cells
    (``nodes`` maps each computed grouping set to a sized collection of
    its cells).

    Uses measured parent sizes rather than estimates: by the time a
    node is processed, every parent one level up is computed, so the
    "smallest Ci" rule can use exact counts.  With
    ``parent_choice="first"`` the rule is ablated and the lowest-mask
    parent is used regardless of size.
    """
    candidates = [m for m in lattice.parents(mask) if m in nodes]
    if not candidates:
        raise NotMergeableError(
            f"grouping set {mask:#b} has no computed parent; "
            "the task's grouping sets do not form a connected lattice")
    if parent_choice == "first":
        return min(candidates)
    return min(candidates, key=lambda m: (len(nodes[m]), m))


def fold_core(task: CubeTask, rows: Sequence[tuple], core_mask: Mask,
              stats: ComputeStats) -> dict[tuple, list[Handle]]:
    """Pass 1 of the from-core strategy: the core GROUP BY of ``rows``
    with live scratchpads, one ``Iter`` per accepted value.  Cells come
    out in first-seen row order, each keyed by its first row's
    coordinate.  Shared by every row-path builder of a core: from-core
    itself, each external partition and each parallel worker."""
    core_cells: dict[tuple, list[Handle]] = {}
    for position, row in enumerate(rows):
        if position & 255 == 0:
            rctx.checkpoint("core scan")
        coordinate = task.coordinate(core_mask, task.dim_values(row))
        handles = core_cells.get(coordinate)
        if handles is None:
            handles = task.new_handles(stats)
            core_cells[coordinate] = handles
        task.fold_row(handles, row, stats)
    return core_cells


def fold_super_aggregates(task: CubeTask, nodes: dict,
                          stats: ComputeStats, *,
                          parent_choice: str = "smallest") -> None:
    """Pass 2 of the from-core strategy: walk the lattice downward from
    an already-computed core, merging each node from its smallest
    computed parent (``Iter_super``).

    ``nodes`` must hold the core grouping set's cells on entry; every
    other grouping set of the task is added.  Also records the peak
    scratchpad residency.
    """
    lattice = CubeLattice(task.dims, task.masks)
    core_mask = lattice.core
    for level_masks in lattice.by_level_descending():
        for mask in level_masks:
            if mask == core_mask:
                continue
            rctx.checkpoint("from-core lattice node")
            parent = smallest_computed_parent(lattice, mask, nodes,
                                              parent_choice)
            with trace.span("cube.node", dims=task.mask_label(mask),
                            parent_node=task.mask_label(parent),
                            parent_cells=len(nodes[parent])) as span:
                cells: dict[tuple, list[Handle]] = {}
                nodes[mask] = cells
                if mask == 0 and not task.rows:
                    # empty input still yields one global-total cell
                    cells[task.coordinate(0, ())] = task.new_handles(stats)
                for parent_coord, parent_handles in nodes[parent].items():
                    coordinate = task.coordinate(mask, parent_coord)
                    handles = cells.get(coordinate)
                    if handles is None:
                        handles = task.new_handles(stats)
                        cells[coordinate] = handles
                    task.merge_handles(handles, parent_handles, stats)
                span.set(cells=len(cells))
    if 0 in task.masks and not task.rows and 0 == core_mask:
        nodes[core_mask][task.coordinate(0, ())] = task.new_handles(stats)
    stats.observe_resident(sum(len(c) for c in nodes.values()))


def finalize_nodes(task: CubeTask, nodes: dict,
                   stats: ComputeStats) -> list[tuple]:
    """Final() every requested cell and release the scratchpad charge.

    Returns ``(coordinate, values)`` pairs for the task's grouping sets
    and sets ``stats.cells_produced``.
    """
    finalized = []
    for mask in task.masks:
        for coordinate, handles in nodes[mask].items():
            finalized.append((coordinate, task.finalize(handles, stats)))
    rctx.release_cells(sum(len(c) for c in nodes.values()))
    stats.cells_produced = len(finalized)
    return finalized


class FromCoreAlgorithm(CubeAlgorithm):
    """``parent_choice`` ablates the smallest-parent rule:

    - ``"smallest"`` (default): the paper's rule -- merge from the
      parent with the fewest cells;
    - ``"first"``: a fixed arbitrary parent (lowest mask), what a naive
      implementation would do.  The ablation bench measures the merge
      work the rule saves.
    """

    name = "from-core"

    def __init__(self, parent_choice: str = "smallest") -> None:
        if parent_choice not in ("smallest", "first"):
            # repro: allow-S004 -- constructor-arg validation (ValueError)
            raise ValueError(
                f"parent_choice must be smallest|first, got {parent_choice!r}")
        self.parent_choice = parent_choice

    def _compute(self, task: CubeTask) -> CubeResult:
        self._require_mergeable(
            task, " -- use the 2^N-algorithm (Section 5)")
        stats = self._new_stats()
        lattice = CubeLattice(task.dims, task.masks)
        core_mask = lattice.core

        # -- pass 1: the core GROUP BY, scratchpads kept live --------------
        with trace.span("cube.node", dims=task.mask_label(core_mask),
                        role="core", rows=len(task.rows)) as span:
            stats.base_scans = 1
            nodes = {core_mask: fold_core(task, task.rows, core_mask, stats)}
            span.set(cells=len(nodes[core_mask]))

        # -- pass 2: walk the lattice, smallest parent first ----------------
        fold_super_aggregates(task, nodes, stats,
                              parent_choice=self.parent_choice)
        finalized = finalize_nodes(task, nodes, stats)
        return CubeResult(table=task.result_table(finalized), stats=stats)
