"""PipeSort-style cube computation (the paper's [ADGNRS] reference).

Agrawal et al., "On the Computation of Multidimensional Aggregates"
(VLDB 1996) -- cited by the Data Cube paper -- refine sort-based cube
computation: the lattice is covered by *pipelines* (chains of grouping
sets sharing one sort order), and crucially each new pipeline sorts the
**result of an already-computed parent**, not the base table.  Since
"the super-aggregates are likely to be orders of magnitude smaller than
the core" (Section 5), those re-sorts are nearly free.

Compare :class:`~repro.compute.sort_cube.SortCubeAlgorithm`, which runs
the same chains but sorts base data for each -- rows_sorted there is
``chains x T``; here it is ``T + sum(|parent| per extra chain)``.

The chain cover is the symmetric chain decomposition (minimum number of
chains); each non-core chain is attached to the smallest already-
computed parent of its finest member (the Section 5 smallest-parent
rule applied to pipeline placement).
"""

from __future__ import annotations

from repro.aggregates.base import Handle
from repro.compute.base import CubeAlgorithm, CubeResult, CubeTask
from repro.compute.sort_cube import (
    greedy_chain_cover,
    symmetric_chain_decomposition,
)
from repro.core.grouping import Mask
from repro.core.lattice import CubeLattice
from repro.errors import NotMergeableError
from repro.obs import trace
from repro.resilience import context as rctx
from repro.types import sort_key_tuple

__all__ = ["PipeSortAlgorithm"]


class PipeSortAlgorithm(CubeAlgorithm):
    name = "pipesort"

    def _compute(self, task: CubeTask) -> CubeResult:
        self._require_mergeable(
            task, " -- sorts of parent results fold handles with Iter_super")
        stats = self._new_stats()
        n = task.n_dims
        mask_set = set(task.masks)
        if len(mask_set) == (1 << n):
            chains = symmetric_chain_decomposition(n)
        else:
            chains = greedy_chain_cover(list(task.masks))
        stats.notes["chains"] = len(chains)

        lattice = CubeLattice(task.dims, task.masks)
        # computed nodes: mask -> list of (coordinate, handles); kept to
        # serve as pipeline sources
        nodes: dict[Mask, list[tuple[tuple, list[Handle]]]] = {}

        # order chains so that every non-core chain's parent is ready:
        # by descending level of the chain head
        ordered = sorted(chains,
                         key=lambda chain: -bin(chain[-1]).count("1"))
        core_mask = lattice.core

        for chain in ordered:
            rctx.checkpoint("pipesort pipeline")
            head = chain[-1]  # finest member
            dim_order = self._chain_dim_order(task, chain)
            label = " > ".join(task.mask_label(m) for m in chain)
            if head == core_mask and core_mask not in nodes:
                with trace.span("cube.pipeline", members=label,
                                source="base", rows_sorted=len(task.rows)):
                    self._run_base_chain(task, chain, dim_order, nodes,
                                         stats)
            else:
                parent = self._smallest_ready_parent(lattice, head, nodes)
                with trace.span("cube.pipeline", members=label,
                                source=task.mask_label(parent),
                                rows_sorted=len(nodes[parent])):
                    self._run_parent_chain(task, chain, dim_order, parent,
                                           nodes, stats)

        if 0 in task.masks and not task.rows:
            nodes.setdefault(0, []).append(
                (task.coordinate(0, ()), task.new_handles(stats)))

        cells = []
        for mask in task.masks:
            for coordinate, handles in nodes.get(mask, []):
                cells.append((coordinate, task.finalize(handles, stats)))
        rctx.release_cells(sum(len(v) for v in nodes.values()))
        stats.cells_produced = len(cells)
        stats.observe_resident(sum(len(v) for v in nodes.values()))
        return CubeResult(table=task.result_table(cells), stats=stats)

    @staticmethod
    def _smallest_ready_parent(lattice: CubeLattice, head: Mask,
                               nodes: dict) -> Mask:
        """The smallest already-computed strict superset of ``head`` --
        the cheapest result this pipeline can sort."""
        candidates = [m for m in nodes
                      if m != head and (m & head) == head]
        if not candidates:
            raise NotMergeableError(
                f"no computed parent for pipeline head {head:#b}")
        return min(candidates, key=lambda m: (len(nodes[m]), m))

    @staticmethod
    def _chain_dim_order(task: CubeTask, chain: list[Mask]) -> list[int]:
        """The pipeline's sort order: coarsest member's dims first, each
        refinement's added dim appended -- every chain member is then a
        prefix of this order."""
        order: list[int] = []
        for mask in chain:
            for i in range(task.n_dims):
                if mask & (1 << i) and i not in order:
                    order.append(i)
        return order

    def _run_base_chain(self, task: CubeTask, chain: list[Mask],
                        dim_order: list[int],
                        nodes: dict, stats) -> None:
        """The first pipeline: sort the base table once, aggregate every
        chain member in the single sorted pass."""
        stats.base_scans += 1
        stats.sort_operations += 1
        stats.rows_sorted += len(task.rows)
        rows = sorted(task.rows,
                      key=lambda row: sort_key_tuple(
                          row[i] for i in dim_order))
        self._pipeline(task, chain, dim_order, nodes, stats,
                       source_rows=rows, source_handles=None)

    def _run_parent_chain(self, task: CubeTask, chain: list[Mask],
                          dim_order: list[int], parent: Mask,
                          nodes: dict, stats) -> None:
        """A later pipeline: sort the *parent's result cells* (small!)
        and fold handles down the chain."""
        cells = nodes[parent]
        stats.sort_operations += 1
        stats.rows_sorted += len(cells)  # the PipeSort saving
        ordered = sorted(cells,
                         key=lambda cell: sort_key_tuple(
                             cell[0][i] for i in dim_order))
        self._pipeline(task, chain, dim_order, nodes, stats,
                       source_rows=None, source_handles=ordered)

    def _pipeline(self, task: CubeTask, chain: list[Mask],
                  dim_order: list[int], nodes: dict, stats,
                  *, source_rows, source_handles) -> None:
        """One pass over a sorted source computing all chain members.

        ``source_rows`` (base data, folded with Iter) and
        ``source_handles`` (parent cells, folded with Iter_super) are
        mutually exclusive.
        """
        prefix_lens = [bin(mask).count("1") for mask in chain]
        open_keys: list[tuple | None] = [None] * len(chain)
        open_handles: list[list[Handle] | None] = [None] * len(chain)
        out: dict[Mask, list] = {mask: nodes.setdefault(mask, [])
                                 for mask in chain}

        def close(level: int) -> None:
            if open_handles[level] is None:
                return
            mask = chain[level]
            key = open_keys[level]
            values = dict(zip(dim_order, key))
            coordinate = task.coordinate(
                mask, tuple(values.get(i) for i in range(task.n_dims)))
            out[mask].append((coordinate, open_handles[level]))
            open_keys[level] = None
            open_handles[level] = None

        def feed(sort_values: tuple, fold) -> None:
            for level, prefix_len in enumerate(prefix_lens):
                key = sort_values[:prefix_len]
                if open_keys[level] != key or open_handles[level] is None:
                    close(level)
                    open_keys[level] = key
                    open_handles[level] = task.new_handles(stats)
                fold(open_handles[level])

        if source_rows is not None:
            for position, row in enumerate(source_rows):
                if position & 255 == 0:
                    rctx.checkpoint("pipesort scan")
                values = tuple(row[i] for i in dim_order)
                feed(values, lambda handles, row=row: task.fold_row(
                    handles, row, stats))
        else:
            for coordinate, handles in source_handles:
                values = tuple(coordinate[i] for i in dim_order)
                feed(values,
                     lambda target, source=handles: task.merge_handles(
                         target, source, stats))
        for level in range(len(chain)):
            close(level)
