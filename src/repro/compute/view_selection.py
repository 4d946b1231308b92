"""Materializing a *subset* of the cube: greedy view selection.

Section 6 points at Harinarayan, Rajaraman, and Ullman's "Implementing
Data Cubes Efficiently" (SIGMOD 1996) for "pre-computing sub-cubes of
the cube".  This module implements that idea on our lattice:

- :func:`view_sizes` measures the exact row count of every grouping set
  (the "view") of a fact table;
- :func:`greedy_select` is the HRU greedy algorithm: starting from the
  core (always materialized -- it is the finest view and every query
  can be answered from it), repeatedly materialize the view with the
  largest *benefit*, where the benefit of view ``w`` is the total
  row-count saving it brings to every view that would now be computed
  from ``w`` instead of its current cheapest materialized ancestor;
- :class:`PartialCube` materializes the selected views and answers any
  grouping-set query from the smallest materialized ancestor, counting
  the rows scanned so policies can be compared on work done rather than
  wall time alone.  :meth:`PartialCube.answer` is also the answering
  engine behind the serving layer's semantic cuboid cache
  (:mod:`repro.serve.cache`): a repeated or coarser query folds a
  stored cuboid instead of rescanning the fact table.

A :class:`PartialCube` is built the way Section 5 builds any cube -- one
base scan aggregates the core, everything else is ``Iter_super`` from
it -- and the core scan is the columnar engine's
(:func:`repro.compute.columnar.core.core_scratchpads`: dictionary
codes selected from the source table's encoded image, fused kernels,
plain scratchpad handles out).  Only aggregates
without an exact kernel (carrying holistics, sketches, UDAFs,
non-numeric inputs, the Welford family) are folded row by row.  The
view sizes the planner needs are the distinct projections of the core's
coordinates, so no second pass over the rows measures them, and the
rows themselves are released once the core exists.

Works for distributive and algebraic aggregates (answering from an
ancestor is an Iter_super fold); holistic functions would need the base
data, which is exactly the HRU paper's assumption the Gray et al. text
questions ("assuming all functions are holistic ... our view is that
users avoid holistic functions").
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

from repro.aggregates.base import Handle
from repro.compute import delta
from repro.compute.base import CubeTask, build_task, source_task_row
from repro.compute.columnar.batch import ColumnBatch, numpy_backend
from repro.compute.columnar.core import core_scratchpads, kernel_positions
from repro.compute.columnar.kernels import kernel_for
from repro.compute.stats import ComputeStats
from repro.core.grouping import Mask, cube_sets, mask_to_names
from repro.core.lattice import CubeLattice
from repro.engine.groupby import AggregateSpec
from repro.engine.table import Table
from repro.errors import (
    CubeError,
    DeltaRequiresInvalidationError,
    NotMergeableError,
)
from repro.obs import instrument, trace
from repro.resilience import context as rctx

__all__ = ["view_sizes", "greedy_select", "PartialCube"]


def view_sizes(task: CubeTask, *,
               stats: ComputeStats | None = None) -> dict[Mask, int]:
    """Exact row count of every grouping set in ``task.masks``.

    One pass over the fact table counts distinct coordinates for every
    mask simultaneously.  The result is memoized on the task, so the
    call sites that plan against the same task (selection, benchmarks)
    share a single scan instead of each silently rescanning the fact
    table.  (:class:`PartialCube` does not call this: it sizes its views
    from the core cells it has built anyway.)  When ``stats`` is given, the
    scan that actually happens is recorded on it (``base_scans`` plus a
    ``view_sizes_rows`` note); a memo hit records nothing, because no
    work was done.
    """
    cached = getattr(task, "_view_sizes_memo", None)
    if cached is not None:
        return dict(cached)
    seen: dict[Mask, set] = {mask: set() for mask in task.masks}
    for row in task.rows:
        dim_values = task.dim_values(row)
        for mask in task.masks:
            seen[mask].add(task.coordinate(mask, dim_values))
    sizes = {mask: max(1, len(coords)) for mask, coords in seen.items()}
    task._view_sizes_memo = dict(sizes)  # type: ignore[attr-defined]
    if stats is not None:
        stats.base_scans += 1
        stats.notes["view_sizes_rows"] = len(task.rows)
    return sizes


def _cheapest_ancestor(mask: Mask, materialized: set[Mask],
                       sizes: dict[Mask, int],
                       lattice: CubeLattice) -> Mask:
    """The smallest materialized view a query on ``mask`` can use."""
    candidates = [m for m in materialized
                  if (m & mask) == mask]  # m is finer or equal
    if not candidates:
        raise CubeError(f"no materialized ancestor for mask {mask:#b}")
    return min(candidates, key=lambda m: (sizes[m], m))


def greedy_select(sizes: dict[Mask, int], k: int, *,
                  dims: Sequence[str]) -> list[Mask]:
    """HRU greedy: pick ``k`` views beyond the core.

    Returns the materialized set (core first).  Benefit of view ``w``:
    for every view ``u`` that ``w`` can answer (``u`` coarser-or-equal),
    the saving ``max(0, cost(u) - size(w))`` where ``cost(u)`` is the
    size of u's current cheapest materialized ancestor.
    """
    lattice = CubeLattice(dims, list(sizes))
    core = lattice.core
    materialized: list[Mask] = [core]
    chosen = set(materialized)

    for _ in range(k):
        best_view: Mask | None = None
        best_benefit = 0
        for candidate in sizes:
            if candidate in chosen:
                continue
            benefit = 0
            for target in sizes:
                if (candidate & target) != target:
                    continue  # candidate cannot answer target
                current = _cheapest_ancestor(target, chosen, sizes,
                                             lattice)
                saving = sizes[current] - sizes[candidate]
                if saving > 0:
                    benefit += saving
            if benefit > best_benefit or (benefit == best_benefit
                                          and benefit > 0
                                          and best_view is not None
                                          and candidate < best_view):
                best_benefit = benefit
                best_view = candidate
        if best_view is None:
            break  # no remaining view helps
        chosen.add(best_view)
        materialized.append(best_view)
    return materialized


class PartialCube:
    """A cube materialized only at selected grouping sets.

    Queries for *any* grouping set are answered by folding the smallest
    materialized ancestor (Iter_super), the HRU execution model.
    ``stats.iter_calls`` counts base-row folds, ``stats.merge_calls``
    the ancestor-cell folds per query, so policies can be compared on
    work done rather than wall time alone.

    ``universe`` restricts the lattice the cube plans over: the masks
    whose sizes are measured and which :func:`greedy_select` may pick.
    It defaults to the full 2^N power set (the HRU setting); the
    serving cache passes just the query's grouping sets plus the core,
    so admitting a plain GROUP BY does not pay a 2^N planning pass.
    Any mask over the dimensions can still be *answered* -- the core is
    always materialized and is an ancestor of everything.
    """

    def __init__(self, table: Table, dims: Sequence,
                 aggregates: Sequence[AggregateSpec], *,
                 materialize: Sequence[Mask] | None = None,
                 budget: int | None = None,
                 universe: Sequence[Mask] | None = None) -> None:
        n_dims = len(list(dims))
        if universe is None:
            universe = cube_sets(n_dims)
        full = (1 << n_dims) - 1
        # the full mask anchors the lattice (every mask's ancestor), and
        # explicitly materialized views must be measurable
        universe = list(dict.fromkeys(
            [full, *universe, *(materialize or ())]))
        # retained so apply_delta can evaluate streamed source rows into
        # task rows (source_task_row) exactly the way build_task did
        from repro.engine.groupby import normalize_keys
        self._normalized = normalize_keys(dims)
        self._specs = list(aggregates)
        self._source_names = tuple(table.schema.names)
        self._task = build_task(table, dims, list(aggregates), universe)
        if not self._task.all_mergeable():
            bad = [fn.name for fn in self._task.functions
                   if not fn.mergeable]
            raise NotMergeableError(
                f"partial cubes need mergeable scratchpads; {bad} are "
                "holistic in strict mode")
        self.stats = ComputeStats(algorithm="partial-cube")
        self._lattice = CubeLattice(self._task.dims, universe)
        self._views: dict[Mask, dict[tuple, list[Handle]]] = {}
        #: per-view contributing-row count per cell; what lets a delta
        #: DELETE know when a cell's underlying set became empty
        self._counts: dict[Mask, dict[tuple, int]] = {}
        #: per-view, per-cell accepted-value count per aggregate
        #: position: when a position's count hits zero under deletes the
        #: scratchpad is reset to ``start()`` -- the canonical empty
        #: handle -- so SUM over a cell whose non-NULL values all left
        #: finalizes to NULL exactly like a cold recompute
        self._accepted: dict[Mask, dict[tuple, list[int]]] = {}

        started = time.perf_counter()
        input_rows = len(self._task.rows)
        self._build_core()
        # every view is a projection of the core, so its exact row count
        # is the number of distinct projected core coordinates -- the
        # numbers view_sizes() measures from the rows, without the scan.
        # Views about to be materialized are sized as they are built.
        core_mask = self._lattice.core
        core = self._views[core_mask]
        self.sizes: dict[Mask, int] = {core_mask: max(1, len(core))}
        for mask in universe:
            if mask != core_mask and mask not in (materialize or ()):
                self.sizes[mask] = max(1, len(set(map(
                    self._task.projector(mask), core))))
        if materialize is None:
            k = budget if budget is not None else len(universe) // 4
            materialize = greedy_select(self.sizes, k,
                                        dims=self._task.dims)
        self.materialized: tuple[Mask, ...] = tuple(dict.fromkeys(
            [core_mask, *materialize]))
        self._materialize()
        # nothing reads the fact rows once the core exists: answers fold
        # views and deltas arrive as their own rows; nor the table they
        # came from (a cache entry must not pin the table or its image)
        self._task.rows = []
        self._task.source = None
        self.stats.cells_produced = self.materialized_rows
        # a partial-cube build is a cube computation: meter it like one,
        # so cold builds and warm answers land in the same catalogue
        # (repro_cube_rows_scanned_total vs repro_view_rows_scanned_total)
        instrument.record_cube_compute(
            self.stats, time.perf_counter() - started,
            input_rows=input_rows)

    def _build_core(self) -> None:
        """The one base scan: the core GROUP BY on the columnar kernels
        (:func:`~repro.compute.columnar.core.core_scratchpads`), plus a
        row fold for the *residual* positions no kernel builds."""
        task = self._task
        core_mask = self._lattice.core
        self.stats.base_scans += 1
        xp = numpy_backend()
        with trace.span("cube.batch", rows=len(task.rows),
                        backend="numpy" if xp is not None else "python"):
            batch = ColumnBatch.from_task(task)
        # the numpy VAR kernel rebuilds Welford scratchpads from sums of
        # squares: algebraically equal, rounded differently from the row
        # fold deltas keep applying -- so the family stays residual
        kernel_built = [p for p in kernel_positions(task.functions, batch, xp)
                        if kernel_for(task.functions[p]) != "var"]
        cells = core_scratchpads(
            task, batch,
            [batch.aggs[p] if p in kernel_built else None
             for p in range(task.n_aggs)],
            core_mask, xp, self.stats)
        accepted = cells.accepted_counts()
        residual = [(p, task.functions[p]) for p in range(task.n_aggs)
                    if p not in kernel_built]
        if residual:
            n_dims = task.n_dims
            gids = cells.gids
            for position, row in enumerate(task.rows):
                if position % 256 == 0:
                    rctx.checkpoint("partial-cube build")
                gid = gids[position]
                handles = cells.handles[gid]
                for p, fn in residual:
                    value = row[n_dims + p]
                    if fn.accepts(value):
                        handles[p] = fn.next(handles[p], value)
                        accepted[gid][p] += 1
                        self.stats.iter_calls += 1
        self._views[core_mask] = dict(zip(cells.coordinates, cells.handles))
        self._counts[core_mask] = dict(zip(cells.coordinates,
                                           cells.row_counts()))
        self._accepted[core_mask] = dict(zip(cells.coordinates, accepted))

    def _materialize(self) -> None:
        """Fold the chosen views coarse-from-fine, each from its
        cheapest already-materialized ancestor: handles, row counts and
        accepted-value counts in one pass over the ancestor's cells."""
        task = self._task
        for mask in sorted(self.materialized,
                           key=lambda m: -bin(m).count("1")):
            if mask in self._views:
                continue
            rctx.checkpoint("partial-cube materialize")
            source_mask = _cheapest_ancestor(
                mask, set(self._views), self.sizes, self._lattice)
            source_counts = self._counts[source_mask]
            source_accepted = self._accepted[source_mask]
            project = task.projector(mask)
            view: dict[tuple, list[Handle]] = {}
            counts: dict[tuple, int] = {}
            accepted: dict[tuple, list[int]] = {}
            for coordinate, handles in self._views[source_mask].items():
                target = project(coordinate)
                into = view.get(target)
                if into is None:
                    into = view[target] = task.new_handles(self.stats)
                    counts[target] = 0
                    accepted[target] = [0] * task.n_aggs
                task.merge_handles(into, handles, self.stats)
                counts[target] += source_counts[coordinate]
                sums = accepted[target]
                for index, n in enumerate(source_accepted[coordinate]):
                    sums[index] += n
            self._views[mask] = view
            self._counts[mask] = counts
            self._accepted[mask] = accepted
            self.sizes[mask] = max(1, len(view))

    def _fold_down(self, source_mask: Mask,
                   target_mask: Mask) -> dict[tuple, list[Handle]]:
        task = self._task
        project = task.projector(target_mask)
        out: dict[tuple, list[Handle]] = {}
        for coordinate, handles in self._views[source_mask].items():
            target_coord = project(coordinate)
            target = out.get(target_coord)
            if target is None:
                target = task.new_handles(self.stats)
                out[target_coord] = target
            task.merge_handles(target, handles, self.stats)
        return out

    @property
    def materialized_rows(self) -> int:
        """Total stored cells -- the space cost of the selection."""
        return sum(len(view) for view in self._views.values())

    # -- streaming maintenance (Section 6) ---------------------------------

    def apply_delta(self, inserts: Sequence[tuple] = (),
                    deletes: Sequence[tuple] = ()) -> int:
        """Fold a batch of raw source rows into every materialized view
        -- Section 6 maintenance applied to the HRU selection, run by
        :mod:`repro.compute.delta`.  A delete that hits a NaN or a
        delete-holistic scratchpad (the departing MIN/MAX extreme)
        raises :class:`~repro.errors.DeltaRequiresInvalidationError`
        **before any state changed**, so the caller (the serve cache)
        can fall back to invalidation on a still-consistent cube.

        Returns the number of cells touched across all views.
        """
        task = self._task
        if not inserts and not deletes:
            return 0
        for fn in task.functions:
            if not fn.delta_exact:
                # order-sensitive scratchpads (approximate sketches)
                # would merge to a value a cold rebuild never produces
                raise DeltaRequiresInvalidationError(
                    f"{fn.name or type(fn).__name__} is not delta-exact: "
                    "folding a delta cannot reproduce a cold recompute "
                    "bit-for-bit")
        cells = delta.Cells(self._views, self._counts, self._accepted)
        staged = delta.stage(
            task, cells,
            [source_task_row(self._source_names, self._normalized,
                             self._specs, row) for row in inserts],
            [source_task_row(self._source_names, self._normalized,
                             self._specs, row) for row in deletes])
        if staged.declined:
            why = next(iter(staged.declined.values()))
            raise DeltaRequiresInvalidationError(
                f"{why}; the cell needs a recompute")
        outcome = delta.commit(task, cells, staged)
        if outcome.created:
            rctx.charge_cells(outcome.created)
        self.stats.start_calls += outcome.created * task.n_aggs
        self.stats.iter_calls += outcome.iter_calls
        for mask, view in self._views.items():
            self.sizes[mask] = max(1, len(view))
        self.stats.cells_produced = self.materialized_rows
        return outcome.touched

    def query(self, grouped: Sequence[str]) -> Table:
        """Answer one grouping-set query (grouped column names)."""
        from repro.core.grouping import names_to_mask
        mask = names_to_mask(grouped, self._task.dims)
        return self.answer(mask)

    def query_cost(self, grouped: Sequence[str]) -> int:
        """Rows of the materialized ancestor a query must scan."""
        from repro.core.grouping import names_to_mask
        mask = names_to_mask(grouped, self._task.dims)
        source = _cheapest_ancestor(mask, set(self._views), self.sizes,
                                    self._lattice)
        return len(self._views[source])

    def answer(self, mask: Mask,
               positions: Sequence[int] | None = None) -> Table:
        """Answer one grouping-set query given as a mask over the
        cube's dimensions."""
        table, _ = self.answer_with_cost(mask, positions)
        return table

    def answer_with_cost(self, mask: Mask,
                         positions: Sequence[int] | None = None,
                         ) -> tuple[Table, int]:
        """Answer ``mask`` and report the rows of materialized data
        scanned to do it.

        ``positions`` selects (and orders) the aggregate columns of the
        answer; only those are finalized.  The default is every
        aggregate the cube carries.

        The ancestor-answering path is traced (``view.answer`` spans,
        visible in EXPLAIN ANALYZE when a query is served from the
        cuboid cache) and metered
        (``repro_view_rows_scanned_total``), so reuse is as observable
        as a cold computation.
        """
        task = self._task
        if positions is None:
            positions = range(task.n_aggs)
        # the answer's shape: the same dims, the requested aggregates
        asked = replace(
            task,
            functions=tuple(task.functions[p] for p in positions),
            agg_names=tuple(task.agg_names[p] for p in positions))
        materialized = mask in self._views
        with trace.span("view.answer",
                        grouping_set=task.mask_label(mask),
                        materialized=materialized) as span:
            if materialized:
                source_mask = mask
                view = self._views[mask]
            else:
                source_mask = _cheapest_ancestor(
                    mask, set(self._views), self.sizes, self._lattice)
                view = self._fold_down(source_mask, mask)
            scanned = len(self._views[source_mask])
            if mask == 0 and not view:
                # the grand total exists over no rows too (SUM -> NULL,
                # COUNT -> 0), as every cube algorithm reports it
                view = {task.coordinate(0, ()): [fn.start()
                                                 for fn in task.functions]}
            cells = [(coordinate,
                      asked.finalize([handles[p] for p in positions],
                                     self.stats))
                     for coordinate, handles in view.items()]
            span.set(source=task.mask_label(source_mask),
                     rows_scanned=scanned, cells=len(cells))
        instrument.record_view_answer(scanned)
        return asked.result_table(cells), scanned

    def describe(self) -> str:
        names = [" ".join(mask_to_names(m, self._task.dims)) or "(total)"
                 for m in self.materialized]
        return (f"PartialCube[{len(self.materialized)}/"
                f"{len(self.sizes)} views: {', '.join(names)}; "
                f"{self.materialized_rows} cells]")
