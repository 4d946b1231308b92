"""Materialized cubes with incremental maintenance (Section 6).

A :class:`MaterializedCube` stores a live scratchpad (Figure 7 handle)
per aggregate per cube cell and keeps it consistent under INSERT,
DELETE, and UPDATE (= DELETE + INSERT) of the base table.  Every cell
change runs through :mod:`repro.compute.delta`, the Section 6 code the
serve cache's ``PartialCube.apply_delta`` runs too: an INSERT visits at
most 2^N cells, pruned by the MIN/MAX short-circuit; a DELETE unapplies
where the scratchpad can and otherwise **recomputes the cell from the
retained base rows** -- the asymmetry the paper highlights ("max is
distributive for SELECT and INSERT, but it is holistic for DELETE").
The cube stays equal to a from-scratch recomputation, which the
test-suite asserts under random operation streams.

**Transactions.**  Every operation is apply-or-rollback, and
:meth:`MaterializedCube.transaction` (or :meth:`~MaterializedCube.apply_batch`)
widens that to a batch.  Rollback replays an undo log in reverse: each
touched cell's prior handles (deep-copied, one cell at a time), row
count and accepted counts, or the fact that it was absent; base-row
appends and removals; a copy of the stats.  An operation therefore costs
the cells it touches, not the cube.  Rollbacks count on
``repro_maintenance_rollbacks_total`` and appear as ``rollback`` span
events.

**Durability.**  A cube bound to a :class:`~repro.storage.CubeStore`
with :meth:`MaterializedCube.bind_journal` (normally via
:meth:`CubeStore.attach <repro.storage.CubeStore.attach>`) writes every
outermost transaction through the store's write-ahead log: a ``begin``
record, one ``op`` record per base-row mutation, and a *synced*
``commit`` record before the transaction reports success.  Recovery
restores the last checkpoint and replays committed transactions through
:meth:`MaterializedCube.apply_replay`, which runs the ordinary mutation
path -- so the recovered cube's cells are bit-identical to the
committed ones (docs/STORAGE.md).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from repro.aggregates.base import Handle
from repro.aggregates.registry import AggregateRegistry, default_registry
from repro.compute import delta
from repro.compute.base import build_task, source_task_row
from repro.core.addressing import CubeView
from repro.core.cube import _normalize_requests
from repro.core.grouping import GroupingSpec, Mask
from repro.engine.groupby import normalize_keys
from repro.engine.table import Table
from repro.errors import (
    DeleteRequiresRecomputeError,
    FaultInjectedError,
    MaintenanceError,
    StorageError,
)
from repro.maintenance.propagation import MaintenanceStats
from repro.obs import instrument, trace
from repro.types import ALL

__all__ = ["MaterializedCube"]


class MaterializedCube:
    """A cube kept consistent with its base table under mutation."""

    def __init__(self, base: Table, dims: Sequence, aggregates: Sequence, *,
                 kind: str = "cube",
                 registry: AggregateRegistry | None = None,
                 retain_base: bool = True,
                 short_circuit: bool = True,
                 strict: bool = False) -> None:
        """``short_circuit=False`` ablates the Section 6 insert pruning
        (every insert then visits all 2^N cells for every aggregate);
        the ablation bench measures what the rule saves.

        ``strict=True`` lints the maintenance plan first
        (:func:`repro.lint.lint_maintenance_spec`): a delete-holistic
        aggregate with ``retain_base=False`` is rejected up front
        instead of failing on the first unlucky DELETE."""
        registry = registry or default_registry
        self._specs = _normalize_requests(aggregates, registry)
        self._keys = normalize_keys(dims)
        if strict:
            from repro.lint import lint_maintenance_spec, require_clean
            require_clean(lint_maintenance_spec(
                base, [(expr, alias) for expr, alias in self._keys],
                list(self._specs), kind=kind,
                operations=("insert", "delete", "update"),
                retain_base=retain_base, registry=registry))
        self._source_names = base.schema.names
        if kind == "cube":
            spec = GroupingSpec.for_cube(tuple(a for _, a in self._keys))
        elif kind == "rollup":
            spec = GroupingSpec.for_rollup(tuple(a for _, a in self._keys))
        else:
            raise MaintenanceError(f"unknown kind {kind!r}; use cube/rollup")
        self._grouping = spec
        self.retain_base = retain_base
        self.short_circuit = short_circuit
        self.stats = MaintenanceStats()

        task = build_task(base, dims, self._specs, spec.grouping_sets())
        self._task = task  # reused for coordinates / folding helpers
        # mask -> coordinate -> handles, contributing rows, and accepted
        # values per aggregate (the dicts repro.compute.delta maintains)
        self._cells: dict[Mask, dict[tuple, list[Handle]]] = {
            mask: {} for mask in task.masks}
        self._counts: dict[Mask, dict[tuple, int]] = {
            mask: {} for mask in task.masks}
        self._accepted: dict[Mask, dict[tuple, list[int]]] = {
            mask: {} for mask in task.masks}

        self._txn_depth = 0
        self._undo: _UndoLog | None = None
        self._mutation_listeners: list[Callable[[str], None]] = []
        self._journal: Any = None
        self._journal_name = ""
        self._journal_txn: int | None = None
        self._replaying = False
        self._poisoned = False
        delta.commit(task, self._cell_state(), delta.Delta(task.rows),
                     short_circuit=False)
        self._base_rows: list[tuple] = list(task.rows) if retain_base else []

    # -- public surface ---------------------------------------------------

    @property
    def dims(self) -> tuple[str, ...]:
        return self._task.dims

    @property
    def masks(self) -> tuple[Mask, ...]:
        return self._task.masks

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._cells.values())

    def add_mutation_listener(self,
                              listener: Callable[[str], None]) -> None:
        """Register ``listener(op)`` to fire after every *successful*
        top-level mutation (``insert`` / ``delete`` / ``update`` /
        ``batch``).  Operations inside a larger transaction notify once
        when the outermost scope commits; rolled-back operations raise
        before notifying.  The serving layer's semantic cache uses this
        to invalidate cuboids derived from the cube's base table
        (:meth:`repro.serve.CuboidCache.watch`)."""
        self._mutation_listeners.append(listener)

    def _notify_mutation(self, op: str) -> None:
        if self._txn_depth == 0:
            for listener in self._mutation_listeners:
                listener(op)

    @contextlib.contextmanager
    def transaction(self, op: str = "batch") -> Iterator["MaterializedCube"]:
        """All-or-nothing scope for any sequence of operations: if the
        block raises, the undo log (see the module docstring) is
        replayed, the rollback counted on
        ``repro_maintenance_rollbacks_total{op=...}``, and the error
        re-raised.  Nested transactions join the outermost one and share
        its log, which is how the per-operation guarantee composes with
        user batches."""
        self._check_not_poisoned()
        if self._txn_depth > 0:
            self._txn_depth += 1
            try:
                yield self
            finally:
                self._txn_depth -= 1
            return
        undo = _UndoLog(self.stats.copy())
        # WAL discipline: the begin record precedes any mutation, and
        # the commit record is written (and fsynced) before the
        # transaction reports success -- inside the try, so a commit
        # that fails durability rolls the in-memory state back too
        journal_txn: int | None = None
        if self._journal is not None and not self._replaying:
            journal_txn = self._journal.txn_begin(self._journal_name)
            self._journal_txn = journal_txn
        self._txn_depth = 1
        self._undo = undo
        try:
            yield self
            if journal_txn is not None:
                try:
                    self._journal.txn_commit(journal_txn,
                                             self._journal_name)
                except BaseException:
                    # The commit's durability is now *ambiguous*: a
                    # later crash may recover it as committed while the
                    # in-memory state rolls back, so the cube poisons
                    # itself until the store is reopened and replayed
                    # (the WAL's panic-on-fsync-failure discipline).
                    self._poisoned = True
                    raise
        except BaseException as error:
            delta.restore(self._cell_state(), undo.cells)
            for entry in reversed(undo.base_rows):
                if entry is None:
                    self._base_rows.pop()
                else:
                    self._base_rows.insert(*entry)
            self.stats = undo.stats
            if journal_txn is not None:
                # best effort: a poisoned WAL (torn append, failed
                # fsync) refuses the abort record; recovery skips
                # uncommitted transactions either way
                with contextlib.suppress(StorageError,
                                         FaultInjectedError):
                    self._journal.txn_abort(journal_txn,
                                            self._journal_name)
            instrument.record_rollback(op)
            self.stats.rollbacks += 1
            span = trace.current_span()
            if span is not None:
                span.event("rollback", op=op, error=str(error))
            raise
        finally:
            self._txn_depth = 0
            self._journal_txn = None
            self._undo = None

    def apply_batch(self, operations: Sequence[tuple]) -> int:
        """Apply ``operations`` -- ``("insert", row)``,
        ``("delete", row)``, or ``("update", old_row, new_row)`` tuples
        -- atomically; returns total cells touched.  A failure anywhere
        in the batch rolls every prior operation back."""
        with trace.span("maintenance.batch", operations=len(operations)):
            with self.transaction(op="batch"):
                touched = sum(map(self._run, operations))
            self._notify_mutation("batch")
            return touched

    def _run(self, operation: tuple) -> int:
        kind = operation[0]
        if kind == "insert":
            return self.insert(operation[1])
        if kind == "delete":
            return self.delete(operation[1])
        if kind == "update":
            return self.update(operation[1], operation[2])
        raise MaintenanceError(
            f"unknown operation {kind!r}; use insert/delete/update")

    def insert(self, row: Sequence[Any]) -> int:
        """Propagate one base-table INSERT; returns cells touched."""
        with trace.span("maintenance.insert") as span:
            with self.transaction(op="insert"):
                self._journal_record(("insert", tuple(row)))
                touched, _ = self._apply([self._task_row(row)], ())
            span.set(cells_touched=touched)
        self.stats.inserts += 1
        self.stats.per_operation_touched.append(touched)
        self.stats.note_operation("insert", touched)
        self._notify_mutation("insert")
        return touched

    def delete(self, row: Sequence[Any]) -> int:
        """Propagate one base-table DELETE; returns cells touched.

        Raises :class:`DeleteRequiresRecomputeError`, before any cell
        changed, when a delete-holistic aggregate needs a recompute but
        the base was not retained (``retain_base=False``)."""
        with trace.span("maintenance.delete") as span:
            with self.transaction(op="delete"):
                self._journal_record(("delete", tuple(row)))
                touched, recomputed = self._apply(
                    (), [self._task_row(row)], ("delete", row))
            span.set(cells_touched=touched, recomputed=recomputed)
        self.stats.deletes += 1
        self.stats.per_operation_touched.append(touched)
        self.stats.note_operation("delete", touched)
        self._notify_mutation("delete")
        return touched

    def update(self, old_row: Sequence[Any], new_row: Sequence[Any]) -> int:
        """UPDATE = DELETE + INSERT (Section 6), with routing.

        An update that **changes a dimension value** moves the row
        between cells, so it runs as a DELETE of the old row plus an
        INSERT of the new one.  One that keeps every dimension value runs
        in place, as one delta that deletes the old row and inserts the
        new one; a cell whose scratchpad declines the delete is
        recomputed from the retained base, exactly like DELETE.

        Either route journals the same delete+insert leaves, so WAL
        replay converges to the identical state.  The dim-changing route
        records its insert and delete as themselves plus one ``update``
        (the paper costs it as the sum of the two); the in-place route
        records one ``update`` only."""
        with trace.span("maintenance.update") as span:
            in_place = False
            with self.transaction(op="update"):
                old_task = self._task_row(old_row)
                new_task = self._task_row(new_row)
                if self._task.dim_values(old_task) \
                        == self._task.dim_values(new_task):
                    in_place = True
                    self._journal_record(("delete", tuple(old_row)))
                    self._journal_record(("insert", tuple(new_row)))
                    touched, _ = self._apply([new_task], [old_task],
                                             ("update", old_row))
                else:
                    touched = self.delete(old_row)
                    touched += self.insert(new_row)
            span.set(cells_touched=touched, in_place=in_place)
        self.stats.updates += 1
        if in_place:
            self.stats.per_operation_touched.append(touched)
        self.stats.note_operation("update", touched)
        self._notify_mutation("update")
        return touched

    @property
    def poisoned(self) -> bool:
        """True once a journaled commit failed its durability barrier
        (see :meth:`transaction`): the in-memory state may disagree
        with what recovery will decide, so the cube refuses further
        reads and writes until the store is reopened."""
        return self._poisoned

    def _check_not_poisoned(self) -> None:
        if self._poisoned:
            raise StorageError(
                f"cube {self._journal_name or '<unbound>'!r} had a "
                "commit fail its durability barrier; whether that "
                "transaction survived is unknowable here -- reopen "
                "the store and re-attach to recover the "
                "authoritative state")

    def as_table(self, *, sort_result: bool = True) -> Table:
        """The cube relation, finalized from the live scratchpads."""
        self._check_not_poisoned()
        cells = []
        for mask in self._task.masks:
            for coordinate, handles in self._cells[mask].items():
                values = tuple(spec.function.end(handle)
                               for spec, handle in zip(self._specs, handles))
                cells.append((coordinate, values))
        if 0 in self._task.masks and not self._cells[0]:
            # the global aggregate exists even over an empty base table
            # (SELECT SUM(x) FROM empty returns one row)
            values = tuple(spec.function.end(spec.function.start())
                           for spec in self._specs)
            cells.append((self._task.coordinate(0, ()), values))
        table = self._task.result_table(cells)
        if sort_result:
            from repro.engine.operators import sort as sort_op
            table = sort_op(table, list(self._task.dims))
        return table

    def view(self) -> CubeView:
        return CubeView(self.as_table(sort_result=False), list(self.dims))

    def value(self, *coords: Any, measure: str | None = None) -> Any:
        """One cell's current value without materializing the table."""
        self._check_not_poisoned()
        mask = sum(1 << i for i, coordinate in enumerate(coords)
                   if coordinate is not ALL)
        if mask not in self._cells:
            raise MaintenanceError(
                f"grouping set of {coords} is not materialized")
        handles = self._cells[mask].get(tuple(coords))
        instrument.record_materialized_lookup(hit=handles is not None)
        if handles is None:
            return None
        position = 0
        if measure is not None:
            names = [spec.name for spec in self._specs]
            try:
                position = names.index(measure)
            except ValueError:
                raise MaintenanceError(
                    f"unknown measure {measure!r}; have {names}") from None
        spec = self._specs[position]
        return spec.function.end(handles[position])

    # -- durability (repro.storage integration) -----------------------------

    def bind_journal(self, store: Any, name: str) -> None:
        """Journal every future outermost transaction through
        ``store`` (a :class:`~repro.storage.CubeStore`) under
        ``name``.  Normally called by :meth:`CubeStore.attach
        <repro.storage.CubeStore.attach>` after recovery, never
        directly."""
        self._journal = store
        self._journal_name = name

    def _journal_record(self, op: tuple) -> None:
        """Log one base-row mutation to the enclosing journaled
        transaction (no-op when unbound or replaying).  ``update`` and
        batches decompose into these insert/delete leaves, so replay
        needs only the two."""
        if self._journal is not None and self._journal_txn is not None:
            self._journal.txn_op(self._journal_txn, self._journal_name,
                                 op)

    def storage_signature(self) -> tuple:
        """An order-stable fingerprint of this cube's definition.
        A checkpoint is only restorable into a cube with the same
        signature: same dimensions, grouping sets, aggregate names and
        function types, and base-row retention."""
        return (
            self._task.dims,
            tuple(self._task.masks),
            tuple((spec.name, type(spec.function).__name__)
                  for spec in self._specs),
            self.retain_base,
        )

    def capture_state(self) -> dict:
        """The cube's full mutable state, for checkpointing.  The
        caller serializes it immediately; scratchpad handles must be
        picklable (true of every built-in aggregate).  A poisoned cube
        refuses: checkpointing the rolled-back state (and rotating the
        WAL under it) would silently discard a commit record that may
        already be durable."""
        self._check_not_poisoned()
        return {
            "cells": self._cells,
            "counts": self._counts,
            "accepted": self._accepted,
            "base_rows": self._base_rows,
            "stats": self.stats,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a checkpointed :meth:`capture_state` snapshot,
        replacing the freshly computed state.

        A checkpoint written before cubes kept accepted-value counts
        has none; each aggregate that has left ``start()`` is then
        taken to have accepted every row of its cell, which answers
        every later delete exactly as the cube that wrote it would."""
        self._cells = state["cells"]
        self._counts = state["counts"]
        self._base_rows = state["base_rows"]
        self.stats = state["stats"]
        functions = self._task.functions
        self._accepted = state.get("accepted") or {mask: {
            coordinate: [0 if handle == fn.start()
                         else self._counts[mask][coordinate]
                         for fn, handle in zip(functions, handles)]
            for coordinate, handles in cells.items()}
            for mask, cells in self._cells.items()}

    def apply_replay(self, operations: Sequence[tuple]) -> int:
        """Re-apply one committed transaction's journaled operations
        during recovery; returns cells touched.  Runs the ordinary
        insert/delete path -- so cells, counts, and retained base rows
        converge to the committed state bit-for-bit -- with journaling
        suppressed.  (Operation *statistics* reflect the replay's
        decomposed view: an UPDATE replays as its delete+insert
        leaves.)"""
        self._replaying = True
        try:
            with self.transaction(op="replay"):
                return sum(map(self._run, operations))
        finally:
            self._replaying = False

    # -- internals ----------------------------------------------------------

    def _cell_state(self) -> delta.Cells:
        return delta.Cells(self._cells, self._counts, self._accepted)

    def _task_row(self, row: Sequence[Any]) -> tuple:
        return source_task_row(self._source_names, self._keys, self._specs,
                               row)

    def _apply(self, inserts: Sequence[tuple], deletes: Sequence[tuple],
               source: tuple = ()) -> tuple[int, int]:
        """Move one delta of task rows through the retained base and the
        cells, then rebuild each cell that declined the deletes from the
        base.  ``source`` is ``(op, raw row)`` for a missing-row error.
        Returns cells touched and cells recomputed."""
        undo = self._undo
        assert undo is not None, "cell changes need a transaction"
        if self.retain_base:
            for task_row in deletes:
                index = _find_row(self._base_rows, task_row)
                if index is None:
                    raise MaintenanceError(
                        f"{source[0]} of a row not present in the base: "
                        f"{source[1]!r}")
                undo.base_rows.append((index, self._base_rows.pop(index)))
            self._base_rows.extend(inserts)
            undo.base_rows.extend([None] * len(inserts))
        cells = self._cell_state()
        staged = delta.stage(self._task, cells, inserts, deletes)
        if staged.declined and not self.retain_base:
            (_, coordinate), why = next(iter(staged.declined.items()))
            raise DeleteRequiresRecomputeError(
                f"cell {coordinate} needs recomputation ({why}) but "
                "retain_base=False")
        outcome = delta.commit(self._task, cells, staged,
                               short_circuit=self.short_circuit,
                               undo=undo.cells)
        # the delete-holistic path of Section 6: rebuild from the base
        for key in staged.declined:
            self.stats.rows_rescanned += delta.rebuild(
                self._task, cells, key, self._base_rows, undo.cells)
        self.stats.cells_recomputed += len(staged.declined)
        self.stats.cells_updated += outcome.updated
        self.stats.cells_short_circuited += outcome.short_circuited
        return outcome.touched, len(staged.declined)


@dataclass
class _UndoLog:
    stats: MaintenanceStats
    #: cells' prior states, written by :func:`repro.compute.delta.commit`
    cells: dict = field(default_factory=dict)
    #: retained base-row changes: None (append) or ``(index, row)``
    base_rows: list = field(default_factory=list)


def _find_row(rows: list[tuple], row: tuple) -> int | None:
    """Index of the first of ``rows`` equal to ``row``, NaN equal to NaN:
    a row replayed from the write-ahead log has NaN objects of its own,
    which ``==`` never matches."""
    if all(value == value for value in row):  # no NaN
        try:
            return rows.index(row)
        except ValueError:
            return None
    same = lambda a, b: a == b or (a != a and b != b)  # noqa: E731
    return next((index for index, candidate in enumerate(rows)
                 if all(map(same, candidate, row))), None)
