"""Section 6 cell maintenance: the one module that changes a stored cell.

:class:`~repro.maintenance.MaterializedCube` and the serve cache's
:class:`~repro.compute.view_selection.PartialCube` hold the same three
dicts per grouping set (:class:`Cells`): a cell's scratchpads, its row
count, and per aggregate how many values it accepted.  INSERT folds rows
fine-to-coarse with ``Iter``; a MIN/MAX value that loses in one cell
"will lose in all lower dimensions", so coarser cells skip it (it still
counts as accepted).  DELETE is staged before anything changes: a cell
whose rows all leave is dropped, an aggregate whose accepted values all
leave resets to ``start()`` (SUM is NULL again, not 0), and otherwise
each value is ``unapply``'d from a copy.  A NaN (NaN - NaN is NaN) or a
delete-holistic scratchpad declines; the caller then rebuilds the cell
from base rows or refuses the delta.  :func:`commit` records each cell's
prior state in an undo log before changing it, for :func:`restore`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from repro.aggregates.base import Handle
from repro.compute.base import CubeTask
from repro.core.grouping import Mask
from repro.errors import DeltaRequiresInvalidationError

__all__ = ["Cells", "Delta", "Outcome", "stage", "commit", "rebuild",
           "restore"]

Key = tuple  # (mask, coordinate)
State = Optional[tuple]  # (handles, count, accepted), or None: no cell


class Cells(NamedTuple):
    handles: dict[Mask, dict[tuple, list[Handle]]]
    counts: dict[Mask, dict[tuple, int]]
    accepted: dict[Mask, dict[tuple, list[int]]]


@dataclass
class Delta:
    """Task rows to insert, and the staged post-delete state of every
    cell the deletes hit (None: the cell empties)."""

    inserts: Sequence[tuple]
    staged: dict[Key, State] = field(default_factory=dict)
    #: cells whose scratchpads cannot absorb the deletes, and why
    declined: dict[Key, str] = field(default_factory=dict)
    unapplies: int = 0


@dataclass
class Outcome:
    touched: int = 0          # cells changed, dropped or declined
    updated: int = 0          # touched cells that remain and did not decline
    short_circuited: int = 0  # (cell, aggregate) folds pruned
    created: int = 0
    iter_calls: int = 0       # Iter and unapply calls


class _Declined(Exception):
    pass


def stage(task: CubeTask, cells: Cells, inserts: Sequence[tuple] = (),
          deletes: Sequence[tuple] = ()) -> Delta:
    """Stage task rows against ``cells`` without changing them.  Raises
    :class:`~repro.errors.DeltaRequiresInvalidationError` when a delete
    cannot come from the cube (its cell holds fewer rows)."""
    delta = Delta(list(inserts))
    leaving: dict[Key, list[tuple]] = {}
    for row in deletes:
        for mask in cells.handles:
            key = (mask, task.coordinate(mask, task.dim_values(row)))
            leaving.setdefault(key, []).append(row)
    for key, rows in leaving.items():
        state = _get(cells, key)
        if state is None or state[1] < len(rows):
            raise DeltaRequiresInvalidationError(
                f"delta deletes {len(rows)} rows from cell {key[1]}, which "
                "holds fewer; it cannot be consistent with this cube")
        try:
            delta.staged[key] = _unapply(task, state, rows, delta)
        except _Declined as why:
            delta.declined[key] = str(why)
    return delta


def _unapply(task: CubeTask, state: tuple, rows: list[tuple],
             delta: Delta) -> State:
    if state[1] == len(rows):
        return None  # the cell empties: commit drops it
    handles, count, accepted = list(state[0]), state[1], list(state[2])
    for position, fn in enumerate(task.functions):
        removed = [value for row in rows
                   if fn.accepts(value := task.agg_values(row)[position])]
        if not removed:
            continue
        accepted[position] -= len(removed)
        if accepted[position] < 0:
            raise _Declined(f"{fn.name} folded fewer values than leave")
        if accepted[position] == 0:
            handles[position] = fn.start()
            continue
        # a scratchpad may change in place (a carrying MEDIAN's list)
        handle = copy.deepcopy(handles[position])
        for value in removed:
            if isinstance(value, float) and math.isnan(value):
                raise _Declined(f"{fn.name} cannot unapply a NaN value")
            handle, supported = fn.unapply(handle, value)
            delta.unapplies += 1
            if not supported:
                raise _Declined(
                    f"{fn.name} is delete-holistic at this value")
        handles[position] = handle
    return handles, count - len(rows), accepted


def commit(task: CubeTask, cells: Cells, delta: Delta, *,
           short_circuit: bool = True,
           undo: Optional[dict] = None) -> Outcome:
    """Apply a staged delta: deletes, then inserts.  Declined cells are
    left untouched for the caller to :func:`rebuild` once the base holds
    the post-delta rows.  ``undo`` receives each cell's state before its
    first change in the transaction."""
    out = Outcome(iter_calls=delta.unapplies)
    for key, state in delta.staged.items():
        _remember(cells, key, undo)
        _put(cells, key, state)
    active = _fold(task, cells, delta.inserts, delta.declined,
                   short_circuit, undo, out)
    dropped = sum(state is None and key not in active
                  for key, state in delta.staged.items())
    out.touched = len(active.union(delta.staged, delta.declined))
    out.updated = out.touched - len(delta.declined) - dropped
    return out


def _fold(task: CubeTask, cells: Cells, rows: Sequence[tuple],
          skip: dict, short_circuit: bool, undo: Optional[dict],
          out: Outcome) -> set[Key]:
    """Fold ``rows`` into every grouping set, finest first; returns the
    cells whose scratchpads changed."""
    masks = sorted(cells.handles, key=lambda m: -bin(m).count("1"))
    coarser = {mask: [m for m in masks if m != mask and m & mask == m]
               for mask in masks}
    views = [(mask, task.projector(mask), cells.handles[mask],
              cells.counts[mask], cells.accepted[mask]) for mask in masks]
    functions = list(enumerate(task.functions))
    active: set[Key] = set()
    for row in rows:
        dim_values = task.dim_values(row)
        values = task.agg_values(row)
        pruned: list[set[Mask]] = [set() for _ in functions]
        for mask, project, handles_of, counts_of, accepted_of in views:
            coordinate = project(dim_values)
            key = (mask, coordinate)
            if key in skip:
                continue
            _remember(cells, key, undo)
            handles = handles_of.get(coordinate)
            if handles is None:
                handles = handles_of[coordinate] = [
                    fn.start() for _, fn in functions]
                counts_of[coordinate] = 0
                accepted_of[coordinate] = [0] * len(functions)
                out.created += 1
            counts_of[coordinate] += 1
            accepted = accepted_of[coordinate]
            for position, fn in functions:
                value = values[position]
                if not fn.accepts(value):
                    continue
                accepted[position] += 1
                if mask in pruned[position]:
                    out.short_circuited += 1
                elif short_circuit and fn.insert_dominated(
                        handles[position], value):
                    pruned[position].update(coarser[mask])
                else:
                    handles[position] = fn.next(handles[position], value)
                    out.iter_calls += 1
                    active.add(key)
    return active


def rebuild(task: CubeTask, cells: Cells, key: Key,
            rows: Sequence[tuple], undo: Optional[dict] = None) -> int:
    """Recompute one cell from ``rows`` (the retained base), the path
    of a delete-holistic cell; returns the rows scanned."""
    mask, coordinate = key
    _remember(cells, key, undo)
    _put(cells, key, None)
    project = task.projector(mask)
    one = Cells({mask: cells.handles[mask]}, {mask: cells.counts[mask]},
                {mask: cells.accepted[mask]})
    _fold(task, one, [row for row in rows
                      if project(task.dim_values(row)) == coordinate],
          {}, False, None, Outcome())
    return len(rows)


def restore(cells: Cells, undo: dict) -> None:
    """Put every cell in ``undo`` back to its recorded state."""
    for key, state in undo.items():
        _put(cells, key, state)


def _remember(cells: Cells, key: Key, undo: Optional[dict]) -> None:
    if undo is not None and key not in undo:
        state = _get(cells, key)
        undo[key] = state and (copy.deepcopy(state[0]), state[1],
                               list(state[2]))


def _get(cells: Cells, key: Key) -> State:
    mask, coordinate = key
    return (cells.handles[mask][coordinate], cells.counts[mask][coordinate],
            cells.accepted[mask][coordinate]) \
        if coordinate in cells.handles[mask] else None


def _put(cells: Cells, key: Key, state: State) -> None:
    mask, coordinate = key
    if state is None:
        cells.handles[mask].pop(coordinate, None)
        cells.counts[mask].pop(coordinate, None)
        cells.accepted[mask].pop(coordinate, None)
    else:
        (cells.handles[mask][coordinate], cells.counts[mask][coordinate],
         cells.accepted[mask][coordinate]) = state
