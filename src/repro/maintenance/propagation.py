"""Propagation bookkeeping for materialized-cube maintenance.

Counters mirror Section 6's cost discussion: an INSERT should touch at
most 2^N cells (fewer with the max short-circuit); a DELETE of a
delete-holistic aggregate's extreme forces cell recomputation from the
base table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

from repro.obs import instrument

__all__ = ["MaintenanceStats", "PER_OPERATION_WINDOW"]

#: How many recent operations keep their exact touched-cell count.
#: A streaming workload runs maintenance per batch forever; an
#: unbounded list here was a slow leak, so the trail is a ring -- the
#: totals above stay exact, only the per-op detail ages out.
PER_OPERATION_WINDOW = 1024


@dataclass
class MaintenanceStats:
    """Counters accumulated across maintenance operations."""

    inserts: int = 0
    deletes: int = 0
    updates: int = 0
    #: cells whose scratchpads were updated in place
    cells_updated: int = 0
    #: cells visited but skipped by the Section 6 short-circuit
    #: ("if the new value loses one competition, it will lose in all
    #: lower dimensions")
    cells_short_circuited: int = 0
    #: cells recomputed from base data (delete-holistic functions)
    cells_recomputed: int = 0
    #: base rows re-scanned during recomputations
    rows_rescanned: int = 0
    #: operations (or batches) that failed and were rolled back
    rollbacks: int = 0
    #: ring buffer of the last :data:`PER_OPERATION_WINDOW` operations'
    #: touched-cell counts (``deque`` -- ``append`` keeps working for
    #: existing callers, old entries fall off the left)
    per_operation_touched: deque = field(
        default_factory=lambda: deque(maxlen=PER_OPERATION_WINDOW))

    def copy(self) -> "MaintenanceStats":
        """An independent copy (a transaction's undo log keeps one)."""
        return replace(self, per_operation_touched=deque(
            self.per_operation_touched,
            maxlen=self.per_operation_touched.maxlen))

    def summary(self) -> str:
        return (f"inserts={self.inserts} deletes={self.deletes} "
                f"updated={self.cells_updated} "
                f"short-circuited={self.cells_short_circuited} "
                f"recomputed={self.cells_recomputed} "
                f"rescanned={self.rows_rescanned} "
                f"rollbacks={self.rollbacks}")

    def as_dict(self) -> dict[str, int]:
        """The counters as plain data (exporter-friendly)."""
        return {
            "inserts": self.inserts,
            "deletes": self.deletes,
            "updates": self.updates,
            "cells_updated": self.cells_updated,
            "cells_short_circuited": self.cells_short_circuited,
            "cells_recomputed": self.cells_recomputed,
            "rows_rescanned": self.rows_rescanned,
            "rollbacks": self.rollbacks,
        }

    def note_operation(self, op: str, cells_touched: int) -> None:
        """Mirror one finished operation into the process-wide metrics
        registry (``repro_maintenance_*``); a no-op when metrics are
        disabled, so callers invoke it unconditionally."""
        instrument.record_maintenance(op, cells_touched)
