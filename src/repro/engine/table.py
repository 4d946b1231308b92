"""Row-oriented tables.

``Table`` is the relation type everything in this library consumes and
produces: the base fact tables, the GROUP BY core, and the cube itself
("the novelty is that cubes are relations" -- Section 1 of the paper).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import TableError
from repro.engine.schema import Column, Schema
from repro.types import ALL, DataType, display_value, sort_key_tuple

__all__ = ["Table", "rows_equal_as_bags"]

Row = tuple


class Table:
    """An in-memory relation: a schema plus a list of row tuples.

    Rows are validated against the schema on insertion (pass
    ``validate=False`` to skip for bulk loads of trusted data).  Tables
    compare equal as *bags* of rows -- relational results are unordered
    multisets, and cube algorithms are validated against each other with
    bag equality.

    ``version`` counts mutations: every mutator moves it and clears
    ``memo``, a slot for data derived from *this* version of the rows
    (the columnar backend keeps its encoded columns there).  Mutate
    through the mutators, never through the ``rows`` list, or the memo
    goes stale.  Neither the version nor the memo is pickled.
    """

    __slots__ = ("schema", "_rows", "name", "_version", "memo",
                 "__weakref__")

    def __init__(self, schema: Schema | Sequence, rows: Iterable[Sequence] = (),
                 *, validate: bool = True, name: str = "") -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        self.name = name
        self._rows: list[Row] = []
        self._version = 0
        self.memo: Any = None
        self.extend(rows, validate=validate)

    def __getstate__(self) -> tuple:
        # the default slotted-object state, minus version and memo, so
        # a pickled table reads the same to older and newer code alike
        return None, {"schema": self.schema, "_rows": self._rows,
                      "name": self.name}

    def __setstate__(self, state: tuple) -> None:
        for slot, value in state[1].items():
            setattr(self, slot, value)
        self._version = 0
        self.memo = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_dicts(cls, records: Sequence[dict], *, name: str = "",
                   schema: Schema | None = None) -> "Table":
        """Build a table from dict records, inferring a schema if absent."""
        if schema is None:
            if not records:
                raise TableError(
                    "cannot infer a schema from zero records; pass schema=")
            names = list(records[0].keys())
            columns = []
            for col_name in names:
                dtype = DataType.ANY
                for record in records:
                    value = record.get(col_name)
                    if value is not None and value is not ALL:
                        dtype = DataType.infer(value)
                        break
                columns.append(Column(col_name, dtype))
            schema = Schema(columns)
        rows = [tuple(record.get(col, None) for col in schema.names)
                for record in records]
        return cls(schema, rows, name=name)

    def empty_like(self) -> "Table":
        return Table(self.schema, name=self.name)

    # -- mutation -------------------------------------------------------

    def _changed(self) -> None:
        self._version += 1
        self.memo = None

    def append(self, row: Sequence[Any], *, validate: bool = True) -> None:
        row = tuple(row)
        if validate:
            self.schema.validate_row(row)
        self._rows.append(row)
        self._changed()

    def extend(self, rows: Iterable[Sequence[Any]], *,
               validate: bool = True) -> None:
        append = self._rows.append
        validate_row = self.schema.validate_row
        try:
            for row in rows:
                row = tuple(row)
                if validate:
                    validate_row(row)
                append(row)
        finally:  # a row that fails validation leaves its predecessors
            self._changed()

    def delete_where(self, predicate: Callable[[Row], bool]) -> int:
        """Delete rows matching ``predicate``; returns the count removed."""
        kept = [row for row in self._rows if not predicate(row)]
        removed = len(self._rows) - len(kept)
        self._rows[:] = kept
        if removed:
            self._changed()
        return removed

    def delete_row(self, row: Sequence[Any]) -> bool:
        """Delete one occurrence of ``row``; True if a row was removed."""
        target = tuple(row)
        try:
            self._rows.remove(target)
        except ValueError:
            return False
        self._changed()
        return True

    # -- access ---------------------------------------------------------

    @property
    def version(self) -> int:
        """The mutation counter (see the class docstring)."""
        return self._version

    @property
    def rows(self) -> list[Row]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __bool__(self) -> bool:  # an empty relation is still a relation
        return True

    def column_index(self, name: str) -> int:
        return self.schema.index_of(name)

    def column_values(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        idx = self.schema.index_of(name)
        return [row[idx] for row in self._rows]

    def pick(self, positions: Sequence[int]) -> list[Row]:
        """Every row cut down to the values at ``positions``, in that
        order: one C-level ``itemgetter`` per row, no row context."""
        if len(positions) == 1:  # itemgetter returns a bare value
            (index,) = positions
            return [(row[index],) for row in self._rows]
        return list(map(itemgetter(*positions), self._rows))

    def columns(self, names: Sequence[str] | None = None
                ) -> dict[str, list[Any]]:
        """Column-major extraction: {name: values in row order}.

        One transposition pass instead of a :meth:`column_values` scan
        per column -- the shape the columnar compute backend batches
        from.  ``names`` defaults to every column, in schema order.
        """
        if names is None:
            names = self.schema.names
        indexes = [self.schema.index_of(name) for name in names]
        if not self._rows:
            return {name: [] for name in names}
        transposed = list(zip(*self._rows))
        return {name: list(transposed[idx])
                for name, idx in zip(names, indexes)}

    def distinct_values(self, name: str, *,
                        include_all: bool = False) -> list[Any]:
        """Sorted distinct values of a column.

        By default the ALL sentinel is excluded, matching the paper's
        ``ALL()`` function which expands to the set of *real* values.
        """
        idx = self.schema.index_of(name)
        seen = set()
        for row in self._rows:
            value = row[idx]
            if value is ALL and not include_all:
                continue
            seen.add(value)
        return sorted(seen, key=lambda v: sort_key_tuple((v,)))

    def row_dicts(self) -> Iterator[dict[str, Any]]:
        names = self.schema.names
        for row in self._rows:
            yield dict(zip(names, row))

    # -- comparison -----------------------------------------------------

    def as_bag(self) -> Counter:
        return Counter(self._rows)

    def equals_bag(self, other: "Table") -> bool:
        """Bag (multiset) equality, ignoring row order; schemas must have
        the same column names in the same order."""
        return (self.schema.names == other.schema.names
                and self.as_bag() == other.as_bag())

    def sorted_rows(self) -> list[Row]:
        return sorted(self._rows, key=sort_key_tuple)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.equals_bag(other)

    def __hash__(self) -> int:  # tables are mutable; identity hash
        return id(self)

    # -- display ----------------------------------------------------------

    def to_ascii(self, *, max_rows: int | None = None) -> str:
        """Plain-text rendering used by the examples and reports."""
        names = self.schema.names
        rows = self._rows if max_rows is None else self._rows[:max_rows]
        cells = [[display_value(v) for v in row] for row in rows]
        widths = [len(n) for n in names]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        out = [sep,
               "|" + "|".join(f" {n:<{w}} " for n, w in zip(names, widths))
               + "|",
               sep]
        for row in cells:
            out.append(
                "|" + "|".join(f" {c:<{w}} " for c, w in zip(row, widths))
                + "|")
        out.append(sep)
        if max_rows is not None and len(self._rows) > max_rows:
            out.append(f"... {len(self._rows) - max_rows} more rows")
        return "\n".join(out)

    def __repr__(self) -> str:
        label = self.name or "Table"
        return f"<{label} {len(self._rows)} rows x {len(self.schema)} cols>"


def rows_equal_as_bags(left: Iterable[Sequence], right: Iterable[Sequence]) -> bool:
    """Bag equality over raw row iterables (used by algorithm cross-checks)."""
    return Counter(map(tuple, left)) == Counter(map(tuple, right))
