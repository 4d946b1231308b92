"""Addressing the data cube (Section 4, plus Section 5's dense arrays).

The paper proposes ``cube.v(:i, :j)`` as shorthand for selecting one
cell of a cube relation, plus conveniences for the most-requested
derived quantities: percent-of-total and the *index* of a value
(``index(v_i) = v_i / sum_i v_i``).  :class:`CubeView` wraps a cube
relation and provides exactly those.

The module also holds the *dense array* addressing arithmetic from
Section 5 ("each dimension having size Ci+1"): mixed-radix shapes and
row-major strides.  The columnar backend's dense route (which the
array algorithm runs) addresses cells through these helpers, so the
ALL-slot convention (index ``Ci``) lives in exactly one place.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import AddressingError
from repro.types import ALL, DataType

__all__ = [
    "CubeView",
    "dense_shape",
    "dense_strides",
]


def dense_shape(cardinalities: Sequence[int]) -> tuple[int, ...]:
    """Section 5's array shape: ``Ci + 1`` per dimension; the extra
    slot (index ``Ci``) holds that dimension's ALL slab."""
    return tuple(c + 1 for c in cardinalities)


def dense_strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Row-major (C-order) strides for a dense shape, in slots."""
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return tuple(strides)


class CubeView:
    """Random access into a cube relation.

    ``dims`` are the dimension column names in coordinate order; every
    remaining column is a measure.  The view indexes cells eagerly so
    repeated ``v()`` calls are O(1) -- the paper wants this to feel like
    array access from the host language.
    """

    def __init__(self, table: Table, dims: Sequence[str]) -> None:
        self.table = table
        self.dims = tuple(dims)
        self._dim_idx = [table.schema.index_of(d) for d in dims]
        self.measures = tuple(name for name in table.schema.names
                              if name not in set(dims))
        self._measure_idx = {name: table.schema.index_of(name)
                             for name in self.measures}
        if not self.measures:
            raise AddressingError("cube has no measure columns")
        self._cells: dict[tuple, tuple] = {}
        for row in table:
            key = tuple(row[i] for i in self._dim_idx)
            if key in self._cells:
                raise AddressingError(
                    f"duplicate cube cell at coordinate {key}; a cube "
                    "relation must have one row per coordinate")
            self._cells[key] = row

    # -- cell access ----------------------------------------------------------

    def v(self, *coords: Any, measure: str | None = None) -> Any:
        """The paper's ``cube.v(:i, :j)``: one cell's measure value.

        Coordinates may include ALL to address super-aggregate cells.
        Raises :class:`AddressingError` when the cell does not exist.
        """
        if len(coords) != len(self.dims):
            raise AddressingError(
                f"expected {len(self.dims)} coordinates "
                f"({', '.join(self.dims)}), got {len(coords)}")
        row = self._cells.get(tuple(coords))
        if row is None:
            raise AddressingError(f"no cube cell at {coords}")
        return row[self._measure_index(measure)]

    def get(self, *coords: Any, measure: str | None = None,
            default: Any = None) -> Any:
        """Like :meth:`v` but returning ``default`` for missing cells
        (sparse cubes omit empty cells)."""
        row = self._cells.get(tuple(coords))
        if row is None:
            return default
        return row[self._measure_index(measure)]

    def __contains__(self, coords: tuple) -> bool:
        return tuple(coords) in self._cells

    def coordinates(self) -> list[tuple]:
        """All cell coordinates present (including super-aggregates)."""
        return list(self._cells)

    def dim_values(self, dim: str) -> list[Any]:
        """Sorted real (non-ALL) values of one dimension across cells."""
        if dim not in self.dims:
            raise AddressingError(f"{dim!r} is not a dimension")
        position = self.dims.index(dim)
        from repro.types import sort_key
        return sorted({key[position] for key in self._cells
                       if key[position] is not ALL}, key=sort_key)

    def total(self, measure: str | None = None) -> Any:
        """The global super-aggregate: the (ALL, ALL, ..., ALL) cell."""
        return self.v(*([ALL] * len(self.dims)), measure=measure)

    def _measure_index(self, measure: str | None) -> int:
        if measure is None:
            return self._measure_idx[self.measures[0]]
        try:
            return self._measure_idx[measure]
        except KeyError:
            raise AddressingError(
                f"unknown measure {measure!r}; have {list(self.measures)}"
            ) from None

    # -- slicing ---------------------------------------------------------------

    def slice(self, **fixed: Any) -> Table:
        """Rows with the given dimensions fixed (others unconstrained).

        ``view.slice(Model='Chevy')`` is the Chevy plane of Figure 4's
        cube, including its super-aggregate rows.
        """
        for name in fixed:
            if name not in self.dims:
                raise AddressingError(
                    f"{name!r} is not a dimension; have {list(self.dims)}")
        positions = {self.dims.index(name): value
                     for name, value in fixed.items()}
        out = self.table.empty_like()
        for key, row in self._cells.items():
            if all(key[i] == value for i, value in positions.items()):
                out.append(row, validate=False)
        return out

    def level(self, n_all: int) -> Table:
        """Rows with exactly ``n_all`` dimensions aggregated out:
        level 0 is the core, level N the grand total."""
        out = self.table.empty_like()
        for key, row in self._cells.items():
            if sum(1 for v in key if v is ALL) == n_all:
                out.append(row, validate=False)
        return out

    # -- derived quantities (Section 4) ---------------------------------------

    def percent_of_total(self, measure: str | None = None, *,
                         alias: str | None = None) -> Table:
        """Each cell's share of the global total -- the paper's
        "most common request", its percent-of-total example::

            SUM(Sales) / total(ALL, ALL, ALL)
        """
        total = self.total(measure=measure)
        midx = self._measure_index(measure)
        mname = self.table.schema.names[midx]
        out_name = alias or f"{mname}/total"
        columns = list(self.table.schema.columns)
        columns.append(Column(out_name, DataType.FLOAT))
        out = Table(Schema(columns))
        for row in self.table:
            value = row[midx]
            if value is None or total in (None, 0):
                share = None
            else:
                share = value / total
            out.append(row + (share,), validate=False)
        return out

    def index_1d(self, dim: str, measure: str | None = None,
                 **fixed: Any) -> dict[Any, float]:
        """The paper's 1D index: ``index(v_i) = v_i / sum_i v_i`` over
        the values of ``dim``, with every other dimension fixed
        (defaulting to ALL).

        Returns {dimension value: index}.  An index of 1/N means the
        value contributes exactly its expected share.
        """
        if dim not in self.dims:
            raise AddressingError(f"{dim!r} is not a dimension")
        coords_template: list[Any] = []
        for name in self.dims:
            if name == dim:
                coords_template.append(None)  # placeholder
            else:
                coords_template.append(fixed.get(name, ALL))
        dim_pos = self.dims.index(dim)
        values = [key[dim_pos] for key in self._cells
                  if key[dim_pos] is not ALL
                  and all(key[i] == coords_template[i]
                          for i in range(len(self.dims)) if i != dim_pos)]
        out: dict[Any, float] = {}
        denominator = 0.0
        cells: dict[Any, Any] = {}
        for value in values:
            coords = list(coords_template)
            coords[dim_pos] = value
            cell = self.get(*coords, measure=measure)
            if cell is None:
                continue
            cells[value] = cell
            denominator += cell
        if denominator == 0:
            return {value: None for value in cells}
        for value, cell in cells.items():
            out[value] = cell / denominator
        return out

    def index_2d(self, row_dim: str, col_dim: str,
                 measure: str | None = None,
                 **fixed: Any) -> dict[tuple[Any, Any], float]:
        """The paper's 2D index ("a nightmare of indices", Section 4).

        For each (row, column) cell with every other dimension fixed
        (defaulting to ALL), the observed share divided by the expected
        share under independence::

            index(i, j) = v(i, j) * v(ALL, ALL) / (v(i, ALL) * v(ALL, j))

        1.0 means the cell contributes exactly what its marginals
        predict; >1 flags an over-represented combination -- the
        "interesting subspace" data-analysis loop of Section 1.
        """
        for dim in (row_dim, col_dim):
            if dim not in self.dims:
                raise AddressingError(f"{dim!r} is not a dimension")
        if row_dim == col_dim:
            raise AddressingError("index_2d needs two distinct dimensions")

        def coords(row_value: Any, col_value: Any) -> list:
            out = []
            for name in self.dims:
                if name == row_dim:
                    out.append(row_value)
                elif name == col_dim:
                    out.append(col_value)
                else:
                    out.append(fixed.get(name, ALL))
            return out

        total = self.get(*coords(ALL, ALL), measure=measure)
        out: dict[tuple[Any, Any], float] = {}
        if total in (None, 0):
            return out
        for row_value in self.dim_values(row_dim):
            row_total = self.get(*coords(row_value, ALL), measure=measure)
            if row_total in (None, 0):
                continue
            for col_value in self.dim_values(col_dim):
                observed = self.get(*coords(row_value, col_value),
                                    measure=measure)
                if observed is None:
                    continue
                col_total = self.get(*coords(ALL, col_value),
                                     measure=measure)
                if col_total in (None, 0):
                    continue
                expected = row_total * col_total / total
                out[(row_value, col_value)] = observed / expected
        return out

    def __len__(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:
        return (f"<CubeView dims={list(self.dims)} "
                f"measures={list(self.measures)} cells={len(self._cells)}>")
