"""Typed column batches for the columnar backend.

A :class:`ColumnBatch` is the columnar image of a
:class:`~repro.compute.base.CubeTask`: each dimension becomes a
dictionary-encoded column (dense integer codes plus a decode list, the
paper's "hashed symbol table that maps each string to an integer so the
values become dense"), and each aggregate-input column becomes a typed
:class:`AggColumn` carrying a float64 buffer plus validity masks.

The buffers are stdlib ``array``/``bytearray`` objects, so the batch
(and a table's encoded image) forms without any third-party
dependency; the ``*_np`` accessors expose the same buffers zero-copy as
ndarrays for the numpy kernels (:mod:`repro.compute.columnar.kernels`).
Without numpy, :func:`numpy_backend` is None and no kernel runs: every
consumer takes the row path.

The encoding is done once per *table version*, not once per query: a
:class:`TableImage` in the source table's memo slot keeps every column
a query has selected, and a later batch over the same version selects
those columns again instead of re-encoding them.  Only computed
positions (``Day(Time)``, ``Units * Price``) are encoded per query.

Encoding notes that keep the batch bit-compatible with the row path:

- dimension codes are assigned in **first-seen row order** (a plain
  dict), so the sparse path's group discovery order -- and therefore
  its float merge order -- matches the from-core algorithm's cell
  insertion order exactly;
- ``NaN`` dimension values are dict keys, so distinct NaN objects stay
  distinct groups, exactly as the row algorithms' coordinate dicts
  treat them;
- an aggregate column is *numeric* only when every non-NULL value is an
  ``int`` or ``float`` (``bool`` is excluded, matching the array
  algorithm); non-numeric columns still carry a validity mask so COUNT
  kernels can run over them.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import TYPE_CHECKING, Any, Sequence

from repro.resilience import context as rctx
from repro.types import is_null_or_all

if TYPE_CHECKING:
    from repro.engine.table import Table

try:  # the kernels need numpy; without it every cube takes the row path
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _numpy = None

__all__ = ["AggColumn", "BATCH_ROWS", "ColumnBatch", "DictEncodedColumn",
           "HAVE_NUMPY", "TableImage", "numpy_backend"]

#: Rows between cooperative-cancellation checkpoints while encoding.
BATCH_ROWS = 256

HAVE_NUMPY = _numpy is not None


def numpy_backend():
    """The numpy module the kernels run on, or None when numpy is not
    installed (the caller then takes the row path)."""
    return _numpy


class DictEncodedColumn:
    """One dimension column: dense codes plus the decode list."""

    __slots__ = ("name", "values", "codes")

    def __init__(self, name: str, values: list, codes: array) -> None:
        self.name = name
        self.values = values
        self.codes = codes

    def renamed(self, name: str) -> "DictEncodedColumn":
        """The same buffers under another name."""
        return DictEncodedColumn(name, self.values, self.codes)

    @property
    def cardinality(self) -> int:
        return len(self.values)

    def codes_np(self, xp):
        return xp.frombuffer(self.codes, dtype=xp.int64)


class AggColumn:
    """One aggregate-input column.

    ``data`` is the float64 image for the kernels, present only when
    the column is numeric.  ``valid`` marks non-NULL rows; ``nan``
    marks NaN rows, which MIN/MAX kernels must skip (mirroring
    ``_Extreme.accepts``); ``floats`` marks float-typed rows, so the
    kernels can restore the row path's int-vs-float result types
    exactly (``sum([1, 2])`` is ``3`` but ``sum([1.0, 2.0])`` is
    ``3.0``).
    """

    __slots__ = ("name", "valid", "nan", "floats", "numeric", "data",
                 "n_valid", "n_float")

    def __init__(self, name: str, valid: bytearray, nan: bytearray,
                 floats: bytearray, numeric: bool, data: array | None,
                 n_valid: int, n_float: int) -> None:
        self.name = name
        self.valid = valid
        self.nan = nan
        self.floats = floats
        self.numeric = numeric
        self.data = data
        self.n_valid = n_valid
        self.n_float = n_float

    def renamed(self, name: str) -> "AggColumn":
        """The same buffers under another name."""
        return AggColumn(name, self.valid, self.nan, self.floats,
                         self.numeric, self.data, self.n_valid, self.n_float)

    @property
    def mixed_number_types(self) -> bool:
        """True when the column holds both int- and float-typed values.
        An order-sensitive kernel (MIN/MAX) cannot reconstruct which
        *type* won a cross-type tie from the float64 image, so such
        columns stay on the row path.
        """
        return 0 < self.n_float < self.n_valid

    def valid_np(self, xp):
        return xp.frombuffer(self.valid, dtype=xp.uint8).astype(bool)

    def nan_np(self, xp):
        return xp.frombuffer(self.nan, dtype=xp.uint8).astype(bool)

    def floats_np(self, xp):
        return xp.frombuffer(self.floats, dtype=xp.uint8).astype(bool)

    def data_np(self, xp):
        return xp.frombuffer(self.data, dtype=xp.float64)


class ColumnBatch:
    """The columnar image of one cube task's input rows."""

    __slots__ = ("n_rows", "dims", "aggs")

    def __init__(self, n_rows: int, dims: list, aggs: list) -> None:
        self.n_rows = n_rows
        self.dims = dims
        self.aggs = aggs

    def cardinalities(self) -> list[int]:
        return [column.cardinality for column in self.dims]

    @classmethod
    def from_task(cls, task) -> "ColumnBatch":
        """Batch a task's rows into typed columns.

        A position the task copied verbatim from its source table
        (``task.source``) is *selected* from the table's
        :class:`TableImage` -- encoded once per table version, buffers
        shared, renamed here.  Only computed positions are encoded per
        batch, from the rows, checkpointing every :data:`BATCH_ROWS`
        rows.  Computed aggregate inputs that are element-wise the
        *same value objects* share one set of masks and one float64
        buffer instead of re-scanning per spec."""
        rows = task.rows
        n_dims = task.n_dims
        source = task.source
        if source is None:
            table = image = None
            dim_sources = (None,) * n_dims
            agg_sources = (None,) * task.n_aggs
        else:
            table = source.table()
            image = _image_at(table, source.version)
            dim_sources, agg_sources = source.dims, source.aggs
        dims = [
            DictEncodedColumn(name, *_encode([row[i] for row in rows]))
            if position is None
            else _image_column(table, image, ("dim", position), rows,
                               i).renamed(name)
            for i, (name, position) in enumerate(zip(task.dims,
                                                     dim_sources))
        ]
        aggs: list[AggColumn] = []
        built: list[tuple[list, AggColumn]] = []
        for p, (name, position) in enumerate(zip(task.agg_names,
                                                 agg_sources)):
            if position is not None:
                aggs.append(_image_column(table, image, ("agg", position),
                                          rows, n_dims + p).renamed(name))
                continue
            raw = [row[n_dims + p] for row in rows]
            for other_raw, other in built:
                if all(map(operator.is_, raw, other_raw)):
                    aggs.append(other.renamed(name))
                    break
            else:
                column = _build_agg_column(name, raw)
                built.append((raw, column))
                aggs.append(column)
        return cls(len(rows), dims, aggs)

    @classmethod
    def from_columns(cls, dim_columns: dict, agg_columns: dict) -> "ColumnBatch":
        """Build a batch straight from column lists (the shape
        :meth:`repro.engine.table.Table.columns` returns)."""
        lengths = {len(vals) for vals in list(dim_columns.values())
                   + list(agg_columns.values())}
        if len(lengths) > 1:
            # caller-contract violation, documented as ValueError
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")  # repro: allow-S004
        n_rows = lengths.pop() if lengths else 0
        dims = [DictEncodedColumn(name, *_encode(values))
                for name, values in dim_columns.items()]
        aggs = [_build_agg_column(name, list(values))
                for name, values in agg_columns.items()]
        return cls(n_rows, dims, aggs)


class TableImage:
    """One table version's encoded columns, shared by every query that
    reads that version.

    It lives in the table's ``memo`` slot, which every table mutator
    clears, and is filled lazily: a column is encoded the first time a
    query selects it.  Keys are ``("dim", position)`` for a
    :class:`DictEncodedColumn`, ``("agg", position)`` for an
    :class:`AggColumn`, and ``("agg", "*")`` for the COUNT(*) column of
    ones.  Dictionaries follow the table's row order, which is the
    first-seen order of every task built from it.
    """

    __slots__ = ("version", "columns")

    def __init__(self, version: int) -> None:
        self.version = version
        self.columns: dict[tuple, Any] = {}


def _image_at(table: "Table | None", version: int) -> TableImage:
    """``table``'s image if it is at ``version`` (the version a task's
    rows were read at), else a fresh, detached image for that version."""
    image = table.memo if table is not None else None
    if isinstance(image, TableImage) and image.version == version:
        return image
    return TableImage(version)


def _image_column(table: "Table | None", image: TableImage, key: tuple,
                  rows: list, index: int):
    """Column ``key`` of ``image``: selected when present, else encoded
    from the task's copy of it, ``rows[*][index]``, through the same
    encoders computed positions use, and kept in the image.

    No lock: two readers encoding the same column build equal columns.
    The image is attached to ``table`` only while the table is alive
    and still at the image's version, so neither a stale task nor a
    racing writer leaves a wrong column in a table's image (a detached
    image still shares its columns within one batch)."""
    column = image.columns.get(key)
    if column is None:
        values = [row[index] for row in rows]
        column = (DictEncodedColumn("", *_encode(values)) if key[0] == "dim"
                  else _build_agg_column("", values))
        image.columns[key] = column
        if table is not None and table.version == image.version:
            table.memo = image
    return column


def _encode(values: list) -> tuple[list, array]:
    """Dictionary-encode one column: (decode list, int64 codes)."""
    encoder: dict[Any, int] = {}
    codes = array("q", bytes(8 * len(values)))
    for start in range(0, len(values), BATCH_ROWS):
        rctx.checkpoint("columnar encode batch")
        for i in range(start, min(start + BATCH_ROWS, len(values))):
            value = values[i]
            try:
                codes[i] = encoder[value]
            except KeyError:
                codes[i] = encoder[value] = len(encoder)
    return list(encoder), codes


def _build_agg_column(name: str, raw: list) -> AggColumn:
    n = len(raw)
    valid = bytearray(n)
    nan = bytearray(n)
    floats = bytearray(n)
    numeric = True
    n_valid = 0
    n_float = 0
    for start in range(0, n, BATCH_ROWS):
        rctx.checkpoint("columnar encode batch")
        for i in range(start, min(start + BATCH_ROWS, n)):
            value = raw[i]
            # exact-type fast paths first: the hot loop is all ints or
            # all floats, and ``type() is`` beats the isinstance chain
            cls = type(value)
            if cls is int:
                valid[i] = 1
                n_valid += 1
                continue
            if cls is float:
                valid[i] = 1
                n_valid += 1
                floats[i] = 1
                n_float += 1
                if value != value:  # NaN without a math.isnan call
                    nan[i] = 1
                continue
            if is_null_or_all(value):
                continue
            valid[i] = 1
            n_valid += 1
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                numeric = False
            elif isinstance(value, float):
                floats[i] = 1
                n_float += 1
                if math.isnan(value):
                    nan[i] = 1
    data = None
    if numeric:
        if n_valid == n:
            data = array("d", raw)  # no NULL slots: one C-level copy
        else:
            data = array("d", bytes(8 * n))
            for i in range(n):
                if valid[i]:
                    data[i] = raw[i]
    return AggColumn(name, valid, nan, floats, numeric, data, n_valid,
                     n_float)
