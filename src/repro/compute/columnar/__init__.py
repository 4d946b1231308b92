"""Vectorized columnar execution backend for the cube hot path.

Batches rows into typed column arrays, dictionary-encodes dimensions,
and scatter-aggregates through fused grouped kernels; super-aggregates
fold either through the Section 5 dense-array projections or through
the lattice fold on kernel arrays.  The batch buffers are stdlib
arrays; the kernels run on numpy, and without it every cube takes the
row path.
"""

from repro.compute.columnar.algorithm import (
    COLUMNAR_ROW_THRESHOLD,
    ColumnarCubeAlgorithm,
)
from repro.compute.columnar.batch import (
    AggColumn,
    ColumnBatch,
    DictEncodedColumn,
    HAVE_NUMPY,
)
from repro.compute.columnar.kernels import (
    KERNELS,
    kernel_for,
    kernel_needs_numeric,
)

__all__ = [
    "AggColumn",
    "COLUMNAR_ROW_THRESHOLD",
    "ColumnBatch",
    "ColumnarCubeAlgorithm",
    "DictEncodedColumn",
    "HAVE_NUMPY",
    "KERNELS",
    "kernel_for",
    "kernel_needs_numeric",
]
