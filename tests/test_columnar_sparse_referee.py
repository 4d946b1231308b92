"""Referee for the columnar sparse route: it must return from-core's
rows list for list -- same order, same ``repr`` -- on both kernel
backends, and report the same logical work counters.

The inputs are the ones exact float folds get wrong first: 2-decimal
prices and ``random()*1e3`` (float SUM/AVG depend on merge order), a
measure mixing NaN, +-inf, NULL and ints, and dimensions whose values
group by Python equality (``1``/``1.0``/``True`` are one group; one
shared NaN object is one group, a second NaN object is another).
"""

import random

import pytest

from repro import Table
from repro.aggregates import (
    Average,
    Count,
    CountStar,
    Max,
    Min,
    StdDev,
    Sum,
    Variance,
)
from repro.compute import build_task
from repro.compute.columnar import HAVE_NUMPY, ColumnarCubeAlgorithm
from repro.compute.from_core import FromCoreAlgorithm
from repro.core.grouping import cube_sets, rollup_sets
from repro.engine.groupby import AggregateSpec

SHARED_NAN = float("nan")
OTHER_NAN = float("nan")
INF = float("inf")

LATTICES = {
    "cube": cube_sets(3),
    "rollup": rollup_sets(3),
    # GROUPING SETS ((d0,d1,d2), (d0,d1), (d0,d2), (d0), ()): connected
    "grouping_sets": [0b111, 0b011, 0b101, 0b001, 0b000],
}

BACKENDS = [pytest.param(True, id="python"),
            pytest.param(False, id="numpy",
                         marks=pytest.mark.skipif(
                             not HAVE_NUMPY, reason="numpy not installed"))]

COUNTERS = ("iter_calls", "merge_calls", "start_calls", "end_calls",
            "cells_produced", "max_resident_cells")


def _rows(n=600, seed=43):
    rng = random.Random(seed)
    wild = [SHARED_NAN, INF, -INF, None, 0, 3, -7, 12, None, 5]
    rows = []
    for _ in range(n):
        rows.append((
            rng.choice([1, 1.0, True, 2, 3]),
            rng.choice([SHARED_NAN, OTHER_NAN, "a", "b", "c"]),
            rng.choice(["p", "q", "r", "s"]),
            round(rng.random() * 100, 2),
            rng.random() * 1e3,
            rng.choice(wild),
        ))
    return rows


def _specs(with_variance):
    specs = [AggregateSpec(CountStar(), "*", "n")]
    for column in ("price", "rand", "wild"):
        specs += [AggregateSpec(Sum(), column, f"sum_{column}"),
                  AggregateSpec(Average(), column, f"avg_{column}"),
                  AggregateSpec(Min(), column, f"min_{column}"),
                  AggregateSpec(Max(), column, f"max_{column}"),
                  AggregateSpec(Count(), column, f"count_{column}")]
        if with_variance:
            specs += [AggregateSpec(Variance(), column, f"var_{column}"),
                      AggregateSpec(StdDev(), column, f"sd_{column}")]
    return specs


def _task(masks, with_variance):
    table = Table([("d0", "ANY"), ("d1", "ANY"), ("d2", "STRING"),
                   ("price", "FLOAT"), ("rand", "FLOAT"), ("wild", "ANY")],
                  _rows())
    return build_task(table, ["d0", "d1", "d2"], _specs(with_variance),
                      masks)


def _run(algorithm, task):
    result = algorithm.compute(task)
    return [repr(row) for row in result.table.rows], result.stats


@pytest.mark.parametrize("force_python", BACKENDS)
@pytest.mark.parametrize("lattice", sorted(LATTICES))
class TestSparseEqualsFromCore:
    def test_rows_identical_in_order_and_repr(self, lattice, force_python):
        # numpy VARIANCE folds (n, sum, sum of squares): rounded
        # differently from the row path's Welford merge by design
        task = _task(LATTICES[lattice], with_variance=force_python)
        sparse = ColumnarCubeAlgorithm(mode="sparse",
                                       force_python=force_python)
        got, stats = _run(sparse, task)
        expected, _ = _run(FromCoreAlgorithm(), task)
        assert stats.notes["route"] == "sparse"
        assert got == expected

    def test_work_counters_match_from_core(self, lattice, force_python):
        task = _task(LATTICES[lattice], with_variance=force_python)
        sparse = ColumnarCubeAlgorithm(mode="sparse",
                                       force_python=force_python)
        _, stats = _run(sparse, task)
        _, reference = _run(FromCoreAlgorithm(), task)
        assert ({name: getattr(stats, name) for name in COUNTERS}
                == {name: getattr(reference, name) for name in COUNTERS})


@pytest.mark.parametrize("force_python,expected", [
    pytest.param(True, {"iter_calls": 12288, "merge_calls": 4884,
                        "start_calls": 2640, "end_calls": 2640,
                        "cells_produced": 120, "max_resident_cells": 120},
                 id="python"),
    pytest.param(False, {"iter_calls": 8912, "merge_calls": 3552,
                         "start_calls": 1920, "end_calls": 1920,
                         "cells_produced": 120, "max_resident_cells": 120},
                 id="numpy", marks=pytest.mark.skipif(
                     not HAVE_NUMPY, reason="numpy not installed")),
])
def test_cube_counters_pinned(force_python, expected):
    """The logical counts of the 3-dim CUBE: one Iter per accepted
    value, one Iter_super per parent cell and aggregate, one Init and
    one Final per cell, every lattice cell resident at the peak."""
    task = _task(LATTICES["cube"], with_variance=force_python)
    _, stats = _run(ColumnarCubeAlgorithm(mode="sparse",
                                          force_python=force_python), task)
    assert {name: getattr(stats, name) for name in COUNTERS} == expected
