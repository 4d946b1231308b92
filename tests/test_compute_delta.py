"""The shared Section 6 cell-maintenance core (:mod:`repro.compute.delta`)
with scratchpads that change in place: a carrying MEDIAN keeps its
values in a list that ``next`` appends to and ``unapply`` removes from.
A declined delta and a rolled-back transaction must both leave such
cells exactly as they were."""

import pytest

from repro import agg
from repro.aggregates.registry import default_registry
from repro.compute.view_selection import PartialCube
from repro.engine.groupby import AggregateSpec
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import DeltaRequiresInvalidationError, MaintenanceError
from repro.maintenance import MaterializedCube
from repro.types import DataType

SCHEMA = Schema([Column("a", DataType.STRING), Column("b", DataType.STRING),
                 Column("m", DataType.ANY)])
BASE = [("x", "p", 4), ("x", "q", 9), ("y", "p", 2), ("y", "q", 7),
        ("x", "p", 6), ("y", "q", 1)]
MASKS = [3, 2, 1, 0]


def answers(cube):
    return {mask: sorted(repr(row) for row in cube.answer(mask).rows)
            for mask in MASKS}


def test_declined_delta_leaves_in_place_scratchpads_untouched():
    # (x, p) holds {4, 6}: MEDIAN can unapply 4, MIN cannot (4 is the
    # minimum), so the delta declines -- after MEDIAN already staged
    specs = [AggregateSpec(default_registry.create("MEDIAN"), "m", "med"),
             AggregateSpec(default_registry.create("MIN"), "m", "lo")]
    cube = PartialCube(Table(SCHEMA, BASE), ["a", "b"], specs,
                       materialize=MASKS, universe=MASKS)
    before = answers(cube)
    with pytest.raises(DeltaRequiresInvalidationError):
        cube.apply_delta((), [("x", "p", 4)])
    assert answers(cube) == before


def test_rollback_restores_in_place_scratchpads():
    cube = MaterializedCube(Table(SCHEMA, BASE), ["a", "b"],
                            [agg("MEDIAN", "m", "med"), agg("SUM", "m", "s")])
    before = [repr(row) for row in cube.as_table().rows]
    with pytest.raises(MaintenanceError):
        cube.apply_batch([("insert", ("x", "p", 100)),
                          ("delete", ("x", "p", 6)),
                          ("delete", ("no", "such", 1))])
    assert [repr(row) for row in cube.as_table().rows] == before
