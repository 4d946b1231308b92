"""Materialized-cube maintenance (Section 6): insert propagation with
the short-circuit, delete with the holistic recompute, triggers."""

import pytest

from repro import ALL, Catalog, Table, agg
from repro.core.cube import cube as cube_op, rollup as rollup_op
from repro.errors import DeleteRequiresRecomputeError, MaintenanceError
from repro.maintenance import MaterializedCube, attach_cube_maintenance


@pytest.fixture
def base(sales):
    return sales


def fresh_cube(table, aggs=None):
    return cube_op(table, ["Model", "Year", "Color"],
                   aggs or [agg("SUM", "Units", "u")])


class TestBuild:
    def test_initial_contents_match_recompute(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        assert mc.as_table().equals_bag(fresh_cube(base))

    def test_rollup_kind(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")], kind="rollup")
        expected = rollup_op(base, ["Model", "Year", "Color"],
                             [agg("SUM", "Units", "u")])
        assert mc.as_table().equals_bag(expected)

    def test_unknown_kind(self, base):
        with pytest.raises(MaintenanceError):
            MaterializedCube(base, ["Model"], [agg("SUM", "Units", "u")],
                             kind="hypercube")

    def test_cell_count(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        assert len(mc) == 27

    def test_value_accessor(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        assert mc.value("Chevy", ALL, ALL) == 290
        assert mc.value("Tesla", ALL, ALL) is None


class TestInsert:
    def test_insert_updates_all_levels(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        mc.insert(("Chevy", 1994, "red", 25))
        assert mc.value(ALL, ALL, ALL) == 535
        assert mc.value("Chevy", 1994, ALL) == 115
        assert mc.value("Chevy", 1994, "red") == 25  # new cell appears

    def test_insert_touches_at_most_2n_cells(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        touched = mc.insert(("Ford", 1995, "red", 1))
        assert touched <= 2 ** 3

    def test_insert_matches_recompute(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        mc.insert(("Ford", 1996, "blue", 12))
        base.append(("Ford", 1996, "blue", 12))
        assert mc.as_table().equals_bag(fresh_cube(base))

    def test_max_short_circuit_counts(self, base):
        # a losing value prunes the MAX walk at coarser cells
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("MAX", "Units", "m")])
        before = mc.stats.cells_short_circuited
        mc.insert(("Chevy", 1994, "black", 1))  # loses instantly
        assert mc.stats.cells_short_circuited > before

    def test_winning_insert_is_not_short_circuited(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("MAX", "Units", "m")])
        mc.insert(("Chevy", 1994, "black", 999))  # beats everything
        assert mc.value(ALL, ALL, ALL) == 999


class TestDelete:
    def test_sum_delete_is_cheap(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        mc.delete(("Chevy", 1994, "black", 50))
        assert mc.value(ALL, ALL, ALL) == 460
        assert mc.stats.cells_recomputed == 0  # SUM absorbs deletes

    def test_deleting_last_row_of_cell_evicts_it(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        mc.delete(("Chevy", 1994, "black", 50))
        assert mc.value("Chevy", 1994, "black") is None
        assert len(mc) < 27

    def test_max_delete_forces_recompute(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("MAX", "Units", "m")])
        mc.delete(("Chevy", 1995, "white", 115))  # the global max
        assert mc.stats.cells_recomputed > 0
        assert mc.stats.rows_rescanned > 0
        assert mc.value(ALL, ALL, ALL) == 85

    def test_delete_matches_recompute(self, base):
        aggs = [agg("SUM", "Units", "u"), agg("MAX", "Units", "m"),
                agg("AVG", "Units", "a")]
        mc = MaterializedCube(base, ["Model", "Year", "Color"], aggs)
        mc.delete(("Ford", 1994, "white", 10))
        base.delete_row(("Ford", 1994, "white", 10))
        assert mc.as_table().equals_bag(fresh_cube(base, aggs))

    def test_delete_missing_row_raises(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        with pytest.raises(MaintenanceError):
            mc.delete(("Tesla", 2020, "red", 1))

    def test_delete_holistic_without_base_raises(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("MAX", "Units", "m")],
                              retain_base=False)
        with pytest.raises(DeleteRequiresRecomputeError):
            mc.delete(("Chevy", 1995, "white", 115))

    def test_delete_without_base_works_for_reversible(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")],
                              retain_base=False)
        mc.delete(("Chevy", 1994, "black", 50))
        assert mc.value(ALL, ALL, ALL) == 460

    def test_replayed_delete_never_drives_count_negative(self):
        # regression: a replayed delete (a chaos-injected retry) used to
        # unapply COUNT below zero.  It must decline at zero -- without
        # the retained base that surfaces as DeleteRequiresRecompute and
        # rolls the whole walk back, leaving the cube consistent.
        table = Table([("g", "STRING"), ("x", "INTEGER")],
                      [("p", 5), ("p", None), ("p", None)])
        mc = MaterializedCube(table, ["g"], [agg("COUNT", "x", "c")],
                              retain_base=False)
        mc.delete(("p", 5))
        assert mc.value("p") == 0
        with pytest.raises(DeleteRequiresRecomputeError):
            mc.delete(("p", 5))  # the replay
        assert mc.value("p") == 0  # rollback left the cell intact


class TestUpdate:
    def test_update_is_delete_plus_insert(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        mc.update(("Ford", 1994, "white", 10), ("Ford", 1994, "white", 60))
        assert mc.value("Ford", 1994, "white") == 60
        assert mc.value(ALL, ALL, ALL) == 560
        assert mc.stats.updates == 1

    def test_measure_only_update_stays_in_place(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        mc.update(("Chevy", 1994, "black", 50),
                  ("Chevy", 1994, "black", 60))
        # in-place: every affected cell swaps measures, no count churn,
        # no constituent insert/delete recorded
        assert mc.stats.inserts == 0 and mc.stats.deletes == 0
        assert mc.stats.cells_updated == 8  # 2^3 grouping sets
        assert list(mc.stats.per_operation_touched) == [8]
        mutated = Table(base.schema,
                        [("Chevy", 1994, "black", 60) if row[3] == 50
                         and row[0] == "Chevy" and row[1] == 1994
                         else row for row in base.rows])
        assert mc.as_table().equals_bag(fresh_cube(mutated))

    def test_dimension_change_routes_as_delete_plus_insert(self, base):
        # moving the row between cells must not take the in-place path:
        # the old coordinate loses its only contributor and empties
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("MIN", "Units", "lo")])
        mc.update(("Ford", 1994, "white", 10), ("Ford", 1996, "white", 10))
        assert mc.stats.updates == 1
        assert mc.stats.inserts == 1 and mc.stats.deletes == 1
        assert mc.value("Ford", 1994, "white") is None  # cell evicted
        assert mc.value("Ford", 1996, "white") == 10
        mutated = Table(base.schema,
                        [("Ford", 1996, "white", 10)
                         if row == ("Ford", 1994, "white", 10)
                         else row for row in base.rows])
        expected = cube_op(mutated, ["Model", "Year", "Color"],
                           [agg("MIN", "Units", "lo")])
        assert mc.as_table().equals_bag(expected)

    def test_in_place_update_of_min_extreme_recomputes(self, base):
        # 10 is the MIN of every cell containing it: unapply declines
        # (delete-holistic), so those cells rebuild from retained base
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("MIN", "Units", "lo")])
        mc.update(("Ford", 1994, "white", 10), ("Ford", 1994, "white", 99))
        assert mc.stats.cells_recomputed >= 1
        assert mc.value(ALL, ALL, ALL) == 40  # new global MIN
        mutated = Table(base.schema,
                        [("Ford", 1994, "white", 99)
                         if row == ("Ford", 1994, "white", 10)
                         else row for row in base.rows])
        expected = cube_op(mutated, ["Model", "Year", "Color"],
                           [agg("MIN", "Units", "lo")])
        assert mc.as_table().equals_bag(expected)

    def test_update_of_missing_row_raises(self, base):
        mc = MaterializedCube(base, ["Model", "Year", "Color"],
                              [agg("SUM", "Units", "u")])
        with pytest.raises(MaintenanceError):
            mc.update(("Ghost", 1994, "white", 1),
                      ("Ghost", 1994, "white", 2))
        # rolled back: still identical to the untouched recompute
        assert mc.as_table().equals_bag(fresh_cube(base))

    @pytest.mark.parametrize("old,new", [
        (("Ford", 1994, "white", 10), ("Ford", 1994, "white", 99)),
        (("Ford", 1994, "white", 10), ("Ford", 1996, "white", 10)),
    ])
    def test_update_replays_as_its_delete_insert_leaves(self, base,
                                                        old, new):
        # either routing journals the same leaves, so WAL replay (which
        # only knows insert/delete) converges to the identical cube
        live = MaterializedCube(base, ["Model", "Year", "Color"],
                                [agg("MIN", "Units", "lo"),
                                 agg("SUM", "Units", "u")])
        live.update(old, new)
        replayed = MaterializedCube(base, ["Model", "Year", "Color"],
                                    [agg("MIN", "Units", "lo"),
                                     agg("SUM", "Units", "u")])
        replayed.apply_replay([("delete", old), ("insert", new)])
        assert live.as_table().equals_bag(replayed.as_table())


FLOAT_SCHEMA = [("g", "STRING"), ("x", "FLOAT")]


def _float_cube(rows):
    table = Table(FLOAT_SCHEMA, rows)
    # no MIN/MAX: their declined unapply would rebuild the whole cell
    # and hide what SUM/AVG/COUNT do on their own
    aggs = [agg("SUM", "x", "s"), agg("AVG", "x", "a"),
            agg("COUNT", "x", "n")]
    return MaterializedCube(table, ["g"], aggs), aggs


def _cells(table):
    return sorted(repr(tuple(row)) for row in table.rows)


class TestMatchesColdCube:
    """After a delete or update the cube answers what a cold ``cube()``
    over the surviving rows answers, cell for cell and repr for repr."""

    def test_delete_of_a_nan_row(self):
        # NaN - NaN is NaN: SUM/AVG cannot unapply it, so the cell is
        # rebuilt from the retained rows
        nan_row = ("x", float("nan"))
        mc, aggs = _float_cube([("x", 1.0), nan_row, ("y", 2.5)])
        mc.delete(nan_row)
        cold = cube_op(Table(FLOAT_SCHEMA, [("x", 1.0), ("y", 2.5)]),
                       ["g"], aggs)
        assert _cells(mc.as_table()) == _cells(cold)

    def test_update_of_the_last_value_to_null(self):
        # the cell keeps two rows but no non-NULL value: SUM/AVG are
        # NULL again and COUNT is 0, not SUM = 0
        mc, aggs = _float_cube([("x", 1), ("x", None)])
        mc.update(("x", 1), ("x", None))
        cold = cube_op(Table(FLOAT_SCHEMA, [("x", None), ("x", None)]),
                       ["g"], aggs)
        assert _cells(mc.as_table()) == _cells(cold)


class TestStatsWindow:
    def test_per_operation_trail_is_bounded(self, base):
        from repro.maintenance.propagation import PER_OPERATION_WINDOW
        mc = MaterializedCube(base, ["Model"],
                              [agg("SUM", "Units", "u")])
        for i in range(PER_OPERATION_WINDOW + 50):
            mc.insert(("Chevy", 1994, "red", 1))
        assert mc.stats.inserts == PER_OPERATION_WINDOW + 50  # exact
        trail = mc.stats.per_operation_touched
        assert len(trail) == PER_OPERATION_WINDOW  # detail is a ring
        assert mc.stats.summary()  # reporting still works
        assert mc.stats.as_dict()["inserts"] == PER_OPERATION_WINDOW + 50


class TestTriggers:
    def test_catalog_keeps_cube_fresh(self, base):
        catalog = Catalog()
        catalog.register("Sales", base)
        mc = attach_cube_maintenance(catalog, "Sales",
                                     ["Model", "Year", "Color"],
                                     [agg("SUM", "Units", "u")])
        catalog.insert("Sales", ("Ford", 1995, "red", 5))
        catalog.delete("Sales", ("Chevy", 1994, "white", 40))
        catalog.update("Sales", ("Ford", 1994, "black", 50),
                       ("Ford", 1994, "black", 55))
        assert mc.as_table().equals_bag(fresh_cube(catalog.get("Sales")))

    def test_view_and_query(self, base):
        mc = MaterializedCube(base, ["Model", "Year"],
                              [agg("SUM", "Units", "u")])
        view = mc.view()
        assert view.total() == 510
