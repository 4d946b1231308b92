"""Property-based maintenance testing: after ANY stream of inserts,
deletes, and updates, the materialized cube equals a from-scratch
recomputation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Table, agg
from repro.core.cube import cube as cube_op
from repro.maintenance import MaterializedCube

DIMS = ["d0", "d1"]
AGGS = [agg("SUM", "x", "s"), agg("COUNT", "*", "n"),
        agg("MAX", "x", "hi"), agg("MIN", "x", "lo"),
        agg("AVG", "x", "a")]

row_strategy = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(["p", "q"]),
    # NULL measures: a cell whose non-NULL values all leave must finalize
    # SUM/MIN/MAX/AVG to NULL like a recompute, not to 0
    st.one_of(st.integers(-20, 20), st.none()))


def exact_clean(table):
    """Fresh recompute with the same aggregate set."""
    return cube_op(table, DIMS, AGGS)


@settings(max_examples=40, deadline=None)
@given(initial=st.lists(row_strategy, min_size=0, max_size=10),
       operations=st.lists(
           st.tuples(st.sampled_from(["insert", "delete"]), row_strategy),
           min_size=1, max_size=20))
def test_cube_stays_consistent_under_random_streams(initial, operations):
    base = Table([("d0", "STRING"), ("d1", "STRING"), ("x", "INTEGER")],
                 initial)
    mc = MaterializedCube(base, DIMS, AGGS)
    shadow = list(initial)

    for op, row in operations:
        if op == "insert":
            mc.insert(row)
            shadow.append(row)
        else:
            if row in shadow:
                mc.delete(row)
                shadow.remove(row)
            else:
                # deleting an absent row must raise and leave state intact
                from repro.errors import MaintenanceError
                with pytest.raises(MaintenanceError):
                    mc.delete(row)

    expected_table = Table(base.schema, shadow)
    assert mc.as_table().equals_bag(exact_clean(expected_table))


@settings(max_examples=40, deadline=None)
@given(initial=st.lists(row_strategy, min_size=0, max_size=10),
       operations=st.lists(
           st.tuples(st.sampled_from(["insert", "delete", "update"]),
                     row_strategy, row_strategy),
           min_size=1, max_size=20))
def test_reversible_aggregates_match_recompute(initial, operations):
    """SUM/COUNT/AVG never decline a delete, so no cell is rebuilt from
    base rows: the scratchpads alone must reach the recompute's answer,
    NULL included, through deletes and in-place updates."""
    aggs = [agg("SUM", "x", "s"), agg("COUNT", "x", "n"),
            agg("AVG", "x", "a")]
    base = Table([("d0", "STRING"), ("d1", "STRING"), ("x", "INTEGER")],
                 initial)
    mc = MaterializedCube(base, DIMS, aggs)
    shadow = list(initial)
    for op, row, other in operations:
        if op == "insert":
            mc.insert(row)
            shadow.append(row)
        elif row in shadow:
            if op == "delete":
                mc.delete(row)
            else:  # keep the dimensions: the in-place update route
                other = row[:2] + other[2:]
                mc.update(row, other)
                shadow.append(other)
            shadow.remove(row)
    expected = cube_op(Table(base.schema, shadow), DIMS, aggs)
    assert mc.as_table().equals_bag(expected)


@settings(max_examples=25, deadline=None)
@given(initial=st.lists(row_strategy, min_size=2, max_size=8),
       updates=st.lists(st.tuples(st.integers(0, 7), row_strategy),
                        min_size=1, max_size=8))
def test_updates_stay_consistent(initial, updates):
    base = Table([("d0", "STRING"), ("d1", "STRING"), ("x", "INTEGER")],
                 initial)
    mc = MaterializedCube(base, DIMS, AGGS)
    shadow = list(initial)

    for index, new_row in updates:
        old_row = shadow[index % len(shadow)]
        mc.update(old_row, new_row)
        shadow.remove(old_row)
        shadow.append(new_row)

    expected_table = Table(base.schema, shadow)
    assert mc.as_table().equals_bag(exact_clean(expected_table))


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(row_strategy, min_size=1, max_size=12))
def test_insert_only_equals_bulk_build(rows):
    """Building row-by-row equals building at once."""
    empty = Table([("d0", "STRING"), ("d1", "STRING"), ("x", "INTEGER")])
    incremental = MaterializedCube(empty, DIMS, AGGS)
    for row in rows:
        incremental.insert(row)
    bulk = MaterializedCube(
        Table(empty.schema, rows), DIMS, AGGS)
    assert incremental.as_table().equals_bag(bulk.as_table())
