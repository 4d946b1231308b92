"""Partial-cube materialization: the HRU greedy selection Section 6
references, and answering queries from materialized ancestors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Table, agg
from repro.aggregates import Median, Sum
from repro.compute import PartialCube, build_task, greedy_select, view_sizes
from repro.compute.view_selection import _cheapest_ancestor
from repro.core.cube import cube as cube_op
from repro.core.grouping import cube_sets, names_to_mask
from repro.core.lattice import CubeLattice
from repro.data import SyntheticSpec, synthetic_table
from repro.engine.groupby import AggregateSpec
from repro.errors import NotMergeableError


@pytest.fixture
def fact():
    return synthetic_table(SyntheticSpec(
        cardinalities=(8, 4, 2), n_rows=600, seed=71))


DIMS = ["d0", "d1", "d2"]
AGGS = [AggregateSpec(Sum(), "m", "s")]


def make_task(table):
    return build_task(table, DIMS, AGGS, cube_sets(3))


class TestViewSizes:
    def test_sizes_are_exact_distinct_counts(self, fact):
        task = make_task(fact)
        sizes = view_sizes(task)
        core_mask = names_to_mask(DIMS, DIMS)
        assert sizes[core_mask] == len({row[:3] for row in fact})
        assert sizes[0] == 1  # the grand-total view
        d0_mask = names_to_mask(["d0"], DIMS)
        assert sizes[d0_mask] == len(fact.distinct_values("d0"))

    def test_monotone_down_the_lattice(self, fact):
        task = make_task(fact)
        sizes = view_sizes(task)
        lattice = CubeLattice(DIMS, list(sizes))
        for mask in sizes:
            for parent in lattice.parents(mask):
                assert sizes[parent] >= sizes[mask]


class TestGreedySelect:
    def test_core_always_included(self, fact):
        sizes = view_sizes(make_task(fact))
        selected = greedy_select(sizes, 2, dims=DIMS)
        assert selected[0] == names_to_mask(DIMS, DIMS)

    def test_k_bounds_extra_views(self, fact):
        sizes = view_sizes(make_task(fact))
        for k in (0, 1, 3):
            selected = greedy_select(sizes, k, dims=DIMS)
            assert len(selected) <= k + 1

    def test_greedy_prefers_high_benefit_views(self):
        # hand-built sizes: (d0,d1) almost as big as the core is a bad
        # pick; (d0,) is tiny and serves many targets
        dims = ("d0", "d1")
        sizes = {0b11: 1000, 0b01: 10, 0b10: 900, 0b00: 1}
        selected = greedy_select(sizes, 1, dims=dims)
        assert selected == [0b11, 0b01]

    def test_stops_when_nothing_helps(self):
        dims = ("d0",)
        sizes = {0b1: 5, 0b0: 5}  # coarser view saves nothing
        selected = greedy_select(sizes, 3, dims=dims)
        assert selected == [0b1]


class TestPartialCube:
    def test_answers_equal_full_cube(self, fact):
        partial = PartialCube(fact, DIMS, AGGS, budget=2)
        full = cube_op(fact, DIMS, [agg("SUM", "m", "s")],
                       sort_result=False)
        for grouped in ([], ["d0"], ["d1"], ["d0", "d1"],
                        ["d0", "d1", "d2"], ["d2"]):
            answer = partial.query(grouped)
            mask_rows = [row for row in full
                         if all((row[i] is not None) for i in range(3))]
            # compare against the full cube's stratum
            from repro.types import ALL
            expected = [row for row in full
                        if all((row[i] is not ALL) == (DIMS[i] in grouped)
                               for i in range(3))]
            assert sorted(answer.rows, key=str) == sorted(expected,
                                                          key=str)

    def test_materialized_views_answer_without_folding(self, fact):
        partial = PartialCube(fact, DIMS, AGGS,
                              materialize=[names_to_mask(["d0"], DIMS)])
        before = partial.stats.merge_calls
        partial.query(["d0"])  # materialized: no new merges
        assert partial.stats.merge_calls == before

    def test_unmaterialized_queries_fold_ancestors(self, fact):
        partial = PartialCube(fact, DIMS, AGGS, materialize=[])
        before = partial.stats.merge_calls
        partial.query(["d1"])
        assert partial.stats.merge_calls > before

    def test_query_cost_uses_cheapest_ancestor(self, fact):
        d0 = names_to_mask(["d0"], DIMS)
        partial = PartialCube(fact, DIMS, AGGS, materialize=[d0])
        # the grand total can be answered from (d0,) -- 8 rows -- rather
        # than the core
        assert partial.query_cost([]) == partial.sizes[d0]

    def test_space_cost_reported(self, fact):
        sparse = PartialCube(fact, DIMS, AGGS, materialize=[])
        rich = PartialCube(fact, DIMS, AGGS, budget=6)
        assert rich.materialized_rows >= sparse.materialized_rows

    def test_rejects_strict_holistic(self, fact):
        with pytest.raises(NotMergeableError):
            PartialCube(fact, DIMS,
                        [AggregateSpec(Median(carrying=False), "m", "v")])

    def test_describe(self, fact):
        partial = PartialCube(fact, DIMS, AGGS, budget=1)
        text = partial.describe()
        assert "views" in text and "cells" in text

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from("pq"),
                  st.integers(0, 20)),
        min_size=1, max_size=30))
    def test_property_all_strata_answerable(self, rows):
        table = Table([("d0", "STRING"), ("d1", "STRING"),
                       ("m", "INTEGER")], rows)
        partial = PartialCube(table, ["d0", "d1"],
                              [AggregateSpec(Sum(), "m", "s")], budget=1)
        full = cube_op(table, ["d0", "d1"], [agg("SUM", "m", "s")],
                       sort_result=False)
        from repro.types import ALL
        for grouped in ([], ["d0"], ["d1"], ["d0", "d1"]):
            answer = partial.query(grouped)
            expected = [row for row in full
                        if all((row[i] is not ALL) ==
                               (f"d{i}" in grouped) for i in range(2))]
            assert sorted(answer.rows, key=str) == sorted(expected,
                                                          key=str)


class TestCheapestAncestor:
    def test_prefers_smaller_view(self):
        dims = ("a", "b")
        sizes = {0b11: 100, 0b01: 5, 0b10: 50, 0b00: 1}
        lattice = CubeLattice(dims, list(sizes))
        # the total (0b00) can use any view; the (a,) view is smallest
        assert _cheapest_ancestor(0b00, {0b11, 0b01, 0b10}, sizes,
                                  lattice) == 0b01


class TestViewSizesMemo:
    def test_single_pass_memoized_on_task(self, fact):
        task = make_task(fact)
        first = view_sizes(task)
        second = view_sizes(task)
        assert first == second
        assert second is not task._view_sizes_memo  # callers get a copy

    def test_stats_recorded_once_per_actual_scan(self, fact):
        from repro.compute.stats import ComputeStats
        task = make_task(fact)
        stats = ComputeStats()
        view_sizes(task, stats=stats)
        assert stats.base_scans == 1
        assert stats.notes["view_sizes_rows"] == len(fact)
        view_sizes(task, stats=stats)  # memo hit: no work, no charge
        assert stats.base_scans == 1

    def test_partial_cube_reuses_the_sizing_pass(self, fact):
        partial = PartialCube(fact, DIMS, AGGS, budget=1)
        # one build pass; the sizes come from the core it produced
        assert partial.stats.base_scans == 1
        assert partial.sizes == view_sizes(make_task(fact))


class TestAnswerInstrumentation:
    def test_answer_emits_span_and_metric(self, fact):
        from repro.obs.metrics import REGISTRY
        from repro.obs.trace import Tracer, use_tracer

        partial = PartialCube(fact, DIMS, AGGS, materialize=[])
        counter = REGISTRY.counter("repro_view_rows_scanned_total")
        before = counter.value
        with use_tracer(Tracer()) as tracer:
            result, scanned = partial.answer_with_cost(
                names_to_mask(["d0"], DIMS))
        assert scanned == partial.sizes[names_to_mask(DIMS, DIMS)]
        assert len(result) == len(fact.distinct_values("d0"))
        assert counter.value == before + scanned
        spans = [s for s in tracer.roots if s.name == "view.answer"]
        assert len(spans) == 1
        attrs = spans[0].attributes
        assert attrs["materialized"] is False
        assert attrs["rows_scanned"] == scanned
        assert attrs["grouping_set"] == "d0"

    def test_materialized_answer_scans_only_itself(self, fact):
        d0 = names_to_mask(["d0"], DIMS)
        partial = PartialCube(fact, DIMS, AGGS, materialize=[d0])
        _, scanned = partial.answer_with_cost(d0)
        assert scanned == partial.sizes[d0]
