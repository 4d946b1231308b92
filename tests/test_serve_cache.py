"""Unit tests for the semantic cuboid cache (repro.serve.cache):
containment hits, holistic/ambiguity bypasses, admission and
benefit-weighted eviction under a cell budget, and invalidation --
both eager (invalidate_table, MaterializedCube watch) and implicit
(version-keyed source signatures)."""

import pytest

from repro import agg, cube as cube_op
from repro.aggregates import Median, Min, Sum
from repro.core.grouping import cube_sets, names_to_mask
from repro.data import SyntheticSpec, synthetic_table
from repro.engine.catalog import Catalog
from repro.engine.groupby import AggregateSpec
from repro.maintenance import MaterializedCube
from repro.serve import CachePolicy, CuboidCache
from repro.types import ALL

DIMS = ("d0", "d1", "d2")
SUM_SIG = ("SUM", "m", False, ())


@pytest.fixture
def fact():
    return synthetic_table(SyntheticSpec(
        cardinalities=(8, 4, 2), n_rows=600, seed=71))


def source_for(name, version=1):
    """A source signature shaped like the SQL executor's: ((table,
    version), ...), WHERE repr, join shape, table-function keys."""
    return (((name.upper(), version),), None, (), ())


def request(cache, table, *, dims=DIMS, names=None, specs=None,
            sigs=None, agg_names=("s",), masks=None, source=None):
    specs = specs if specs is not None else [AggregateSpec(Sum(), "m", "s")]
    sigs = tuple(sigs) if sigs is not None else (SUM_SIG,)
    masks = tuple(masks) if masks is not None else tuple(cube_sets(len(dims)))
    return cache.serve(
        table=table,
        source=source if source is not None else source_for("T"),
        dim_items=list(dims),
        dim_sigs=tuple(dims),
        dim_names=tuple(names if names is not None else dims),
        specs=list(specs),
        agg_sigs=sigs,
        agg_names=tuple(agg_names),
        masks=masks)


def canon(table):
    return sorted(repr(row) for row in table.rows)


class TestHitAndMiss:
    def test_miss_admits_then_identical_hit(self, fact):
        cache = CuboidCache()
        cold = request(cache, fact)
        assert cache.stats()["misses"] == 1
        assert cache.stats()["admitted"] == 1
        warm = request(cache, fact)
        assert cache.stats()["hits"] == 1
        assert canon(cold) == canon(warm)
        reference = cube_op(fact, list(DIMS), [agg("SUM", "m", "s")])
        assert canon(cold) == canon(reference)

    def test_subset_permutation_alias_hit(self, fact):
        cache = CuboidCache()
        request(cache, fact)  # admit the full CUBE
        mask = names_to_mask(["d1", "d0"], ["d1", "d0"])
        result = request(cache, fact, dims=("d1", "d0"),
                         names=("b", "a"), masks=[mask])
        assert cache.stats()["hits"] == 1
        assert result.schema.names == ("b", "a", "s")
        reference = cube_op(fact, ["d1", "d0"], [agg("SUM", "m", "s")])
        finest = [row for row in reference if ALL not in row[:2]]
        assert canon(result) == sorted(repr(row) for row in finest)

    def test_rollup_served_from_cached_cube(self, fact):
        cache = CuboidCache()
        request(cache, fact)
        rollup_masks = [0b11, 0b01, 0b00]  # ROLLUP d0, d1
        result = request(cache, fact, dims=("d0", "d1"),
                         masks=rollup_masks)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert len(result) > 0

    def test_different_source_version_misses(self, fact):
        cache = CuboidCache()
        request(cache, fact, source=source_for("T", 1))
        request(cache, fact, source=source_for("T", 2))
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2


class TestBypass:
    def test_holistic_aggregate_bypasses(self, fact):
        cache = CuboidCache()
        spec = AggregateSpec(Median(carrying=False), "m", "med")
        out = request(cache, fact, specs=[spec],
                      sigs=[("MEDIAN", "m", False, ())],
                      agg_names=("med",))
        assert out is None
        assert cache.stats()["bypasses"] == 1
        assert len(cache) == 0

    def test_duplicate_dim_signatures_bypass(self, fact):
        cache = CuboidCache()
        out = request(cache, fact, dims=("d0", "d0"), names=("a", "b"),
                      masks=[0b11])
        assert out is None
        assert cache.stats()["bypasses"] == 1

    def test_too_many_dims_bypass(self, fact):
        cache = CuboidCache(CachePolicy(max_dims=2))
        assert request(cache, fact) is None
        assert cache.stats()["bypasses"] == 1


class TestAdmission:
    def test_min_rows_refuses_tiny_tables(self, fact):
        cache = CuboidCache(CachePolicy(min_rows=10_000))
        assert request(cache, fact) is None
        assert cache.stats()["misses"] == 1
        assert len(cache) == 0

    def test_admit_max_cells_answers_but_does_not_keep(self, fact):
        cache = CuboidCache(CachePolicy(admit_max_cells=1))
        out = request(cache, fact)
        assert out is not None  # the miss still answers the query
        assert cache.stats()["rejected"] == 1
        assert len(cache) == 0
        request(cache, fact)
        assert cache.stats()["misses"] == 2  # nothing was retained

    def test_budget_evicts_lowest_score(self, fact):
        unbounded = CuboidCache()
        request(unbounded, fact)
        one_entry_cells = unbounded.stats()["resident_cells"]

        cache = CuboidCache(CachePolicy(budget_cells=one_entry_cells + 10))
        request(cache, fact, source=source_for("T"))
        request(cache, fact, source=source_for("U"))
        stats = cache.stats()
        assert stats["evicted_space"] >= 1
        assert stats["resident_cells"] <= one_entry_cells + 10
        assert len(cache) == 1

    def test_accounting_balances_after_clear(self, fact):
        cache = CuboidCache()
        request(cache, fact)
        assert cache.stats()["resident_cells"] > 0
        cache.clear()
        assert cache.stats()["resident_cells"] == 0
        assert len(cache) == 0


class TestInvalidation:
    def test_invalidate_table_drops_only_matching_entries(self, fact):
        cache = CuboidCache()
        request(cache, fact, source=source_for("T"))
        request(cache, fact, source=source_for("U"))
        assert cache.invalidate_table("t") == 1
        assert len(cache) == 1
        assert cache.stats()["evicted_invalidated"] == 1
        # the survivor still answers
        request(cache, fact, source=source_for("U"))
        assert cache.stats()["hits"] == 1

    def test_watch_materialized_cube_mutations(self, fact):
        cache = CuboidCache()
        cube = MaterializedCube(fact, ["d0", "d1"],
                                [agg("SUM", "m", "s")])
        cache.watch(cube, "T")
        request(cache, fact, source=source_for("T"))
        assert len(cache) == 1
        cube.insert(("v0", "v0", "v0", 5))
        assert len(cache) == 0
        assert cache.stats()["evicted_invalidated"] == 1

    def test_repeated_watch_is_idempotent(self, fact):
        # regression: every watch() used to stack another listener, so
        # the N-th re-watch made one mutation fire N invalidations --
        # and re-admitted entries between mutations were wiped N times
        cache = CuboidCache()
        cube = MaterializedCube(fact, ["d0", "d1"],
                                [agg("SUM", "m", "s")])
        for _ in range(5):
            cache.watch(cube, "T")
        assert len(cube._mutation_listeners) == 1
        request(cache, fact, source=source_for("T"))
        cube.insert(("v0", "v0", "v0", 5))
        assert cache.stats()["evicted_invalidated"] == 1

    def test_watch_different_tables_both_registered(self, fact):
        cache = CuboidCache()
        cube = MaterializedCube(fact, ["d0", "d1"],
                                [agg("SUM", "m", "s")])
        cache.watch(cube, "T")
        cache.watch(cube, "U")
        cache.watch(cube, "t")  # same table, case-insensitive: no-op
        assert len(cube._mutation_listeners) == 2
        request(cache, fact, source=source_for("T"))
        request(cache, fact, source=source_for("U"))
        cube.insert(("v0", "v0", "v0", 5))
        assert len(cache) == 0

    def test_watch_apply_batch_notifies_once(self, fact):
        cache = CuboidCache()
        cube = MaterializedCube(fact, ["d0", "d1"],
                                [agg("SUM", "m", "s")])
        seen = []
        cube.add_mutation_listener(seen.append)
        cache.watch(cube, "T")
        request(cache, fact, source=source_for("T"))
        cube.apply_batch([("insert", ("v0", "v0", "v0", 5)),
                          ("delete", ("v0", "v0", "v0", 5))])
        # inner insert/delete are suppressed inside the transaction;
        # only the batch itself notifies
        assert seen == ["batch"]
        assert len(cache) == 0


class TestApplyDelta:
    """Streamed DML folds into cached entries instead of dropping them
    (the streaming-ingest tentpole): merge when every aggregate absorbs
    the delta, invalidate when the entry is ineligible, stale, or a
    delete hits a delete-holistic scratchpad."""

    def setup_entry(self, fact, cache, **kwargs):
        catalog = Catalog()
        catalog.register("T", fact)
        request(cache, fact, source=source_for("T", catalog.version("T")),
                **kwargs)
        assert len(cache) == 1
        return catalog

    def test_merge_keeps_entry_hot_and_rekeys_to_new_version(self, fact):
        cache = CuboidCache()
        catalog = self.setup_entry(fact, cache)
        base_version = catalog.version("T")
        row = ("v0", "v1", "v0", 42)
        catalog.insert("T", row)
        outcome = cache.apply_delta("T", [row], (), catalog=catalog,
                                    base_version=base_version)
        assert outcome == {"merged": 1, "invalidated": 0}
        assert cache.stats()["delta_merged"] == 1
        # the entry now answers under the post-batch version -- a hit,
        # not a rebuild -- and matches a cold recompute
        warm = request(cache, fact,
                       source=source_for("T", catalog.version("T")))
        assert cache.stats()["hits"] == 1
        reference = cube_op(catalog.get("T"), list(DIMS),
                            [agg("SUM", "m", "s")])
        assert canon(warm) == canon(reference)

    def test_delete_and_update_rows_merge(self, fact):
        cache = CuboidCache()
        catalog = self.setup_entry(fact, cache)
        base_version = catalog.version("T")
        victim = fact.rows[0]
        replacement = ("v1", "v1", "v1", 7)
        assert catalog.delete("T", victim)
        catalog.insert("T", replacement)
        outcome = cache.apply_delta("T", [replacement], [victim],
                                    catalog=catalog,
                                    base_version=base_version)
        assert outcome["merged"] == 1
        warm = request(cache, fact,
                       source=source_for("T", catalog.version("T")))
        reference = cube_op(catalog.get("T"), list(DIMS),
                            [agg("SUM", "m", "s")])
        assert canon(warm) == canon(reference)

    def test_where_filtered_entry_invalidates(self, fact):
        # delta rows cannot be predicate-filtered at the cache, so an
        # entry whose source carries a WHERE shape must be dropped
        cache = CuboidCache()
        filtered = ((("T", 1),), "d0 = 'v0'", (), ())
        catalog = Catalog()
        catalog.register("T", fact)
        request(cache, fact, source=filtered)
        row = ("v0", "v1", "v0", 42)
        catalog.insert("T", row)
        outcome = cache.apply_delta("T", [row], (), catalog=catalog,
                                    base_version=1)
        assert outcome == {"merged": 0, "invalidated": 1}
        assert len(cache) == 0
        assert cache.stats()["delta_invalidated"] == 1

    def test_stale_entry_version_fence_invalidates(self, fact):
        # the entry missed an earlier batch (crashed flush): merging
        # this one would manufacture a state that never existed
        cache = CuboidCache()
        catalog = self.setup_entry(fact, cache)  # entry at version 1
        catalog.insert("T", ("v0", "v0", "v0", 1))  # unseen: version 2
        base_version = catalog.version("T")
        row = ("v0", "v1", "v0", 42)
        catalog.insert("T", row)
        outcome = cache.apply_delta("T", [row], (), catalog=catalog,
                                    base_version=base_version)
        assert outcome == {"merged": 0, "invalidated": 1}
        assert len(cache) == 0

    def test_min_extreme_delete_invalidates_not_merges(self, fact):
        cache = CuboidCache()
        catalog = Catalog()
        catalog.register("T", fact)
        request(cache, fact, source=source_for("T", 1),
                specs=[AggregateSpec(Min(), "m", "lo")],
                sigs=[("MIN", "m", False, ())], agg_names=("lo",))
        extreme = min(fact.rows, key=lambda row: row[3])
        assert catalog.delete("T", extreme)
        outcome = cache.apply_delta("T", (), [extreme], catalog=catalog,
                                    base_version=1)
        assert outcome == {"merged": 0, "invalidated": 1}
        # the next request recomputes from the mutated base, correctly
        cold = request(cache, catalog.get("T"),
                       source=source_for("T", catalog.version("T")),
                       specs=[AggregateSpec(Min(), "m", "lo")],
                       sigs=[("MIN", "m", False, ())], agg_names=("lo",))
        reference = cube_op(catalog.get("T"), list(DIMS),
                            [agg("MIN", "m", "lo")])
        assert canon(cold) == canon(reference)

    def test_unrelated_tables_untouched(self, fact):
        cache = CuboidCache()
        catalog = Catalog()
        catalog.register("T", fact)
        request(cache, fact, source=source_for("T", 1))
        request(cache, fact, source=source_for("U", 1))
        row = ("v0", "v1", "v0", 42)
        catalog.insert("T", row)
        outcome = cache.apply_delta("T", [row], (), catalog=catalog,
                                    base_version=1)
        assert outcome["merged"] == 1
        assert len(cache) == 2  # U's entry untouched

    def test_accounting_balances_through_merge_and_clear(self, fact):
        cache = CuboidCache()
        catalog = self.setup_entry(fact, cache)
        row = ("v7", "v3", "v1", 42)  # new coordinates: cells grow
        catalog.insert("T", row)
        cache.apply_delta("T", [row], (), catalog=catalog,
                          base_version=1)
        entry = next(iter(cache._entries.values()))
        assert cache.stats()["resident_cells"] == entry.cells
        assert entry.cells == entry.engine.materialized_rows
        cache.clear()
        assert cache.stats()["resident_cells"] == 0


class TestCheapestContainingEntry:
    def test_hit_folds_the_smaller_of_two_admissible_ancestors(self, fact):
        from repro.obs.trace import Tracer, use_tracer

        cache = CuboidCache()
        # admitted first: GROUP BY d0, d1, d2 (the larger core) ...
        request(cache, fact, masks=[names_to_mask(DIMS, DIMS)])
        # ... then GROUP BY d0, d1 with an extra aggregate, so the wide
        # entry cannot answer it and both stay resident
        narrow = ("d0", "d1")
        request(cache, fact, dims=narrow, masks=[0b11],
                specs=[AggregateSpec(Sum(), "m", "s"),
                       AggregateSpec(Min(), "m", "lo")],
                sigs=[SUM_SIG, ("MIN", "m", False, ())],
                agg_names=("s", "lo"))
        assert cache.stats()["misses"] == 2 and len(cache) == 2

        with use_tracer(Tracer()) as tracer:
            result = request(cache, fact, dims=("d0",), masks=[0b1])
        assert cache.stats()["hits"] == 1
        reference = cube_op(fact, ["d0"], [agg("SUM", "m", "s")])
        assert canon(result) == sorted(
            repr(row) for row in reference if row[0] is not ALL)
        # both entries contain the request; the fold must read the
        # narrow one's cells, not the first-admitted wide core's
        narrow_cells = len({row[:2] for row in fact.rows})
        wide_cells = len({row[:3] for row in fact.rows})
        assert narrow_cells < wide_cells
        answered = [s for s in tracer.roots if s.name == "serve.answer"]
        assert answered[0].attributes["rows_scanned"] == narrow_cells
