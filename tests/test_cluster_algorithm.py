"""ClusterCubeAlgorithm end to end: bit-identity with the columnar
backend and with the thread runner, the eligibility fallbacks
(holistic, no-kernel, huge ints and huge int sums, mixed-type
extremes), empty input, timeouts, cancellation, and the optimizer
registration contract."""

import random

import pytest

from repro import Table, agg, cube
from repro.cluster import ClusterCubeAlgorithm, MANAGER, shutdown_pools
from repro.compute.columnar.batch import HAVE_NUMPY
from repro.compute.parallel import ParallelCubeAlgorithm
from repro.compute.optimizer import ALGORITHMS, choose_algorithm
from repro.core.cube import cube_with_stats
from repro.errors import (
    CubeError,
    NotMergeableError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.resilience import CancellationToken, ExecutionContext
from repro.types import ALL

DIMS = ["Model", "Year", "Color"]
AGGS = [agg("SUM", "Units", "Units"), agg("COUNT"), agg("MAX", "Units")]


def teardown_module(module):
    shutdown_pools()


class TestBitIdentity:
    @pytest.mark.skipif(not HAVE_NUMPY, reason="without numpy the "
                        "cluster runs on its thread runner, not the slab")
    def test_matches_columnar_rows_exactly(self, figure4):
        result = cube_with_stats(figure4, DIMS, AGGS,
                                 algorithm=ClusterCubeAlgorithm(n_workers=2))
        columnar = cube_with_stats(figure4, DIMS, AGGS, algorithm="columnar")
        assert result.table.rows == columnar.table.rows
        assert result.stats.algorithm == "cluster"
        assert result.stats.partitions == 2
        assert "fallback" not in result.stats.notes

    def test_registered_by_name(self, figure4):
        assert ALGORITHMS["cluster"] is ClusterCubeAlgorithm
        by_name = cube(figure4, DIMS, AGGS, algorithm="cluster")
        columnar = cube(figure4, DIMS, AGGS, algorithm="columnar")
        assert by_name.rows == columnar.rows

    def test_never_auto_chosen(self, figure4):
        """Process pools are a deployment decision: the optimizer must
        not pick cluster on its own for this (or any) workload."""
        from repro.compute import build_task
        from repro.core.grouping import cube_sets
        from repro.engine.groupby import AggregateSpec
        from repro.aggregates import Sum
        task = build_task(figure4, DIMS,
                          [AggregateSpec(Sum(), "Units", "Units")],
                          cube_sets(3))
        assert not isinstance(choose_algorithm(task), ClusterCubeAlgorithm)

    @pytest.mark.parametrize("hide_numpy", [False, True])
    def test_hash_equal_dimension_values_keep_their_row_type(
            self, hide_numpy, request):
        # 1, 1.0 and True share one code; each coordinate must carry the
        # value of the first row of its cell, as from-core reports it,
        # including groups whose first row lies in a later partition
        if hide_numpy:
            request.getfixturevalue("no_numpy")
        table = Table([("d", "ANY"), ("e", "STRING"), ("m", "INTEGER")],
                      [(1.0, "x", 1), (1, "y", 2), (True, "z", 3)] * 200)
        aggs = [agg("SUM", "m", "s")]
        got = cube(table, ["d", "e"], aggs,
                   algorithm=ClusterCubeAlgorithm(n_workers=2))
        want = cube(table, ["d", "e"], aggs, algorithm="from-core")
        assert sorted(map(repr, got.rows)) == sorted(map(repr, want.rows))
        assert (True, "z", 600) in got.rows

    def test_releases_every_slab(self, figure4):
        cube(figure4, DIMS, AGGS, algorithm=ClusterCubeAlgorithm(n_workers=2))
        assert MANAGER.active() == 0

    def test_more_workers_than_rows_degrades_gracefully(self, figure4):
        result = cube_with_stats(
            figure4, DIMS, AGGS, algorithm=ClusterCubeAlgorithm(n_workers=64))
        columnar = cube_with_stats(figure4, DIMS, AGGS, algorithm="columnar")
        assert result.table.rows == columnar.table.rows
        assert result.stats.partitions <= len(figure4)


class TestEligibility:
    def test_strict_holistic_refuses(self, figure4):
        from repro.aggregates import Median
        from repro.engine.groupby import AggregateSpec
        with pytest.raises(NotMergeableError, match="cluster"):
            cube(figure4, DIMS,
                 [AggregateSpec(Median(carrying=False), "Units", "med")],
                 algorithm=ClusterCubeAlgorithm(n_workers=2))

    def test_carrying_median_falls_back_to_threads(self, figure4):
        """Mergeable but kernel-less: the thread pool runs it, the
        cluster label stays."""
        from repro.aggregates import Median
        from repro.engine.groupby import AggregateSpec
        spec = [AggregateSpec(Median(carrying=True), "Units", "med")]
        result = cube_with_stats(
            figure4, DIMS, spec,
            algorithm=ClusterCubeAlgorithm(n_workers=2))
        assert result.stats.algorithm == "cluster"
        assert result.stats.notes["fallback"] == "parallel"
        row_path = cube(figure4, DIMS, spec,
                        algorithm="2^N", sort_result=True)
        assert sorted(map(repr, result.table.rows)) == \
            sorted(map(repr, row_path.rows))

    def test_ints_beyond_float64_fall_back_exactly(self):
        """2**53 + 1 would drift through the slab's float64 image; the
        eligibility check must route around the slab."""
        table = Table([("d", "STRING"), ("m", "INTEGER")])
        big = 2 ** 53 + 1
        table.extend([("a", big), ("a", 1), ("b", big)])
        result = cube_with_stats(table, ["d"], [agg("SUM", "m", "s")],
                                 algorithm=ClusterCubeAlgorithm(n_workers=2),
                                 sort_result=True)
        assert result.stats.notes.get("fallback") == "parallel"
        expected = cube(table, ["d"], [agg("SUM", "m", "s")],
                        algorithm="2^N", sort_result=True)
        assert result.table.rows == expected.rows
        assert any(big + 1 == row[-1] for row in result.table.rows)

    def test_int_sums_beyond_float64_fall_back_exactly(self):
        """Every value fits a float64 but their sum does not: the slab
        path would round it, so eligibility is the kernels' own rule."""
        table = Table([("d", "STRING"), ("m", "INTEGER")],
                      [("a", 2 ** 52 + 1)] * 10)
        aggs = [agg("SUM", "m", "s")]
        result = cube_with_stats(table, ["d"], aggs,
                                 algorithm=ClusterCubeAlgorithm(n_workers=2))
        expected = cube(table, ["d"], aggs, algorithm="from-core")
        assert list(map(repr, result.table.rows)) == \
            list(map(repr, expected.rows))
        assert result.stats.notes["fallback"] == "parallel"

    @pytest.mark.skipif(not HAVE_NUMPY, reason="mixed-type ties need numpy "
                        "to be the backend under test")
    def test_mixed_int_float_extremes_fall_back(self):
        table = Table([("d", "STRING"), ("m", "ANY")])
        table.extend([("a", 2), ("a", 2.0), ("b", 1)])
        result = cube_with_stats(table, ["d"], [agg("MIN", "m", "lo")],
                                 algorithm=ClusterCubeAlgorithm(n_workers=2),
                                 sort_result=True)
        assert result.stats.notes.get("fallback") == "parallel"
        expected = cube(table, ["d"], [agg("MIN", "m", "lo")],
                        sort_result=True)
        assert sorted(map(repr, result.table.rows)) == \
            sorted(map(repr, expected.rows))


class TestEdges:
    def test_empty_input_still_produces_the_global_cell(self):
        table = Table([("d", "STRING"), ("m", "INTEGER")])
        result = cube_with_stats(table, ["d"], [agg("COUNT")],
                                 algorithm=ClusterCubeAlgorithm(n_workers=2))
        assert result.table.rows == [(ALL, 0)]
        assert result.stats.cells_produced == 1

    def test_invalid_worker_count_raises(self):
        with pytest.raises(CubeError, match="at least 1"):
            ClusterCubeAlgorithm(n_workers=0)

    def test_expired_deadline_raises_timeout(self, figure4):
        ctx = ExecutionContext(timeout=0)
        with pytest.raises(QueryTimeoutError):
            cube(figure4, DIMS, AGGS,
                 algorithm=ClusterCubeAlgorithm(n_workers=2), context=ctx)
        assert MANAGER.active() == 0

    def test_pre_cancelled_token_raises(self, figure4):
        token = CancellationToken()
        token.cancel("caller gave up")
        ctx = ExecutionContext(token=token)
        with pytest.raises(QueryCancelledError):
            cube(figure4, DIMS, AGGS,
                 algorithm=ClusterCubeAlgorithm(n_workers=2), context=ctx)
        assert MANAGER.active() == 0


class TestOneEngine:
    """The thread and process runners share partitions, merge order and
    fold, so float SUM/AVG come back with the same bits from both --
    and from the cluster's own thread fallback."""

    @staticmethod
    def _floats():
        rng = random.Random(5)
        rows = [(rng.choice("abc"), rng.choice("xyz"), rng.random())
                for _ in range(200)]
        return Table([("d0", "STRING"), ("d1", "STRING"), ("f", "FLOAT")],
                     rows)

    AGGS = [agg("SUM", "f", "s"), agg("AVG", "f", "a")]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_thread_and_process_runners_agree_bitwise(self, workers):
        table = self._floats()
        threads = cube(table, ["d0", "d1"], self.AGGS,
                       algorithm=ParallelCubeAlgorithm(workers))
        processes = cube(table, ["d0", "d1"], self.AGGS,
                         algorithm=ClusterCubeAlgorithm(workers))
        assert list(map(repr, threads.rows)) == \
            list(map(repr, processes.rows))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_fallback_keeps_the_slab_paths_bits(self, workers):
        from repro.aggregates import Median
        from repro.engine.groupby import AggregateSpec
        table = self._floats()
        slab = cube(table, ["d0", "d1"], self.AGGS,
                    algorithm=ClusterCubeAlgorithm(workers))
        fallback = cube_with_stats(
            table, ["d0", "d1"],
            self.AGGS + [AggregateSpec(Median(carrying=True), "f", "med")],
            algorithm=ClusterCubeAlgorithm(workers), sort_result=True)
        assert fallback.stats.notes["fallback"] == "parallel"
        assert [repr(tuple(row[:4])) for row in fallback.table.rows] == \
            [repr(tuple(row)) for row in slab.rows]
