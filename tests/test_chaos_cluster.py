"""Chaos against the multi-process cluster backend: ``worker_crash``
here SIGKILLs a *real* worker process mid-partition, and the serial
recovery contract must still hand back the exact columnar answer.

The CI chaos-matrix job re-runs this module under several
``CHAOS_SEED`` values; locally the seed defaults to 0."""

import os

import pytest

from repro import agg
from repro.cluster import ClusterCubeAlgorithm, shutdown_pools
from repro.cluster.pool import get_pool
from repro.compute.columnar.batch import HAVE_NUMPY
from repro.core.cube import cube_with_stats
from repro.obs.metrics import REGISTRY
from repro.obs.trace import tracing
from repro.resilience import ChaosInjector, ExecutionContext, RetryPolicy

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))
DIMS = ["Model", "Year", "Color"]
AGGS = [agg("SUM", "Units", "Units"), agg("COUNT"), agg("MAX", "Units")]
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.0)


def _counter_value(name, **labels):
    return REGISTRY.counter(name, **labels).value


def _bit_rows(table):
    return sorted(tuple(map(repr, row)) for row in table.rows)


@pytest.mark.skipif(not HAVE_NUMPY, reason="without numpy the cluster "
                    "runs on its thread runner: no worker process to kill")
class TestClusterWorkerCrash:
    def test_certain_crashes_still_yield_the_columnar_cube(self, figure4):
        """rate=1.0: every dispatch (and every retry) kills its worker
        process for real; all partitions surrender and are recovered
        serially in-parent -- bit-identically."""
        chaos = ChaosInjector(seed=CHAOS_SEED, worker_crash=1.0)
        ctx = ExecutionContext(chaos=chaos, retry=FAST_RETRY)
        algorithm = ClusterCubeAlgorithm(n_workers=2)
        failures = _counter_value("repro_resilience_worker_failures_total")
        recoveries = _counter_value(
            "repro_resilience_worker_recoveries_total")
        restarts = _counter_value("repro_cluster_worker_restarts_total")
        result = cube_with_stats(figure4, DIMS, AGGS, algorithm=algorithm,
                                 context=ctx)
        plain = cube_with_stats(figure4, DIMS, AGGS,
                                algorithm=ClusterCubeAlgorithm(n_workers=2))
        columnar = cube_with_stats(figure4, DIMS, AGGS, algorithm="columnar")
        # bit-identical to the undisturbed cluster run AND to the
        # single-process columnar backend (same rows, same order)
        assert result.table.rows == plain.table.rows
        assert result.table.rows == columnar.table.rows
        assert result.stats.notes["recovered_partitions"] == 2
        # the parent mirrors the worker's deterministic draw: one
        # injection per (worker, attempt), 2 workers x 3 attempts
        assert chaos.injected["worker_crash"] == 2 * 3
        assert _counter_value(
            "repro_resilience_worker_failures_total") == failures + 2
        assert _counter_value(
            "repro_resilience_worker_recoveries_total") == recoveries + 2
        # every kill was a real process death: the pool respawned a
        # fresh worker for each crashed attempt
        assert _counter_value(
            "repro_cluster_worker_restarts_total") == restarts + 2 * 3

    def test_the_kills_are_real_processes(self, figure4):
        """After a rate=1.0 run the pool's workers are *new* pids --
        the originals were SIGKILLed, not simulated."""
        pool = get_pool(2)
        before = [w.process.pid for w in pool._workers]
        assert all(w.process.is_alive() for w in pool._workers)
        chaos = ChaosInjector(seed=CHAOS_SEED, worker_crash=1.0)
        ctx = ExecutionContext(chaos=chaos, retry=FAST_RETRY)
        cube_with_stats(figure4, DIMS, AGGS,
                        algorithm=ClusterCubeAlgorithm(n_workers=2),
                        context=ctx)
        after = [w.process.pid for w in pool._workers]
        assert set(before).isdisjoint(after)
        assert all(w.process.is_alive() for w in pool._workers)

    def test_partial_crashes_are_deterministic_for_a_seed(self, figure4):
        def run():
            chaos = ChaosInjector(seed=CHAOS_SEED, worker_crash=0.5)
            ctx = ExecutionContext(chaos=chaos, retry=FAST_RETRY)
            result = cube_with_stats(
                figure4, DIMS, AGGS,
                algorithm=ClusterCubeAlgorithm(n_workers=2), context=ctx)
            return result.table.rows, dict(chaos.injected)

        rows_a, injected_a = run()
        rows_b, injected_b = run()
        assert rows_a == rows_b
        assert injected_a == injected_b
        plain = cube_with_stats(figure4, DIMS, AGGS,
                                algorithm=ClusterCubeAlgorithm(n_workers=2))
        assert rows_a == plain.table.rows

    def test_recovery_emits_span_events(self, figure4):
        chaos = ChaosInjector(seed=CHAOS_SEED, worker_crash=1.0)
        ctx = ExecutionContext(chaos=chaos, retry=FAST_RETRY)
        with tracing() as tracer:
            cube_with_stats(figure4, DIMS, AGGS,
                            algorithm=ClusterCubeAlgorithm(n_workers=2),
                            context=ctx)
        spans = [s for root in tracer.finished() for s in root.walk()]
        recover = [s for s in spans if s.name == "cube.cluster.recover"]
        assert len(recover) == 1
        assert recover[0].attributes["failures"] == 2
        names = [e["name"] for e in recover[0].events]
        assert names.count("recover_partition") == 2

    def test_no_slab_leaks_across_crashes(self, figure4):
        """Killed workers never unlink the slab, and the parent always
        releases it -- /dev/shm stays clean even at rate 1.0."""
        from repro.cluster import MANAGER
        chaos = ChaosInjector(seed=CHAOS_SEED, worker_crash=1.0)
        ctx = ExecutionContext(chaos=chaos, retry=FAST_RETRY)
        cube_with_stats(figure4, DIMS, AGGS,
                        algorithm=ClusterCubeAlgorithm(n_workers=2),
                        context=ctx)
        assert MANAGER.active() == 0


def test_seed_matrix_cluster_crashes_never_change_the_answer(figure4):
    """For any CHAOS_SEED the recovered cluster cube is bit-identical
    to the undisturbed single-process columnar cube."""
    for rate in (0.3, 1.0):
        chaos = ChaosInjector(seed=CHAOS_SEED, worker_crash=rate)
        ctx = ExecutionContext(chaos=chaos, retry=FAST_RETRY)
        result = cube_with_stats(figure4, DIMS, AGGS,
                                 algorithm=ClusterCubeAlgorithm(n_workers=2),
                                 context=ctx)
        columnar = cube_with_stats(figure4, DIMS, AGGS, algorithm="columnar")
        assert result.table.rows == columnar.table.rows, rate


def teardown_module(module):
    shutdown_pools()
