"""The cluster worker-process pool: dispatch, real process deaths,
retry on fresh workers, surrender after exhausted retries, and the
deadline/cancellation envelope."""

import os
import signal
import time

import pytest

from repro.cluster.pool import (
    ClusterPool,
    FailedPartition,
    default_workers,
    get_pool,
    run_partition_spec,
    shutdown_pools,
)
from repro.cluster.slab import MANAGER
from repro.compute.columnar.batch import HAVE_NUMPY, ColumnBatch
from repro.errors import ClusterError, QueryTimeoutError
from repro.resilience import ExecutionContext, RetryPolicy

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.0)


def _slab_spec(**overrides):
    """One ready-to-run partition spec over a tiny two-group slab."""
    batch = ColumnBatch.from_columns(
        {"d": ["a", "b", "a", "b"]}, {"m": [1, 2, 3, 4]})
    shm = MANAGER.create_for(batch)
    spec = {"slab": shm.name, "start": 0, "end": 4, "core_dims": [0],
            "core_strides": [1], "kernels": [("sum", 0)], "deadline": None,
            "worker": 0, "chaos": None}
    spec.update(overrides)
    return shm, spec


#: a worker scatters through the kernels, which need numpy (without it
#: the cluster runs on its thread runner and ships no slab)
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")


class TestRunPartitionSpec:
    @needs_numpy
    def test_groups_in_first_seen_order_with_summed_handles(self):
        shm, spec = _slab_spec()
        try:
            payload = run_partition_spec(spec)
        finally:
            MANAGER.release(shm.name)
        assert payload["n_groups"] == 2
        codes = [codes for codes, _ in payload["groups"]]
        assert codes == [(0,), (1,)]  # "a" first, then "b"
        sums = [handles[0] for _, handles in payload["groups"]]
        assert sums == [1 + 3, 2 + 4]

    def test_expired_deadline_raises_timeout(self):
        shm, spec = _slab_spec(deadline=time.monotonic() - 1.0)
        try:
            with pytest.raises(QueryTimeoutError):
                run_partition_spec(spec)
        finally:
            MANAGER.release(shm.name)


class TestPoolLifecycle:
    def test_rejects_zero_workers(self):
        with pytest.raises(ClusterError, match="n_workers"):
            ClusterPool(0)

    def test_rejects_more_partitions_than_workers(self):
        pool = ClusterPool(1)
        try:
            with pytest.raises(ClusterError, match="partitions"):
                pool.run([{}, {}])
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_closes_runs(self):
        pool = ClusterPool(1)
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(ClusterError, match="shut down"):
            pool.run([{}])

    def test_get_pool_reuses_then_replaces_closed(self):
        try:
            first = get_pool(1)
            assert get_pool(1) is first
            first.shutdown()
            second = get_pool(1)
            assert second is not first
        finally:
            shutdown_pools()


class TestDeathAndRetry:
    @needs_numpy
    def test_killed_worker_is_respawned_and_the_job_retried(self):
        pool = ClusterPool(1)
        shm, spec = _slab_spec()
        try:
            victim = pool._workers[0].process.pid
            os.kill(victim, signal.SIGKILL)
            ctx = ExecutionContext(retry=FAST_RETRY)
            outcomes = pool.run([spec], ctx=ctx)
            assert not isinstance(outcomes[0], FailedPartition)
            assert outcomes[0]["n_groups"] == 2
            assert pool._workers[0].process.pid != victim
        finally:
            MANAGER.release(shm.name)
            pool.shutdown()

    def test_deterministic_worker_error_surrenders_after_retries(self):
        pool = ClusterPool(1)
        # a spec whose slab does not exist fails identically on every
        # attempt -- retries exhaust and the partition is surrendered
        spec = {"slab": "repro_slab_never_created", "start": 0, "end": 1,
                "core_dims": [0], "core_strides": [1],
                "kernels": [("sum", 0)], "deadline": None, "worker": 0,
                "chaos": None}
        try:
            ctx = ExecutionContext(retry=FAST_RETRY)
            outcomes = pool.run([spec], ctx=ctx)
            assert isinstance(outcomes[0], FailedPartition)
            assert outcomes[0].index == 0
            assert "worker 0" in str(outcomes[0].error)
        finally:
            pool.shutdown()

    def test_worker_timeout_report_raises_in_parent(self):
        pool = ClusterPool(1)
        shm, spec = _slab_spec(deadline=time.monotonic() - 1.0)
        try:
            with pytest.raises(QueryTimeoutError):
                pool.run([spec], ctx=ExecutionContext(retry=FAST_RETRY))
        finally:
            MANAGER.release(shm.name)
            pool.shutdown()


class TestDefaults:
    def test_default_workers_reads_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert default_workers() == 7
        monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
        assert default_workers() == 2
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() == 2
