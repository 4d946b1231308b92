"""Multi-process execution (§5 partition-then-combine across cores).

The cluster subsystem escapes the GIL: dictionary-encoded column
batches ship to a persistent worker-process pool through
``multiprocessing.shared_memory`` slabs with zero pickling
(:mod:`repro.cluster.slab`), and workers compute each contiguous
partition's core GROUP BY with mergeable scratchpads
(:mod:`repro.cluster.pool`).  :mod:`repro.cluster.algorithm`
(``algorithm="cluster"``) is the process runner of the one
partition-then-combine engine in :mod:`repro.compute.parallel`, which
merges the partition cores and folds the super-aggregates exactly as
the thread runner does.  See docs/CLUSTER.md.
"""

from repro.cluster.algorithm import ClusterCubeAlgorithm
from repro.cluster.pool import (
    ClusterPool,
    default_workers,
    get_pool,
    shutdown_pools,
)
from repro.cluster.slab import MANAGER, SlabManager, attach_slab, encode_batch

__all__ = [
    "MANAGER",
    "ClusterCubeAlgorithm",
    "ClusterPool",
    "SlabManager",
    "attach_slab",
    "default_workers",
    "encode_batch",
    "get_pool",
    "shutdown_pools",
]
