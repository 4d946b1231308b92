"""Experiment QL -- the query log's disabled-path overhead bound.

The query log promises to be near-free when off (`QUERY_LOG.enabled =
False`): the entry-point `track` wrapper reduces to one flag check and
every `annotate`/`add` hook to one thread-local read.  This bench holds
it to that on the Figure 2 workload (GROUP BY over a synthetic fact
table): the same computation runs through the tracked entry point and
through the unwrapped body, interleaved, and the median per-pair ratio
must stay under 1.03x.  The ratio also lands in ``extra_info``
(``overhead_ratio``).
"""

import statistics
import time

from repro.core.cube import _run, _run_tracked, agg
from repro.core.grouping import GroupingSpec
from repro.data import SyntheticSpec, synthetic_table
from repro.obs.querylog import QUERY_LOG
from repro.types import NullMode

from conftest import show

_ROUNDS = 15

_RUN_KWARGS = dict(where=None, algorithm="naive-union",
                   null_mode=NullMode.ALL_VALUE, sort_result=False,
                   registry=None, memory_budget=None)


def _workload():
    table = synthetic_table(SyntheticSpec(
        cardinalities=(6, 5, 4), n_rows=4000, seed=21))
    dims = ["d0", "d1"]
    aggregates = [agg("SUM", "m", "total"), agg("AVG", "m", "avg")]
    spec = GroupingSpec.for_groupby(("d0", "d1"))
    return table, dims, aggregates, spec


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - started


def test_querylog_disabled_overhead(benchmark):
    table, dims, aggregates, spec = _workload()
    was_enabled = QUERY_LOG.enabled
    QUERY_LOG.enabled = False
    try:
        # warm both paths before measuring
        _run(table, dims, aggregates, spec, kind="groupby", **_RUN_KWARGS)
        _run_tracked(table, dims, aggregates, spec, **_RUN_KWARGS)
        ratios = []
        for _ in range(_ROUNDS):
            tracked = _timed(_run, table, dims, aggregates, spec,
                             kind="groupby", **_RUN_KWARGS)
            baseline = _timed(_run_tracked, table, dims, aggregates,
                              spec, **_RUN_KWARGS)
            ratios.append(tracked / baseline)
        ratio = statistics.median(ratios)
        result = benchmark(_run, table, dims, aggregates, spec,
                           kind="groupby", **_RUN_KWARGS)
        assert len(result.table) == 30  # 6 x 5 core groups
    finally:
        QUERY_LOG.enabled = was_enabled
    benchmark.extra_info["overhead_ratio"] = round(ratio, 4)
    show("Query log disabled-path overhead (Figure 2 workload)",
         f"median tracked/baseline ratio over {_ROUNDS} interleaved "
         f"pairs: {ratio:.4f}x (bound 1.03x)")
    assert ratio < 1.03, (
        f"disabled query log costs {ratio:.4f}x over the unwrapped "
        f"path; bound is 1.03x")
