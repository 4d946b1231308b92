"""Experiment F8 / Section 5 -- the cube-computation algorithm shootout.

Benchmarks every algorithm on the same task and asserts the paper's
cost *shape* on machine-independent counters:

- naive union: 2^N scans, one hash per grouping set;
- 2^N-algorithm: 1 scan, T x 2^N Iter calls;
- from-core: 1 scan, T Iter calls + merges (the factor-of-T saving);
- array: 1 scan, projection one dimension at a time (smallest first);
- sort: C(N, N/2) sorts covering the lattice with chains;
- crossovers: from-core beats 2^N as T grows; the naive union's scan
  count explodes with N while single-pass algorithms stay at 1.
"""

import pytest

from repro.aggregates import Sum
from repro.compute import (
    ArrayCubeAlgorithm,
    FromCoreAlgorithm,
    NaiveUnionAlgorithm,
    SortCubeAlgorithm,
    TwoNAlgorithm,
    build_task,
)
from repro.core.grouping import cube_sets
from repro.data import SyntheticSpec, synthetic_table
from repro.engine.groupby import AggregateSpec

from conftest import show


def make_task(table, n_dims):
    dims = [f"d{i}" for i in range(n_dims)]
    return build_task(table, dims, [AggregateSpec(Sum(), "m", "s")],
                      cube_sets(n_dims))


@pytest.fixture(scope="module")
def task(medium_fact):
    return make_task(medium_fact, 3)


from repro.compute import PipeSortAlgorithm

ALGORITHMS = {
    "naive-union": NaiveUnionAlgorithm,
    "2^N": TwoNAlgorithm,
    "from-core": FromCoreAlgorithm,
    "array": ArrayCubeAlgorithm,
    "sort": SortCubeAlgorithm,
    "pipesort": PipeSortAlgorithm,
}


@pytest.mark.parametrize("name", list(ALGORITHMS),
                         ids=lambda n: f"alg={n}")
def test_algorithm_wall_time(benchmark, task, name):
    """Wall-clock comparison across algorithms on one 3D task."""
    algorithm = ALGORITHMS[name]()
    result = benchmark(algorithm.compute, task)
    assert result.stats.cells_produced == len(result.table)
    # machine-independent counters ride along in the benchmark report
    benchmark.extra_info["counters"] = result.stats.as_dict()


def test_cost_shapes(benchmark, medium_fact, task):
    """The Section 5 cost claims, on counters."""

    def run_all():
        return {name: cls().compute(task).stats
                for name, cls in ALGORITHMS.items()}

    stats = benchmark(run_all)
    t_rows = len(medium_fact)

    assert stats["naive-union"].base_scans == 8
    assert stats["2^N"].base_scans == 1
    assert stats["2^N"].iter_calls == t_rows * 8
    assert stats["from-core"].iter_calls == t_rows
    assert stats["sort"].sort_operations == 3  # C(3,1)
    # [ADGNRS]: pipelines re-sort parent results, not the base table
    assert stats["pipesort"].rows_sorted < stats["sort"].rows_sorted

    lines = [f"{name:<12} {s.summary()}" for name, s in stats.items()]
    show("Section 5 cost shapes (T=%d, N=3)" % t_rows, "\n".join(lines))


def test_from_core_beats_2n_as_t_grows(benchmark):
    """The crossover claim: the factor-of-T saving grows with T."""

    def ratios():
        out = []
        for t_rows in (100, 1000, 4000):
            table = synthetic_table(SyntheticSpec(
                cardinalities=(4, 4, 4), n_rows=t_rows, seed=17))
            task = make_task(table, 3)
            twon = TwoNAlgorithm().compute(task).stats
            core = FromCoreAlgorithm().compute(task).stats
            total_core = core.iter_calls + core.merge_calls
            out.append((t_rows, twon.iter_calls / total_core))
        return out

    results = benchmark(ratios)
    saving = [ratio for _, ratio in results]
    assert saving == sorted(saving)  # advantage grows with T
    assert saving[-1] > 5
    show("from-core vs 2^N call-count advantage by T",
         "\n".join(f"T={t:>5}: {r:.1f}x fewer calls"
                   for t, r in results))


def test_naive_scan_count_explodes_with_n(benchmark):
    """2^N scans vs 1: the reason the CUBE operator exists."""

    def scans_by_n():
        out = []
        for n in (2, 3, 4, 5):
            table = synthetic_table(SyntheticSpec(
                cardinalities=(3,) * n, n_rows=200, seed=23))
            task = make_task(table, n)
            naive = NaiveUnionAlgorithm().compute(task).stats
            single = FromCoreAlgorithm().compute(task).stats
            out.append((n, naive.base_scans, single.base_scans))
        return out

    results = benchmark(scans_by_n)
    for n, naive_scans, core_scans in results:
        assert naive_scans == 2 ** n
        assert core_scans == 1
    show("base-table scans by N (naive vs from-core)",
         "\n".join(f"N={n}: naive={a} from-core={b}"
                   for n, a, b in results))


def test_smallest_parent_reduces_merges(benchmark):
    """'The algorithm will be most efficient if it aggregates the
    smaller of the two': smallest-parent ordering does no more merge
    work than a fixed (worst-case-prone) parent order."""
    table = synthetic_table(SyntheticSpec(
        cardinalities=(20, 2, 2), n_rows=3000, seed=31))
    task = make_task(table, 3)

    result = benchmark(FromCoreAlgorithm().compute, task)
    # a fixed drop-last-dimension strategy would route (d2,) through the
    # large (d0, d2) parent; smallest-parent uses (d1, d2) (4 cells).
    # Bound: merges must not exceed the everything-through-largest-
    # parent cost.
    from repro.core.lattice import CubeLattice
    lattice = CubeLattice(task.dims, task.masks)
    # count actual per-node cells from the result
    from collections import Counter
    from repro.types import ALL
    per_mask = Counter()
    for row in result.table:
        mask = 0
        for i in range(3):
            if row[i] is not ALL:
                mask |= 1 << i
        per_mask[mask] += 1
    worst = sum(max((per_mask[p] for p in lattice.parents(m)), default=0)
                for m in task.masks if m != lattice.core)
    assert result.stats.merge_calls <= worst
