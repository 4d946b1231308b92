"""Seeded inputs for the perf ledger: tables and request streams.

Everything a run measures is derived here from ``--seed`` with
``random.Random`` only (no numpy, no ``repro.data``), so two runs of
one seed send byte-identical inputs -- :func:`inputs_digest` proves
it in ``result.json``.  The child server never sees the seed: it loads the
JSON file :func:`write_input` produces.

Request streams are *stratified*: they are built from fixed-size blocks
holding each query class in its exact share (the draw inside a class is
seeded), so the class mix of any window is the declared mix and
run-to-run spread comes from the system, not from the dice.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

__all__ = ["WORKLOADS", "OPEN_RATE_QPS", "REPLAY_REQUESTS",
           "tables_for", "request_blocks", "batch_statements",
           "warm_statement", "mixed_read_statements", "write_input",
           "inputs_digest"]

WORKLOADS = ("serve_hot", "serve_cold", "serve_mixed", "cube_batch")

#: Open-loop arrival rates, frozen once at ~15-35% of the closed-loop
#: ``throughput_qps`` this benchmark measured on the commit that added
#: it (perf/README.md, "Frozen open-loop rates").  A later PR must not
#: retune them: the latency metrics are only comparable at a fixed rate.
OPEN_RATE_QPS = {"serve_hot": 50.0, "serve_cold": 12.0,
                 "serve_mixed": 60.0}

#: Requests replayed under the span recorder (in-process and over the
#: wire).  serve_cold replays fewer because each of its misses costs
#: tens of milliseconds and the replay runs three times.
REPLAY_REQUESTS = {"serve_hot": 300, "serve_cold": 100, "serve_mixed": 300}

_SUM, _COUNT, _AVG = ("SUM", "m"), ("COUNT", "*"), ("AVG", "m")
_MIN, _MAX, _MEDIAN = ("MIN", "m"), ("MAX", "m"), ("MEDIAN", "m")
_AGGS5 = (_SUM, _COUNT, _AVG, _MIN, _MAX)
_AGG_VARIANTS = ((_SUM,), (_SUM, _COUNT), (_AVG, _MIN, _MAX))

#: name -> (rows, cardinalities, zipf exponent); measures are integers
#: in [1, 100].  WIDE is 2,000 rows, not the 16,000 the issue sketched:
#: at 16,000 a through-the-cache miss costs ~280 ms, which leaves the
#: run's windows with too few samples for a p90.
TABLES = {
    "FACTS": (32_000, (16, 8, 8, 4), 0.8),
    "WIDE": (2_000, (12, 10, 8, 6, 4, 3), 0.5),
    "DENSE": (50_000, (16, 8, 8, 4, 4), 0.8),
    "SPARSE": (15_000, (500, 200, 50, 20), 0.8),
}
_WORKLOAD_TABLES = {"serve_hot": ("FACTS",), "serve_mixed": ("FACTS",),
                    "serve_cold": ("WIDE",),
                    "cube_batch": ("DENSE", "SPARSE")}

#: Cache budget of serve_cold in cells.  A 3-dim CUBE over WIDE
#: materializes ~140-1,300 cells (mean ~450), so this holds about 3 of
#: the 20 cuboids the stream asks for -- a working set ~7x the cache.
COLD_BUDGET_CELLS = 1_500


def _value(dim: int, index: int) -> str:
    return f"{chr(97 + dim)}{index:03d}"


def _table(rng: random.Random, n_rows: int, cards, zipf: float) -> dict:
    columns = []
    for dim, card in enumerate(cards):
        weights = [1.0 / (rank + 1) ** zipf for rank in range(card)]
        columns.append(rng.choices([_value(dim, i) for i in range(card)],
                                   weights=weights, k=n_rows))
    columns.append([rng.randint(1, 100) for _ in range(n_rows)])
    return {"dims": [f"d{i}" for i in range(len(cards))],
            "rows": [list(row) for row in zip(*columns)]}


def tables_for(workload: str, seed: int, scale: int = 1) -> dict:
    """``{name: {"dims": [...], "rows": [[d0.., m], ...]}}``; ``scale``
    divides the row counts (the smoke test runs at 1/16)."""
    out = {}
    for name in _WORKLOAD_TABLES[workload]:
        n_rows, cards, zipf = TABLES[name]
        rng = random.Random(f"{seed}/{name}")
        out[name] = _table(rng, max(n_rows // scale, 200), cards, zipf)
    return out


def write_input(path: str, tables: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tables, handle, separators=(",", ":"))


def inputs_digest(workload: str, seed: int, tables: dict) -> str:
    """Digest of everything a run of ``workload`` is fed: its tables
    and the head of each connection's request stream (or the batch)."""
    if workload == "cube_batch":
        fed = [tables, batch_statements()]
    else:
        fed = [tables, [list(itertools.islice(
            itertools.chain.from_iterable(
                request_blocks(workload, seed, tables, client)), 220))
            for client in range(2)]]
    blob = json.dumps(fed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- statements --------------------------------------------------------------


def _select(table: str, dims, aggs, clause: str = "", where=()) -> dict:
    """One statement as ``{"sql", "plan"}``: the text that travels and
    the structure it was built from (what the layer probes hand to
    ``build_task`` -- the program is never asked to explain a query).
    ``where`` is a tuple of ``(dim index, value index)`` equalities."""
    names = [f"d{i}" for i in dims]
    cols = ", ".join(names)
    calls = ", ".join(f"{fn}({arg})" for fn, arg in aggs)
    predicate = " AND ".join(f"d{d} = '{_value(d, v)}'" for d, v in where)
    sql = (f"SELECT {cols}, {calls} FROM {table}"
           f"{' WHERE ' + predicate if predicate else ''} "
           f"GROUP BY {clause + ' ' if clause else ''}{cols}")
    return {"sql": sql,
            "plan": {"table": table, "dims": names, "clause": clause,
                     "aggs": [list(call) for call in aggs],
                     "filtered": bool(where)}}


def warm_statement() -> dict:
    """The CUBE that pre-warms serve_hot / serve_mixed: every FACTS
    read of those workloads is a containment hit on its cuboid."""
    return _select("FACTS", range(4), _AGGS5, "CUBE")


def _small_pool() -> list[dict]:
    """1-2-dim GROUP BYs over FACTS (<= 128 rows), dims in both orders
    so the cache's order-insensitive signatures are exercised."""
    combos = ([(i,) for i in range(4)]
              + list(itertools.combinations(range(4), 2)))
    pool = []
    for n, dims in enumerate(combos):
        if n % 2:
            dims = tuple(reversed(dims))
        pool.append(_select("FACTS", dims, _AGG_VARIANTS[n % 3]))
    return pool


def mixed_read_statements() -> list[dict]:
    """Every distinct read serve_mixed sends."""
    return _small_pool()


def _hot_pools() -> dict[str, list[dict]]:
    two = (_SUM, _COUNT)
    return {
        "small": _small_pool(),
        "medium": [_select("FACTS", (0, 1), two, "ROLLUP"),
                   _select("FACTS", (1, 2, 3), two, "ROLLUP"),
                   _select("FACTS", (0, 1), two, "CUBE"),
                   _select("FACTS", (2, 3), (_AVG, _MAX), "CUBE"),
                   _select("FACTS", (0, 1, 2), two, "CUBE")],
        "group3": [_select("FACTS", dims, (_SUM,))
                   for dims in itertools.combinations(range(4), 3)],
        "full_cube": [warm_statement()],
    }


#: (class, requests per block); one block is the declared mix exactly.
_HOT_BLOCK = (("small", 35), ("medium", 10), ("group3", 4), ("full_cube", 1))
_COLD_BLOCK = (("cube3", 6), ("where2", 3), ("median", 1))
_MIXED_READS = 10


def _query(klass: str, statement: dict) -> dict:
    return {"op": "query", "class": klass, **statement}


def _cycle(rng: random.Random, pool: list):
    """Endless seeded draw without replacement: every item once per
    pass, in a fresh order each pass (a stratified uniform draw)."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _hot_blocks(rng: random.Random):
    draws = {klass: _cycle(rng, pool)
             for klass, pool in _hot_pools().items()}
    while True:
        block = [_query(klass, next(draws[klass]))
                 for klass, count in _HOT_BLOCK for _ in range(count)]
        rng.shuffle(block)
        yield block


def _cold_blocks(rng: random.Random):
    aggs = (_SUM, _COUNT, _AVG)
    cubes = [_select("WIDE", dims, aggs, "CUBE")
             for dims in itertools.combinations(range(6), 3)]
    # 48 literal combinations: d2 in 8 values x d3 in 6 values
    wheres = [_select("WIDE", (0, 1), (_SUM, _COUNT),
                      where=((2, a), (3, b)))
              for a in range(8) for b in range(6)]
    medians = [_select("WIDE", dims, (_MEDIAN,), "CUBE")
               for dims in ((0, 4), (1, 5), (2, 3), (3, 4))]
    draws = {"cube3": _cycle(rng, cubes), "where2": _cycle(rng, wheres),
             "median": _cycle(rng, medians)}
    while True:
        block = [_query(klass, next(draws[klass]))
                 for klass, count in _COLD_BLOCK for _ in range(count)]
        rng.shuffle(block)
        yield block


def _safe_cells(rows: list) -> tuple[list, list]:
    """Core cells whose base MIN < 40 and MAX > 60, repeated by row
    count.  serve_mixed inserts measures in [40, 60] into these cells
    only, so no delete can evict a MIN/MAX extreme of any cuboid and
    every delta merges (``cache.delta_invalidated`` stays 0)."""
    spans: dict[tuple, list] = {}
    for *dims, m in rows:
        span = spans.setdefault(tuple(dims), [m, m, 0])
        span[0] = min(span[0], m)
        span[1] = max(span[1], m)
        span[2] += 1
    cells = sorted(cell for cell, (lo, hi, _) in spans.items()
                   if lo < 40 and hi > 60)
    weights = [spans[cell][2] for cell in cells]
    return cells, weights


def _mixed_blocks(rng: random.Random, rows: list):
    """10 small reads + 1 ingest of 8 inserts per block; every 5th
    ingest also deletes 2 and updates 1 row an earlier ingest of the
    same stream inserted.  Each connection sends its own stream in
    order, so a victim is always acknowledged before it is named."""
    cells, weights = _safe_cells(rows)
    reads = _cycle(rng, _small_pool())
    live: list[list] = []
    for n in itertools.count(1):
        inserts = [list(cell) + [rng.randint(40, 60)]
                   for cell in rng.choices(cells, weights=weights, k=8)]
        deletes, updates = [], []
        if n % 5 == 0 and len(live) >= 3:
            rng.shuffle(live)
            deletes = [live.pop(), live.pop()]
            old = live.pop()
            new = old[:-1] + [rng.randint(40, 60)]
            updates = [[old, new]]
            live.append(new)
        block = [_query("small", next(reads)) for _ in range(_MIXED_READS)]
        block.insert(rng.randrange(1, _MIXED_READS),
                     {"op": "ingest", "class": "ingest", "table": "FACTS",
                      "inserts": inserts, "deletes": deletes,
                      "updates": updates})
        yield block
        live.extend(inserts)


def request_blocks(workload: str, seed: int, tables: dict, client: int = 0):
    """Endless iterator of request blocks for one connection of a
    served workload (each connection is an independent user)."""
    rng = random.Random(f"{seed}/{workload}/requests/{client}")
    if workload == "serve_hot":
        return _hot_blocks(rng)
    if workload == "serve_cold":
        return _cold_blocks(rng)
    if workload == "serve_mixed":
        return _mixed_blocks(rng, tables["FACTS"]["rows"])
    raise ValueError(f"no request stream for workload {workload!r}")


def batch_statements() -> dict[str, dict]:
    """cube_batch's fixed pass, class -> statement."""
    dims = range(5)
    return {
        "dense_cube": _select("DENSE", dims, _AGGS5, "CUBE"),
        "dense_rollup": _select("DENSE", dims, _AGGS5, "ROLLUP"),
        "sparse_cube": _select("SPARSE", range(4), _AGGS5, "CUBE"),
        # d3 = 'd001' is the second-ranked of 4 Zipf(0.8) values: ~25%
        "filtered_cube": _select("DENSE", dims, _AGGS5, "CUBE",
                                 where=((3, 1),)),
        "holistic_cube": _select("DENSE", (0, 3), (_MEDIAN,), "CUBE"),
    }
