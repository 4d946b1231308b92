"""Smoke test of the perf ledger (``pytest perf/``).

Runs every workload through the driver contract at ``--smoke`` scale
(tables / 16, sub-second windows) -- untraced once, traced twice -- and
checks what the benchmark promises about its own output.  It is a functional
check: the numbers of a smoke run mean nothing.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import subprocess
import sys

import pytest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, PERF_DIR)

import harness  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(os.path.dirname(PERF_DIR), "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERVED = [w for w in WORKLOADS if w != "cube_batch"]

#: per-layer metrics that are counts of a deterministic replay: they
#: must repeat exactly across two runs of one seed
EXACT = [m["name"] for m in SPEC["per_layer"]
         if m["unit"] in ("count", "bytes")
         and not m["name"].startswith(("driver.", "server."))
         and m["name"] not in ("storage.bytes_on_disk",
                               "storage.wal_position",
                               "cache.dump_state_bytes")]


def _shm() -> set:
    return (set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm")
            else set())


def _run(workload: str, trace: int) -> dict:
    # a traced run's replays do not scale with --seconds, only its load
    # windows do, and nothing here reads their numbers
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload",
         workload, "--seed", "5", "--smoke", "--trace", str(trace)]
        + (["--seconds", "0.2"] if trace else []),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    lines = done.stdout.splitlines()
    return {"lines": lines, "result": json.loads(lines[-1])}


@pytest.fixture(scope="module")
def runs():
    """{(workload, trace, repeat): run}; the runs of a batch share the
    two cores, which a functional check can afford."""
    shm_before = _shm()
    harness.adopt_orphans()  # whatever a run orphans lands here, visibly
    out = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for repeat, traces in ((0, (0, 1)), (1, (1,))):
            jobs = {(w, t, repeat): pool.submit(_run, w, t)
                    for w in WORKLOADS for t in traces}
            out.update({key: job.result() for key, job in jobs.items()})
    out["shm_leaked"] = _shm() - shm_before
    out["processes_left"] = harness.children()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_declared_metric_once(runs, workload, trace, section):
    run = runs[(workload, trace, 0)]
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
        printed = [line for line in run["lines"]
                   if line.startswith(f"{workload} {name} ")]
        assert len(printed) == 1, (name, printed)
        assert printed[0].split()[3] == unit
    if trace == 0:
        assert all(result["metrics"][m]["value"] > 0 for m in declared)
        error_rate = [line.split() for line in run["lines"]
                      if line.startswith(f"{workload} error_rate ")]
        assert len(error_rate) == 1 and float(error_rate[0][2]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_files(runs, workload):
    recorded = spans.load(os.path.join(PERF_DIR, "out",
                                       f"trace-{workload}.jsonl"))
    assert recorded
    # the file holds the in-process replay, then (served) the wire
    # replay; ids restart at the second part, so check each alone
    parts, current = [], []
    for record in recorded:
        if current and record["id"] < current[-1]["id"]:
            parts.append(current)
            current = []
        current.append(record)
    parts.append(current)
    for part in parts:
        ids = {record["id"] for record in part}
        for record in part:
            assert record["parent"] is None or record["parent"] in ids
            assert record["end"] >= record["start"]
        assert min(spans.self_times(part).values()) >= -1e-9
        for klass, shares in spans.layer_shares(part).items():
            total = sum(v for k, v in shares.items() if k != "_ms")
            assert abs(total - 1.0) <= 0.02, (klass, shares)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(runs, workload):
    first, second = (runs[(workload, 1, repeat)]["result"]["metrics"]
                     for repeat in (0, 1))
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    if workload in SERVED:
        # every read the replay sent is a hit, a miss or a bypass
        recorded = spans.load(os.path.join(PERF_DIR, "out",
                                           f"trace-{workload}.jsonl"))
        reads = sum(1 for record in recorded
                    if record["name"] == "sql.execute")
        assert reads == sum(first[f"cache.{kind}"]["value"]
                            for kind in ("hits", "misses", "bypasses"))


def test_workload_signatures(runs):
    """What makes each workload the workload it claims to be."""
    def layer(workload, name):
        return runs[(workload, 1, 0)]["result"]["metrics"][name]["value"]

    assert layer("serve_hot", "cache.hit_rate") == 1.0
    assert layer("serve_hot", "storage.checkpoints") == 0
    assert layer("serve_cold", "cache.hit_rate") < 0.25
    assert layer("serve_cold", "cache.evictions") > 0
    assert layer("serve_mixed", "cache.delta_merged") > 0
    assert layer("serve_mixed", "cache.delta_invalidated") == 0
    routes = [line for line in runs[("cube_batch", 1, 0)]["lines"]
              if "route=" in line]
    assert any(line.split()[0] == "dense_cube" and "route=dense" in line
               for line in routes)
    assert any(line.split()[0] == "sparse_cube" and "route=sparse" in line
               for line in routes)


def test_nothing_left_behind(runs):
    assert not runs["shm_leaked"]
    assert not runs["processes_left"]  # running or zombie
    stray = subprocess.run(["pgrep", "-f", "serve_child.py"],
                           capture_output=True, text=True)
    assert stray.stdout.strip() == "", stray.stdout
