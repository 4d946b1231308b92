"""The perf ledger's one command.

    python3 perf/run.py [--seed N] [--workload NAME] [--smoke]
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

The first form runs every workload (or the named one) untraced for the
end-to-end numbers, then traced for the per-layer numbers, prints one
``workload metric value unit`` line per metric, and writes
``perf/out/result.json`` and ``perf/out/trace-<workload>.jsonl``.  The
second form is the driver contract (BENCHMARK.json): one workload, one
mode, and as the last line of standard output one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status is non-zero when any operation failed or any answer
differed from the oracle.  See perf/README.md for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import sys
import time

import gen
import harness
import layers
import loadgen
import oracle
import spans
from harness import median, percentile
from repro.cluster import MANAGER, shutdown_pools
from repro.compute.optimizer import make_algorithm
from repro.core.cube import cube, rollup
from repro.maintenance import MaterializedCube
from repro.serve.client import QueryClient
from repro.sql.executor import SQLSession
from repro.sql.parser import parse_any

#: Share of a served run's load time spent in each phase.  An untraced
#: run is all closed-loop (after the warm-up): everything the driver
#: gates comes from there.  A traced run spends half its ``--seconds``
#: on replays; its shorter load time feeds only ``driver.*`` /
#: ``server.*`` and goes mostly to the open-loop phase, whose
#: latencies are advisory because they do not repeat on this sandbox
#: (perf/README.md, "Why latency is closed-loop").
_WARM = 0.10
_TRACED_LOAD = 0.5
_TRACED_OPEN = 0.60

#: the percentile behind ``query_tail_ms``
TAIL = 0.95

#: end-to-end metrics a workload prints beyond the BENCHMARK.json set
#: (which every workload emits): name -> unit
EXTRA_END_TO_END = {
    "serve_hot": {"query_p95_ms": "ms", "restart_s": "s",
                  "error_rate": "ratio"},
    "serve_cold": {"query_p95_ms": "ms", "error_rate": "ratio"},
    "serve_mixed": {"query_p95_ms": "ms", "ingest_p50_ms": "ms",
                    "error_rate": "ratio"},
    "cube_batch": {"cube_rows_per_s": "1/s", "dense_cube_ms": "ms",
                   "sparse_cube_ms": "ms", "filtered_cube_ms": "ms",
                   "holistic_cube_ms": "ms", "error_rate": "ratio"},
}


class Config:
    def __init__(self, seed: int, seconds: float, smoke: bool,
                 traced: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        #: smoke runs shrink tables and replays 16x and set up once
        self.scale = 16 if smoke else 1
        #: ``setup_s`` is the median of this many set-ups from scratch
        self.setup_repeats = 1 if smoke or traced else 3
        self.probe_pings = 20 if smoke else 200

    def replay(self, workload: str) -> int:
        return max(gen.REPLAY_REQUESTS[workload] // self.scale, 22)


class Outcome:
    """What one run of one workload produced."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.inputs_digest = ""
        #: traced runs: per-class layer shares, columnar routes, and
        #: the wire replay's spans and per-request seconds
        self.shares: dict = {}
        self.routes: dict = {}
        self.wire_spans: list = []
        self.wire_seconds: list = []

    def put(self, name: str, value: float, n: int | None = None) -> None:
        self.metrics[name] = float(value)
        if n is not None:
            self.samples[name] = n

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(why)


# -- served workloads --------------------------------------------------------


class Served:
    """One set-up server child plus what the run knows about it."""

    def __init__(self, workload: str, cfg: Config) -> None:
        started = time.perf_counter()
        self.workload = workload
        self.tables = gen.tables_for(workload, cfg.seed, cfg.scale)
        self.dir = harness.scratch_dir(f"{workload}-")
        self.input_path = os.path.join(self.dir, "input.json")
        gen.write_input(self.input_path, self.tables)
        self.durable = workload != "serve_cold"
        self.data_dir = os.path.join(self.dir, "data") if self.durable \
            else None
        self.budget = gen.COLD_BUDGET_CELLS if workload == "serve_cold" \
            else None
        self.child = self.spawn()
        try:
            self.first = first_statement(workload, cfg.seed, self.tables)
            with QueryClient(*self.child.address) as client:
                self.first_answer = client.execute(self.first["sql"])
        except BaseException:
            self.child.kill()
            self.remove()
            raise
        self.setup_s = time.perf_counter() - started

    def spawn(self, use_asyncio: bool = False,
              data_dir: str | None = None) -> harness.ChildServer:
        return harness.ChildServer(
            self.input_path, data_dir=data_dir or self.data_dir,
            cache_budget=self.budget, use_asyncio=use_asyncio)

    def streams(self, cfg: Config) -> list:
        return [loadgen.flatten(gen.request_blocks(
            self.workload, cfg.seed, self.tables, client))
            for client in range(loadgen.CONNECTIONS)]

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def first_statement(workload: str, seed: int, tables: dict) -> dict:
    """The statement whose answer ends set-up: the warm CUBE where the
    workload has one, else the stream's first query."""
    if workload != "serve_cold":
        return gen.warm_statement()
    return next(loadgen.flatten(gen.request_blocks(workload, seed, tables)))


def set_up(workload: str, cfg: Config, out: Outcome) -> Served:
    """Set up ``cfg.setup_repeats`` times (each from scratch: generate,
    write, spawn, load, first answer); ``setup_s`` is the median and the
    last server stays up for the measurement."""
    times = []
    for attempt in range(cfg.setup_repeats):
        served = Served(workload, cfg)
        times.append(served.setup_s)
        if attempt < cfg.setup_repeats - 1:
            served.child.stop()
            served.remove()
    out.put("setup_s", median(times), len(times))
    out.inputs_digest = gen.inputs_digest(workload, cfg.seed, served.tables)
    return served


class Answers:
    """First and last answer of every distinct statement, canonicalised
    only after the timed windows."""

    def __init__(self) -> None:
        self.statements: dict[str, dict] = {}
        self._tables: dict[str, list] = {}

    def see(self, request: dict, table) -> None:
        kept = self._tables.setdefault(request["sql"], [])
        if not kept:
            self.statements[request["sql"]] = {
                "sql": request["sql"], "plan": request["plan"]}
        kept[1:] = [table]

    def see_samples(self, samples: list) -> None:
        for sample in samples:
            if sample.ok and sample.request.get("op") == "query":
                self.see(sample.request, sample.reply)

    def observed(self) -> dict:
        return {sql: [harness.canonical(t) for t in tables]
                for sql, tables in self._tables.items()}


def apply_ingests(rows: list, samples: list) -> None:
    """Fold acknowledged ingest ops into the model row list.  Streams
    delete and update only rows they inserted, so the base rows are
    never searched."""
    written: list = []
    for sample in samples:
        request = sample.request
        if not sample.ok or request.get("op") != "ingest":
            continue
        for old, new in request["updates"]:
            written.remove(old)
            written.append(new)
        for row in request["deletes"]:
            written.remove(row)
        written.extend(request["inserts"])
    rows.extend(written)


def verify(out: Outcome, tables: dict, answers: Answers) -> None:
    reference = oracle.expected(tables, list(answers.statements.values()))
    bad = oracle.mismatches(reference, answers.observed())
    out.fail(len(bad), "wrong answers: " + "; ".join(bad[:3]))


def load_windows(served: Served, cfg: Config, out: Outcome,
                 answers: Answers | None) -> list:
    """Warm-up, closed-loop and (traced runs) open-loop phases against
    the child; returns every sample sent (serve_mixed folds them into
    its model)."""
    address = served.child.address
    workload = served.workload
    streams = served.streams(cfg)
    seconds = cfg.seconds * (_TRACED_LOAD if cfg.traced else 1.0)
    open_s = seconds * _TRACED_OPEN if cfg.traced else 0.0
    closed_s = seconds - seconds * _WARM - open_s
    rate = gen.OPEN_RATE_QPS[workload]
    calib = [harness.calibrate()]
    with QueryClient(*address) as control:
        warm, _ = loadgen.run_phase(address, streams, seconds * _WARM)
        before = control.stats()
        calib.append(harness.calibrate())
        closed, closed_end = loadgen.run_phase(address, streams, closed_s)
        calib.append(harness.calibrate())
        opened = []
        if open_s:
            opened, _ = loadgen.run_phase(address, streams, open_s, rate)
            calib.append(harness.calibrate())
        after = control.stats()
        log = control.log(500)
    out.put("driver.calib_ms", median(calib), len(calib))
    out.attempted += len(closed + opened)
    failed = [s for s in closed + opened if not s.ok]
    out.fail(len(failed), f"{len(failed)} requests failed or went unsent, "
             f"e.g. {failed[0].reply!r}" if failed else "")
    if answers is not None:
        answers.see_samples(closed + opened)

    def reads(samples):
        return [s.latency_ms for s in samples
                if s.ok and s.klass != "ingest"]

    done = [s.done for s in closed if s.ok and s.done <= closed_end]
    out.put("throughput_qps", windowed_rate(done, closed_end, closed_s),
            len(done))
    queries = reads(closed)
    out.put("query_p50_ms", median(queries), len(queries))
    out.put("query_tail_ms", percentile(queries, TAIL), len(queries))
    out.put("query_p95_ms", out.metrics["query_tail_ms"], len(queries))
    if len(queries) * (1.0 - TAIL) < 10:
        out.notes.append(f"p95 has <10 samples beyond it "
                         f"(n={len(queries)}): advisory only")
    if workload == "serve_mixed":
        ingests = [s.latency_ms for s in closed
                   if s.ok and s.klass == "ingest"]
        out.put("ingest_p50_ms", median(ingests), len(ingests))

    if opened:
        arrivals = reads(opened)
        sent = [s for s in opened if s.klass != "unsent"]
        out.put("driver.samples", len(opened))
        out.put("driver.open_rate_qps", rate)
        out.put("driver.open_p50_ms", median(arrivals), len(arrivals))
        out.put("driver.open_p95_ms", percentile(arrivals, 0.95),
                len(arrivals))
        out.put("driver.late_p95_ms", percentile(
            [(s.sent - s.due) * 1000.0 for s in sent], 0.95))
        out.put("driver.busy_share", sum(s.done - s.sent for s in sent)
                / (open_s * loadgen.CONNECTIONS))
    waits = [r.get("admission_wait_ms", 0.0) for r in log["records"]]
    out.put("server.admission_wait_ms", sum(waits) / max(len(waits), 1),
            len(waits))
    out.put("server.shed", log["summary"]["outcomes"].get("shed", 0))
    if served.durable:
        in_window = (after["storage"]["checkpoints"]
                     - before["storage"]["checkpoints"])
        out.put("storage.checkpoints", in_window)
        if workload == "serve_hot":
            out.fail(in_window, f"{in_window} checkpoints inside the "
                     "serve_hot window (the working set fits the cache: "
                     "there should be none)")
    return warm + closed + opened


def windowed_rate(done: list, end: float, seconds: float,
                  parts: int = 4) -> float:
    """Completions per second as the median over ``parts`` equal
    slices of the window, so a burst of outside interference that
    fits in one slice does not move the number."""
    width = seconds / parts
    counts = [0] * parts
    for moment in done:
        counts[min(int((moment - (end - seconds)) / width), parts - 1)] += 1
    return median(counts) / width


def mixed_check(served: Served, statements: list, answers: Answers) -> None:
    """serve_mixed's answers move with its writes, so they are checked
    at quiesce points (any query first flushes buffered ingests)."""
    with QueryClient(*served.child.address) as client:
        for statement in statements:
            answers.see(statement, client.execute(statement["sql"]))


def restart_epilogue(served: Served, out: Outcome) -> None:
    """serve_hot: respawn on the data dir the clean shutdown left;
    ``restart_s`` runs to the first correct answer to the warm CUBE
    (median of three restarts, each ending in a clean shutdown)."""
    expected = harness.canonical(served.first_answer)
    times = []
    for _ in range(3):
        started = time.perf_counter()
        with served.spawn() as child:
            with QueryClient(*child.address) as client:
                answer = client.execute(served.first["sql"])
            times.append(time.perf_counter() - started)
            if child.restored_entries < 1:
                out.fail(1, "restart restored no cache entries")
        if harness.canonical(answer) != expected:
            out.fail(1, "restarted server answered the warm CUBE "
                     "differently")
    out.put("restart_s", median(times), len(times))


def run_served(workload: str, cfg: Config) -> Outcome:
    traced = cfg.traced
    out = Outcome(workload)
    served = set_up(workload, cfg, out)
    answers = Answers()
    mixed = workload == "serve_mixed"
    #: what the tables should hold once every acknowledged write landed
    model = {name: {**spec, "rows": list(spec["rows"])}
             for name, spec in served.tables.items()}
    reads = gen.mixed_read_statements()
    try:
        with served.child:
            if mixed:
                unwritten = Answers()
                mixed_check(served, reads, unwritten)
                verify(out, model, unwritten)
            else:
                answers.see(served.first, served.first_answer)
            samples = []
            if traced:
                samples += traced_wire(served, cfg, out, answers, mixed)
            samples += load_windows(served, cfg, out,
                                    None if mixed else answers)
            if mixed:
                apply_ingests(model["FACTS"]["rows"], samples)
                mixed_check(served, reads + [served.first], answers)
            out.put("peak_rss_mb",
                    served.child.stop()["peak_rss_kb"] / 1024.0)
        if workload == "serve_hot" and not traced:
            restart_epilogue(served, out)
        if traced:
            traced_in_process(served, cfg, out)
            if workload == "serve_hot":
                aio_ratio(served, cfg, out)
        verify(out, model, answers)
    finally:
        served.child.kill()
        served.remove()
    return out


# -- the traced side of a served run -----------------------------------------


def replay_requests(served: Served, cfg: Config) -> list:
    """The requests every replay sends: the head of a stream no load
    connection uses (serve_mixed streams own the rows they delete)."""
    stream = loadgen.flatten(gen.request_blocks(
        served.workload, cfg.seed, served.tables, client=99))
    return [next(stream) for _ in range(cfg.replay(served.workload))]


def traced_wire(served: Served, cfg: Config, out: Outcome,
                answers: Answers, mixed: bool) -> list:
    """Replay over the wire on one connection, traced and untraced,
    plus a ping probe.  Runs before the load windows, so the traced pass
    meets the server in the state the in-process pipeline starts from."""
    requests = replay_requests(served, cfg)
    recorder = spans.Recorder()

    def on_one_connection(rec, requests=requests):
        with QueryClient(*served.child.address) as client:
            passes = []
            for number, request in enumerate(requests):
                sample = loadgen.Sample(request, time.perf_counter())
                rec.request = number
                with rec.span("driver.request", **{"class": request["class"]}):
                    with rec.span("serve.server.roundtrip"):
                        sample.reply = loadgen.send(client, request)
                sample.done = time.perf_counter()
                sample.ok = True
                passes.append(sample)
            return passes

    # a discarded head pass first, so no timed pass pays the
    # connection's first-use costs; then traced, untraced, traced, so a
    # server that keeps warming up does not read as tracing overhead
    head = on_one_connection(spans.NullRecorder(),
                             requests[:len(requests) // 4])
    traced = on_one_connection(recorder)
    untraced = on_one_connection(spans.NullRecorder())
    again = on_one_connection(spans.Recorder())
    sent = head + traced + untraced + again
    if not mixed:
        answers.see_samples(traced)
    out.attempted += len(sent)
    out.wire_seconds = [s.done - s.due for s in traced]
    out.wire_spans = recorder.spans
    out.put("tracing.overhead_ratio",
            (median([s.latency_ms for s in traced])
             + median([s.latency_ms for s in again])) / 2.0
            / median([s.latency_ms for s in untraced]), len(traced))
    with QueryClient(*served.child.address) as client:
        pings = [layers.timed(client.ping)[0]
                 for _ in range(cfg.probe_pings)]
    out.put("server.ping_us", median(pings) * 1e6, len(pings))
    return sent


def span_ms(recorded: list, name: str) -> list[float]:
    return [(s["end"] - s["start"]) * 1000.0 for s in recorded
            if s["name"] == name]


def mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def traced_in_process(served: Served, cfg: Config, out: Outcome) -> None:
    """The replay through :class:`layers.Pipeline`, then everything the
    per-layer catalogue derives from its spans and counters."""
    workload = served.workload
    requests = replay_requests(served, cfg)
    recorder = spans.Recorder()
    data_dir = os.path.join(served.dir, "pipeline") if served.durable \
        else None
    pipeline = layers.Pipeline(served.tables, recorder,
                               cache_budget=served.budget,
                               data_dir=data_dir)
    try:
        if workload != "serve_cold":
            # the server was warmed before the replay; so is the pipeline
            pipeline.handle(-1, {"op": "query", "class": "warm",
                                 **gen.warm_statement()})
        floor = pipeline.disk_bytes() if served.durable else 0
        head = len(recorder.spans)
        totals = [layers.timed(pipeline.handle, number, request)[0]
                  for number, request in enumerate(requests)]
        if pipeline.ingestor.pending_ops():
            with recorder.span("maintenance.ingest_flush"):
                pipeline.ingestor.flush()
            pipeline.checkpoint()
        replayed = recorder.spans[head:]
        pipeline.cache.dump_state()
        cache = pipeline.cache.stats()
        ingest = pipeline.ingestor.stats
        if served.durable:
            out.put("storage.bytes_on_disk", pipeline.disk_bytes())
            if pipeline.ingested_bytes:
                out.put("storage.bytes_per_user_byte",
                        (pipeline.disk_bytes() - floor)
                        / pipeline.ingested_bytes)
            out.put("storage.wal_position",
                    pipeline.store.stats()["wal_position"])
            restore_s, restored = pipeline.restart()
            out.put("storage.restore_ms", restore_s * 1000.0)
            out.put("storage.restored_entries", restored)
        uncached = {sql: layers.timed(pipeline.uncached.execute, sql)[0]
                    for sql in list(pipeline.miss_seconds)[:8]}
    finally:
        pipeline.close()

    queries = [r for r in requests if r["op"] == "query"]
    out.put("protocol.request_decode_us", 1000.0 * mean(
        span_ms(replayed, "serve.protocol.request_decode")), len(requests))
    out.put("protocol.result_encode_ms", mean(
        span_ms(replayed, "serve.protocol.result_encode")), len(queries))
    out.put("protocol.result_decode_ms", mean(
        span_ms(replayed, "serve.protocol.result_decode")), len(queries))
    results = pipeline.results[-len(queries):]
    out.put("protocol.bytes_per_result", mean([r["bytes"] for r in results]))
    out.put("protocol.cells_per_result", mean([r["cells"] for r in results]))

    selfs = spans.self_times(recorder.spans)
    executes = [s for s in replayed if s["name"] == "sql.execute"]
    out.put("sql.parse_ms", mean(span_ms(replayed, "sql.parse")))
    out.put("sql.execute_ms", mean(span_ms(replayed, "sql.execute")),
            len(executes))
    out.put("sql.self_ms", 1000.0 * mean([selfs[s["id"]] for s in executes]))
    out.put("engine.filter_ms", mean(span_ms(replayed, "engine.filter")))

    reads = cache["hits"] + cache["misses"] + cache["bypasses"] \
        - (0 if workload == "serve_cold" else 1)  # the warm miss
    if reads != len(queries):
        out.fail(1, f"cache saw {reads} lookups for {len(queries)} reads")
    hits = cache["hits"]
    out.put("cache.serve_ms", mean(span_ms(replayed, "serve.cache.serve")))
    out.put("cache.hit_rate", hits / max(len(queries), 1))
    out.put("cache.hits", hits)
    out.put("cache.misses", reads - hits - cache["bypasses"])
    out.put("cache.bypasses", cache["bypasses"])
    out.put("cache.evictions", cache["evicted_space"])
    out.put("cache.resident_cells", cache["resident_cells"])
    if uncached:
        out.put("cache.miss_vs_uncached_ratio",
                sum(pipeline.miss_seconds[sql][0] for sql in uncached)
                / sum(uncached.values()), len(uncached))
    out.put("cache.apply_delta_ms", mean(
        span_ms(replayed, "serve.cache.apply_delta")))
    out.put("cache.delta_merged", cache["delta_merged"])
    out.put("cache.delta_invalidated", cache["delta_invalidated"])
    dumps = [s for s in recorder.spans
             if s["name"] == "serve.cache.dump_state"]
    out.put("cache.dump_state_ms", mean(
        [(s["end"] - s["start"]) * 1000.0 for s in dumps]), len(dumps))
    out.put("cache.dump_state_bytes", dumps[-1]["bytes"])

    out.put("ingest.submit_ms", mean(
        span_ms(replayed, "maintenance.ingest_submit")))
    flushes = span_ms(replayed, "maintenance.ingest_flush")
    out.put("ingest.flush_ms", mean(flushes), len(flushes))
    applied = (ingest["inserts_applied"] + ingest["deletes_applied"]
               + ingest["updates_applied"])
    out.put("ingest.rows_per_flush", applied / max(ingest["flushes"], 1))
    checkpoints = span_ms(replayed, "storage.checkpoint")
    out.put("storage.checkpoint_ms", mean(checkpoints), len(checkpoints))
    out.put("storage.checkpoints", len(checkpoints))

    compute_counters(out, pipeline.bypass_stats())
    out.put("compute.build_task_ms", mean(
        span_ms(replayed, "compute.build_task")))
    out.put("compute.algorithm_ms", mean(
        span_ms(replayed, "compute.algorithm")))
    out.put("columnar.batch_encode_ms", mean(
        span_ms(replayed, "compute.columnar.batch_encode")))
    out.put("compute.kernel_fold_ms", out.metrics["compute.algorithm_ms"]
            - out.metrics["columnar.batch_encode_ms"])

    # the wire adds what the in-process sum of the same requests lacks
    out.put("server.overhead_ms", 1000.0 * median(
        [wire - inside for wire, inside in zip(out.wire_seconds, totals)]),
        len(totals))
    out.shares = spans.layer_shares(replayed)
    write_trace(workload, replayed + out.wire_spans)


def compute_counters(out: Outcome, stats_and_rows: list) -> None:
    """The exactly repeating Section 5 counters, summed over the
    computes the benchmark itself drove."""
    for field in ("base_scans", "iter_calls", "merge_calls",
                  "cells_produced"):
        out.put(f"compute.{field}",
                sum(getattr(stats, field) for stats, _ in stats_and_rows))
    out.put("compute.rows_scanned", sum(
        rows * max(stats.base_scans, 1) for stats, rows in stats_and_rows))
    routes = [stats.notes["route"] for stats, _ in stats_and_rows
              if "route" in stats.notes]
    out.put("compute.route_dense_share",
            routes.count("dense") / len(routes) if routes else 0.0,
            len(routes))


def aio_ratio(served: Served, cfg: Config, out: Outcome) -> None:
    """``AsyncQueryServer`` / ``QueryServer`` closed-loop qps on the
    serve_hot stream: the same streams for as long against a warmed
    asyncio child as this run's own closed-loop phase took."""
    seconds = cfg.seconds * _TRACED_LOAD
    closed_s = seconds * (1.0 - _WARM - _TRACED_OPEN)
    with served.spawn(True, os.path.join(served.dir, "aio")) as child:
        with QueryClient(*child.address) as client:
            client.execute(served.first["sql"])
        streams = served.streams(cfg)
        loadgen.run_phase(child.address, streams, seconds * _WARM)
        samples, end = loadgen.run_phase(child.address, streams, closed_s)
    qps = windowed_rate([s.done for s in samples if s.ok and s.done <= end],
                        end, closed_s)
    out.put("aio.qps_ratio", qps / out.metrics["throughput_qps"])


def write_trace(workload: str, recorded: list) -> None:
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    spans.write(os.path.join(harness.OUT_DIR, f"trace-{workload}.jsonl"),
                recorded)


# -- cube_batch --------------------------------------------------------------


def run_batch(cfg: Config) -> Outcome:
    """The operator as a library: the fixed pass through a cache-less
    ``SQLSession``, repeated until ``--seconds`` have been measured."""
    out = Outcome("cube_batch")
    traced = cfg.traced
    statements = gen.batch_statements()
    times = []
    for _ in range(cfg.setup_repeats):
        started = time.perf_counter()
        tables = gen.tables_for("cube_batch", cfg.seed, cfg.scale)
        session = SQLSession(harness.build_catalog(tables))
        first = session.execute(statements["filtered_cube"]["sql"])
        times.append(time.perf_counter() - started)
    out.put("setup_s", median(times), len(times))
    out.inputs_digest = gen.inputs_digest("cube_batch", cfg.seed, tables)
    answers = Answers()
    answers.see(statements["filtered_cube"], first)

    # a traced run needs the pass once (answers to verify); its time
    # goes to the layer probes
    budget = 0.0 if traced else cfg.seconds
    per_class: dict[str, list] = {klass: [] for klass in statements}
    calib = [harness.calibrate()]
    started = time.perf_counter()
    while True:
        calib.append(harness.calibrate())
        for klass, statement in statements.items():
            seconds, answer = layers.timed(session.execute, statement["sql"])
            per_class[klass].append(seconds * 1000.0)
            answers.see(statement, answer)
        if time.perf_counter() - started >= budget:
            break
    passes = len(per_class["dense_cube"])
    out.attempted += passes * len(statements)
    medians = {klass: median(ms) for klass, ms in per_class.items()}
    everything = [ms for series in per_class.values() for ms in series]
    out.put("throughput_qps", 1000.0 * len(statements)
            / sum(medians.values()), passes)
    out.put("query_p50_ms", median(everything), len(everything))
    out.put("query_tail_ms", max(medians.values()), passes)
    rows = sum(len(tables[s["plan"]["table"]]["rows"])
               for s in statements.values())
    out.put("cube_rows_per_s", 1000.0 * rows / sum(medians.values()), passes)
    for klass in ("dense_cube", "sparse_cube", "filtered_cube",
                  "holistic_cube"):
        out.put(f"{klass}_ms", medians[klass], passes)
    out.put("driver.samples", len(everything))
    out.put("driver.calib_ms", median(calib), len(calib))
    if traced:
        batch_layers(out, session, statements, cfg)
    out.put("peak_rss_mb", resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    verify(out, tables, answers)
    return out


def batch_layers(out: Outcome, session, statements: dict,
                 cfg: Config) -> None:
    """One traced pass: every statement as execute + its compute path
    call by call, then the engine comparison on the dense CUBE's task
    and the maintenance probe."""
    recorder = spans.Recorder()
    probes = {}
    for number, (klass, statement) in enumerate(statements.items()):
        recorder.request = number
        session.execute(statement["sql"])  # the probes below get two goes too
        with recorder.span("driver.request", **{"class": klass}):
            with recorder.span("sql.execute") as execute:
                session.execute(statement["sql"])
        probes[klass] = layers.probe_compute(
            session.catalog, statement["sql"], statement["plan"])
        recorder.estimated("sql.parse", execute, min(
            layers.timed(parse_any, statement["sql"])[0] for _ in range(3)))
        if probes[klass]["filter_s"]:
            recorder.estimated("engine.filter", execute,
                               probes[klass]["filter_s"])
        layers.place_compute(recorder, execute, probes[klass])
    selfs = spans.self_times(recorder.spans)
    executes = [s for s in recorder.spans if s["name"] == "sql.execute"]
    out.put("sql.parse_ms", mean(span_ms(recorder.spans, "sql.parse")))
    out.put("sql.execute_ms", mean(span_ms(recorder.spans, "sql.execute")))
    out.put("sql.self_ms", 1000.0 * mean([selfs[s["id"]] for s in executes]))
    out.put("engine.filter_ms", 1000.0 * probes["filtered_cube"]["filter_s"])
    compute_counters(out, [(p["stats"], len(p["task"].rows))
                           for p in probes.values()])
    dense = probes["dense_cube"]
    out.put("compute.build_task_ms", 1000.0 * dense["build_task_s"])
    out.put("compute.algorithm_ms", 1000.0 * dense["algorithm_s"])
    out.put("columnar.batch_encode_ms", 1000.0 * dense["batch_s"])
    out.put("compute.kernel_fold_ms",
            1000.0 * (dense["algorithm_s"] - dense["batch_s"]))

    plan = statements["dense_cube"]["plan"]
    table = session.catalog.get(plan["table"])
    requests = layers.aggregate_requests(plan["aggs"])
    cube_s, _ = layers.best_of_two(cube, table, plan["dims"], requests)
    out.put("core.finish_ms", 1000.0 * max(
        cube_s - dense["build_task_s"] - dense["algorithm_s"], 0.0))
    out.put("core.rollup_ms", 1000.0 * layers.timed(
        rollup, table, plan["dims"], requests)[0])
    out.put("compute.from_core_ms", 1000.0 * layers.timed(
        make_algorithm("from-core").compute, dense["task"])[0])
    try:
        out.put("cluster.w2_ms", 1000.0 * layers.timed(
            make_algorithm("cluster", n_workers=2).compute,
            dense["task"])[0])
    finally:
        shutdown_pools()
        MANAGER.release_all()

    # Section 6 maintenance on a cube small enough to build quickly
    n_rows = max(4_000 // cfg.scale, 200)
    base = harness.build_table({"dims": plan["dims"][:4], "rows": [
        row[:4] + row[-1:] for row in table.rows[:n_rows]]})
    maintained = MaterializedCube(base, plan["dims"][:4],
                                  layers.aggregate_requests(plan["aggs"][:3]))
    # few rows: one maintained insert costs ~30 ms at the seed commit
    moved = [row[:4] + row[-1:]
             for row in table.rows[n_rows:n_rows + 40 // cfg.scale]]
    insert_s, _ = layers.timed(lambda: [maintained.insert(r) for r in moved])
    delete_s, _ = layers.timed(lambda: [maintained.delete(r) for r in moved])
    out.put("maintenance.insert_us_per_row", 1e6 * insert_s / len(moved))
    out.put("maintenance.delete_us_per_row", 1e6 * delete_s / len(moved))
    out.shares = spans.layer_shares(recorder.spans)
    out.routes = {klass: p["stats"].notes.get("route", "-")
                  for klass, p in probes.items()}
    write_trace("cube_batch", recorder.spans)


# -- reporting ---------------------------------------------------------------


def load_spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_one(workload: str, cfg: Config) -> Outcome:
    out = run_batch(cfg) if workload == "cube_batch" \
        else run_served(workload, cfg)
    out.put("error_rate", out.failed / max(out.attempted, 1), out.attempted)
    return out


def contract_line(out: Outcome, declared: list) -> str:
    metrics = {}
    for metric in declared:
        value = out.metrics.get(metric["name"], 0.0)
        if not math.isfinite(value):
            raise SystemExit(f"perf: {metric['name']} is {value}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": out.failed == 0,
                       "attempted": max(out.attempted, 1),
                       "failed": out.failed, "metrics": metrics})


def print_metrics(out: Outcome, units: dict) -> None:
    print(f"{out.workload} inputs_digest {out.inputs_digest}")
    for name, unit in units.items():
        # a metric the workload's layers never touch prints as 0
        count = out.samples.get(name)
        print(f"{out.workload} {name} {out.metrics.get(name, 0.0):.6g} {unit}"
              + (f" n={count}" if count is not None else ""))
    for note in out.notes:
        print(f"{out.workload} note: {note}")


def print_shares(out: Outcome) -> None:
    """Per query class, the share of the in-process request time each
    layer's self time takes (each row sums to 1)."""
    if not out.shares:
        return
    names = sorted({layer for shares in out.shares.values()
                    for layer in shares if layer != "_ms"})
    print(f"{out.workload} layer shares of the request, by query class "
          "(self time; in-process replay)")
    print(f"  {'class':<14}{'ms':>9} " + " ".join(f"{n:>16}" for n in names)
          + f"{'sum':>7}")
    for klass, shares in sorted(out.shares.items()):
        cells = " ".join(f"{shares.get(n, 0.0):>16.3f}" for n in names)
        total = sum(v for n, v in shares.items() if n != "_ms")
        route = out.routes.get(klass)
        print(f"  {klass:<14}{shares['_ms']:>9.3f} {cells}{total:>7.3f}"
              + (f"  route={route}" if route else ""))


def main(argv: list[str] | None = None) -> int:
    harness.adopt_orphans()
    try:
        return measure(argv)
    finally:
        harness.reap_children()


def measure(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tables / 16, short windows, one set-up: "
                             "a functional check, not a measurement")
    args = parser.parse_args(argv)
    # die through the ``finally`` blocks, so no child outlives a SIGTERM
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else (
        0.6 if args.smoke else float(spec["run_seconds"]))

    def run(workload: str, traced: bool) -> tuple[Outcome, dict]:
        out = run_one(workload, Config(args.seed, seconds, args.smoke,
                                       traced))
        units = {m["name"]: m["unit"]
                 for m in spec["per_layer" if traced else "end_to_end"]}
        if not traced:
            units.update(EXTRA_END_TO_END[workload])
        print_metrics(out, units)
        print_shares(out)
        return out, units

    if args.trace is not None:  # the driver contract: one run, one line
        if args.workload is None:
            parser.error("--trace needs --workload")
        out, _ = run(args.workload, bool(args.trace))
        print(contract_line(
            out, spec["per_layer" if args.trace else "end_to_end"]))
        return 0 if out.failed == 0 else 1

    workloads = [args.workload] if args.workload else list(gen.WORKLOADS)
    report = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    failed = 0
    for workload in workloads:
        entry = report["workloads"][workload] = {"notes": []}
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            out, units = run(workload, traced)
            failed += out.failed
            entry[key] = {name: out.metrics.get(name, 0.0) for name in units}
            entry[key + "_samples"] = out.samples
            entry["inputs_digest"] = out.inputs_digest
            entry["notes"] += out.notes
            if traced:
                entry["layer_shares"] = out.shares
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    with open(os.path.join(harness.OUT_DIR, "result.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
