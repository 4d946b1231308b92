"""A/A self-check: is the benchmark steady enough for its own bounds?

    python3 perf/selfcheck.py [--runs N] [--workload NAME ...]

Runs two sets of N (default 3, the driver uses 10) untraced invocations
of the same code, every invocation on another seed, the way the driver
judges a PR against its parent.  For every workload x end-to-end metric
it prints each set's median and quartiles, the spread (interquartile
range over median) and the relative gap between the two medians, and
exits non-zero when a spread (``setup_s`` excepted) or a gap in the
worse direction exceeds the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))

#: the end-to-end metrics only some workloads print
#: (run.EXTRA_END_TO_END) are all timings and share the timing bound of
#: BENCHMARK.json, which carries the rest
EXTRA_BOUNDS = dict.fromkeys(
    ("query_p95_ms", "restart_s", "ingest_p50_ms",
     "cube_rows_per_s", "dense_cube_ms", "sparse_cube_ms",
     "filtered_cube_ms", "holistic_cube_ms"), 0.25)
HIGHER_IS_BETTER = {"throughput_qps", "cube_rows_per_s"}


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """Metric name -> value, parsed from the run's printed lines."""
    done = subprocess.run(
        [sys.executable, os.path.join(PERF_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"selfcheck: {workload} seed {seed} failed:\n"
                         + done.stdout[-2000:] + done.stderr[-2000:])
    values = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] == workload and parts[1] != "note:":
            try:
                values.setdefault(parts[1], float(parts[2]))
            except ValueError:
                pass
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")
    with open(os.path.join(os.path.dirname(PERF_DIR), "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    breaches = 0
    print("| workload | metric | set A q1 / median / q3 | spread A | "
          "set B q1 / median / q3 | spread B | gap B vs A | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        sets = [[one_run(workload, base + n, spec["run_seconds"])
                 for n in range(args.runs)] for base in (100, 200)]
        for name, bound in bounds.items():
            if name not in sets[0][0]:
                continue
            a, b = ([run[name] for run in runs] for runs in sets)
            a1, am, a3 = statistics.quantiles(a, n=4)
            b1, bm, b3 = statistics.quantiles(b, n=4)
            spread_a, spread_b = (a3 - a1) / am, (b3 - b1) / bm
            gap = (bm - am) / am
            worse = -gap if name in HIGHER_IS_BETTER else gap
            breach = worse > bound or (
                name != "setup_s" and max(spread_a, spread_b) > bound)
            breaches += breach
            print(f"| {workload} | {name} | {a1:.4g} / {am:.4g} / {a3:.4g} "
                  f"| {spread_a:.1%} | {b1:.4g} / {bm:.4g} / {b3:.4g} "
                  f"| {spread_b:.1%} | {gap:+.1%} | {bound:.0%} "
                  f"| {'BREACH' if breach else 'ok'} |", flush=True)
    print(f"selfcheck: {breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    raise SystemExit(main())
