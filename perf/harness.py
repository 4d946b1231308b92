"""Shared plumbing of the perf ledger: the ``src/`` bootstrap, table
construction from generated inputs, answer canonicalisation, sample
statistics, the child-server process handle, and the sweep that leaves
no process behind."""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERF_DIR, "out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    # a directory holding only the benchmark has nothing to measure
    sys.exit(f"perf: no program to measure: {SRC}/repro is missing")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.engine.catalog import Catalog  # noqa: E402
from repro.engine.schema import Column, Schema  # noqa: E402
from repro.engine.table import Table  # noqa: E402
from repro.types import DataType  # noqa: E402


def build_table(spec: dict) -> Table:
    """A generated table spec (``gen.tables_for``) as an engine Table:
    string dimensions, one integer measure ``m``."""
    columns = [Column(name, DataType.STRING) for name in spec["dims"]]
    columns.append(Column("m", DataType.INTEGER))
    return Table(Schema(columns), [tuple(row) for row in spec["rows"]],
                 validate=False)


def build_catalog(tables: dict) -> Catalog:
    catalog = Catalog()
    for name, spec in tables.items():
        catalog.register(name, build_table(spec))
    return catalog


def canonical(table: Table) -> tuple[int, str]:
    """An answer as (row count, digest of its sorted row reprs) -- the
    repr-level identity the repo's equivalence suites assert."""
    reprs = sorted(repr(row) for row in table.rows)
    blob = "\n".join(reprs).encode("utf-8")
    return len(reprs), hashlib.sha256(blob).hexdigest()


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``perf/out`` (the benchmark writes only
    inside its checkout)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


# -- sample statistics -------------------------------------------------------


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in 0..1); 0.0 for
    no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def median(samples: list) -> float:
    return statistics.median(samples) if samples else 0.0


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes right now.  The
    sandbox's CPU speed shifts by ~25% for tens of seconds at a time;
    ``driver.calib_ms`` lets a reader tell such a shift from a change
    in the program."""
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - started) * 1000.0


# -- the child server --------------------------------------------------------


class ChildServer:
    """One ``perf/serve_child.py`` process: spawned on an ephemeral
    port, SIGTERMed for a clean shutdown, killed and reaped on any
    other exit path."""

    def __init__(self, input_path: str, *, data_dir: str | None = None,
                 cache_budget: int | None = None,
                 use_asyncio: bool = False) -> None:
        argv = [sys.executable, os.path.join(PERF_DIR, "serve_child.py"),
                "--input", input_path]
        if data_dir is not None:
            argv += ["--data-dir", data_dir]
        if cache_budget is not None:
            argv += ["--cache-budget", str(cache_budget)]
        if use_asyncio:
            argv.append("--asyncio")
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        text=True)
        self.report: dict = {}
        try:
            try:
                banner = json.loads(self.process.stdout.readline())
                self.address = (banner["host"], banner["port"])
                self.restored_entries = banner["restored_entries"]
            except (ValueError, KeyError):
                raise RuntimeError(
                    "perf: child server printed no banner") from None
        except BaseException:  # incl. Ctrl-C while it loads: reap it
            self.kill()
            raise

    def stop(self) -> dict:
        """Clean shutdown (flush, checkpoint, close); returns the
        child's exit report (``peak_rss_kb``)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("perf: child server ignored SIGTERM")
        for line in out.splitlines():
            if line.startswith("{"):
                self.report = json.loads(line)
        if self.process.returncode != 0:
            raise RuntimeError(
                f"perf: child server exited {self.process.returncode}")
        return self.report

    def kill(self) -> None:
        """Kill (if still running) and reap; safe to call twice."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "ChildServer":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None and self.process.poll() is None:
            self.stop()
        else:
            self.kill()


# -- leaving no process behind -----------------------------------------------


_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans() -> None:
    """Make this process the one that inherits every descendant its
    children orphan (Linux ``PR_SET_CHILD_SUBREAPER``), so that
    :func:`reap_children` finds them instead of init."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # gone since the listing
        if fields[1] == me:
            found.append(int(entry))
    return found


def reap_children() -> None:
    """Kill and wait for everything still running under this process:
    a child a failed path forgot, and what the measured program starts
    without ever waiting for it (``multiprocessing``'s resource tracker,
    which ``repro.cluster``'s shared-memory slabs bring up).  Run last:
    it takes the exit status of every child."""
    while True:
        for pid in children():
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return
