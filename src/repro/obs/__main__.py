"""``python -m repro.obs`` -- tail and summarize the query log.

Three record sources, checked in this order:

- ``--log FILE.jsonl``: a query-log file written by
  :meth:`~repro.obs.querylog.QueryLog.write_json_lines` (e.g. the
  serving-smoke CI artifact);
- ``--connect host:port``: the ``log`` op of a running query server;
- neither: this process's own :data:`~repro.obs.querylog.QUERY_LOG`
  (mostly useful under ``python -c`` / notebooks).

Output (``--format text``) is the summary header, the busiest workload
signatures with hit rate and p50/p95/p99, the top-N slowest queries,
and the most recent records; ``--format json`` emits the same as one
JSON object.  When the durable storage engine has been active
(checkpoints, recoveries, WAL replay -- docs/STORAGE.md), a
``storage:`` section reports its counters: from the server's stats
under ``--connect``, from this process's metric registry otherwise.
Exit codes, ``--format`` and the stdout path are those of the other
repro CLIs (:mod:`repro.diagnostics`): 0 OK, 2 usage error (unreadable
file, bad flag, malformed JSONL, unreachable server); a closed stdout
changes neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.diagnostics import (
    EXIT_OK,
    EXIT_USAGE,
    add_format_argument,
    write,
)
from repro.errors import CLIUsageError, ObservabilityError, ReproError
from repro.obs.querylog import (
    QUERY_LOG,
    QueryRecord,
    WorkloadHistory,
    format_records,
    format_workload,
)

__all__ = ["main"]


def _read_jsonl(path: str) -> list[QueryRecord]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise CLIUsageError(f"cannot read {path}: {error}") from None
    records = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise CLIUsageError(
                f"{path}:{number}: not JSON: {error}") from None
        try:
            records.append(QueryRecord.from_dict(payload))
        except (ObservabilityError, TypeError) as error:
            raise CLIUsageError(
                f"{path}:{number}: not a query record: {error}") from None
    return records


def _fetch_remote(address: str,
                  n: int) -> tuple[list[QueryRecord], list, dict]:
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or port < 0:
        raise CLIUsageError("--connect needs host:port")
    from repro.serve.client import QueryClient
    try:
        with QueryClient(host, port) as client:
            payload = client.log(n=n)
            storage = client.stats().get("storage", {})
    except ReproError as error:
        raise CLIUsageError(str(error)) from None
    records = [QueryRecord.from_dict(entry)
               for entry in payload["records"]]
    return records, payload["workload"], storage


#: the durability counters surfaced in the ``storage:`` section when a
#: local process (no ``--connect``) has driven the storage engine
_STORAGE_METRICS = (
    "repro_storage_checkpoints_total",
    "repro_storage_recoveries_total",
    "repro_storage_wal_replayed_records_total",
    "repro_storage_wal_torn_records_total",
)


def _local_storage_counters() -> dict:
    from repro.obs.metrics import REGISTRY
    out: dict[str, float] = {}
    for record in REGISTRY.snapshot():
        if record["name"] not in _STORAGE_METRICS:
            continue
        if not record.get("value"):
            continue
        labels = ",".join(f"{key}={value}" for key, value
                          in sorted(record["labels"].items()))
        key = record["name"] + (f"{{{labels}}}" if labels else "")
        out[key] = record["value"]
    return out


def _summarize(records: list[QueryRecord]) -> dict:
    outcomes: dict[str, int] = {}
    for record in records:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
    durations = sorted(record.duration_ms for record in records)
    return {
        "total": len(records),
        "outcomes": outcomes,
        "slow": sum(1 for record in records if record.slow),
        "recovered": sum(1 for record in records if record.recovered),
        "max_ms": durations[-1] if durations else None,
    }


def _filtered(records: list[QueryRecord],
              args: argparse.Namespace) -> list[QueryRecord]:
    if args.kind is not None:
        records = [r for r in records if r.kind == args.kind]
    if args.outcome is not None:
        records = [r for r in records if r.outcome == args.outcome]
    if args.slow:
        records = [r for r in records if r.slow]
    return records


def _render_text(records: list[QueryRecord], workload: list,
                 storage: dict, args: argparse.Namespace) -> str:
    summary = _summarize(records)
    header = (f"query log: {summary['total']} records, "
              f"outcomes {summary['outcomes'] or '{}'}, "
              f"{summary['slow']} slow")
    if summary["recovered"]:
        header += (f", {summary['recovered']} answered from "
                   "recovered cuboids")
    sections = [header]
    if storage:
        sections.append("")
        sections.append("storage:")
        sections.extend(f"  {key}: {value}"
                        for key, value in sorted(storage.items()))
    if workload:
        sections.append("")
        sections.append(f"workload (top {args.top} signatures):")
        sections.extend(format_workload(workload[: args.top]))
    slowest = sorted(records, key=lambda r: -r.duration_ms)[: args.top]
    if slowest:
        sections.append("")
        sections.append(f"slowest {len(slowest)} queries:")
        sections.extend(format_records(
            sorted(slowest, key=lambda r: r.duration_ms)))
    recent = records[-args.tail:] if args.tail else []
    if recent:
        sections.append("")
        sections.append(f"last {len(recent)} records:")
        sections.extend(format_records(recent))
    return "\n".join(sections)


def _render_json(records: list[QueryRecord], workload: list,
                 storage: dict, args: argparse.Namespace) -> str:
    slowest = sorted(records, key=lambda r: -r.duration_ms)[: args.top]
    return json.dumps({
        "summary": _summarize(records),
        "storage": storage,
        "workload": workload[: args.top],
        "slowest": [record.to_dict() for record in slowest],
        "records": [record.to_dict()
                    for record in records[-args.tail:]],
    }, sort_keys=True, default=str)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tail and summarize the repro query log.")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--log", metavar="FILE",
                        help="read records from a JSONL query-log file")
    source.add_argument("--connect", metavar="HOST:PORT",
                        help="fetch records from a running query server")
    parser.add_argument("--tail", type=int, default=20, metavar="N",
                        help="show the last N records (default 20)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="show the N busiest signatures and "
                             "slowest queries (default 10)")
    parser.add_argument("--kind", default=None,
                        help="only records of this statement kind")
    parser.add_argument("--outcome", default=None,
                        help="only records with this outcome")
    parser.add_argument("--slow", action="store_true",
                        help="only records over the slow-query threshold")
    add_format_argument(parser)
    try:
        args = parser.parse_args(argv)
        if args.tail < 0 or args.top < 0:
            raise CLIUsageError("--tail/--top must be >= 0")
        workload: list = []
        storage: dict = {}
        if args.log is not None:
            records = _read_jsonl(args.log)
        elif args.connect is not None:
            records, workload, storage = _fetch_remote(
                args.connect, max(args.tail, args.top, 1) * 10)
        else:
            records = QUERY_LOG.snapshot()
            storage = _local_storage_counters()
        records = _filtered(records, args)
        if not workload:
            workload = WorkloadHistory(
                capacity=max(len(records), 1)).feed(records).snapshot()
    except CLIUsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    renderer = _render_json if args.format == "json" else _render_text
    write(renderer(records, workload, storage, args))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
