"""The correctness oracle: every answer the benchmark times is compared
with a cache-less ``SQLSession(algorithm="naive-union")`` -- the
paper's Section 2 strawman, one GROUP BY per grouping set -- over the
benchmark's own model of the data.

naive-union costs ~7 us per row per grouping set, so the reference for
a 32-set CUBE over 50,000 rows takes ~11 s.  It runs after the timed
windows, split between this process and one helper (``python3
perf/oracle.py``: job as JSON on stdin, answers as JSON on stdout) --
the load is sized for two cores and both are idle by then.  The helper
is a plain child this module starts, waits for and, on any other way
out, kills and reaps; ``multiprocessing`` would leave its resource
tracker running until after the benchmark has exited.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import harness
from repro.sql.executor import SQLSession

__all__ = ["expected", "mismatches"]


#: below this many (row x grouping set x aggregate) steps, ~1.5 s of
#: naive-union, a second interpreter costs more than it saves
_WORTH_SPLITTING = 1_000_000


def _answers(tables: dict, statements: list[str]) -> dict:
    session = SQLSession(harness.build_catalog(tables),
                         algorithm="naive-union")
    return {sql: harness.canonical(session.execute(sql))
            for sql in statements}


def _cost(tables: dict, statement: dict) -> int:
    plan = statement["plan"]
    sets = {"CUBE": 2 ** len(plan["dims"]),
            "ROLLUP": len(plan["dims"]) + 1}.get(plan["clause"], 1)
    return sets * len(plan["aggs"]) * len(tables[plan["table"]]["rows"])


def expected(tables: dict, statements: list[dict]) -> dict:
    """``{sql: (row count, digest)}`` for distinct ``statements``
    (``{"sql", "plan"}`` dicts), split over this process and a helper
    by estimated cost, longest first -- unless the whole job is lighter
    than starting the helper (smoke-sized tables)."""
    halves: list[list[str]] = [[], []]
    loads = [0, 0]
    for statement in sorted(statements, key=lambda s: -_cost(tables, s)):
        lighter = loads.index(min(loads))
        halves[lighter].append(statement["sql"])
        loads[lighter] += _cost(tables, statement)
    if sum(loads) < _WORTH_SPLITTING or not halves[1]:
        return _answers(tables, halves[0] + halves[1])
    helper = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        # the helper reads its whole job before it computes
        json.dump({"tables": tables, "statements": halves[1]}, helper.stdin)
        helper.stdin.close()
        out = _answers(tables, halves[0])
        theirs = json.load(helper.stdout)
        if helper.wait() != 0:
            raise RuntimeError(f"perf: oracle helper exited "
                               f"{helper.returncode}")
    finally:
        if helper.poll() is None:
            helper.kill()
        helper.wait()
        helper.stdout.close()
    out.update({sql: tuple(answer) for sql, answer in theirs.items()})
    return out


def mismatches(reference: dict, observed: dict) -> list[str]:
    """Statements whose observed ``canonical`` form differs from the
    reference (``observed``: sql -> list of canonical answers)."""
    bad = []
    for sql, answers in observed.items():
        for answer in answers:
            if answer != reference[sql]:
                bad.append(f"{sql}: got {answer[0]} rows, digest "
                           f"{answer[1][:12]}; oracle {reference[sql][0]} "
                           f"rows, digest {reference[sql][1][:12]}")
    return bad


if __name__ == "__main__":
    _job = json.load(sys.stdin)
    json.dump(_answers(_job["tables"], _job["statements"]), sys.stdout)
