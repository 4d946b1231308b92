"""The benchmark's own span recorder.

Spans are recorded *around* calls into the program's public functions
(nothing under ``src/`` is touched), kept in memory, and written as
JSON lines when the run ends.  One span: ``id``, ``parent`` (None for
a root), ``request`` (shared by all spans of one request), ``name``
(``<layer>.<step>``), ``start``/``end`` in seconds on the
``perf_counter`` clock, and ``estimated`` for children whose interval
was measured by a separate call to the same public function and
placed inside the parent (the program offers no hook there).

A layer's self time is its span's duration minus the part its direct
children cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

__all__ = ["Recorder", "NullRecorder", "self_times", "layer_shares",
           "layer_of", "write", "load"]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        #: span id -> seconds its direct children cover so far
        self._covered: dict[int, float] = defaultdict(float)
        self.request = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "request": self.request, "start": time.perf_counter(),
                  "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if record["parent"] is not None:
                self._covered[record["parent"]] += (record["end"]
                                                    - record["start"])

    def estimated(self, name: str, parent: dict, seconds: float) -> dict:
        """Give ``parent`` a child of ``seconds`` (measured by a separate
        call), clipped to the self time the parent has left so self
        times stay non-negative.  Only its duration means anything: it
        is placed as if the children ran back to back from the
        parent's start."""
        covered = self._covered[parent["id"]]
        room = parent["end"] - parent["start"] - covered
        start = parent["start"] + covered
        record = {"id": len(self.spans), "name": name,
                  "parent": parent["id"], "request": parent["request"],
                  "start": start,
                  "end": start + max(0.0, min(seconds, room)),
                  "estimated": True}
        self.spans.append(record)
        self._covered[parent["id"]] += record["end"] - record["start"]
        return record

    def child(self, parent: dict, name: str) -> dict:
        """The first recorded child of ``parent`` called ``name``."""
        return next(s for s in self.spans[parent["id"] + 1:]
                    if s["parent"] == parent["id"] and s["name"] == name)


class NullRecorder(Recorder):
    """Records nothing: the untraced side of ``tracing.overhead_ratio``."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        yield {}


def write(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def layer_of(name: str) -> str:
    """``compute.build_task`` -> ``compute``: the layer is the span
    name up to its last dot (``serve.cache.serve`` -> ``serve.cache``)."""
    return name.rsplit(".", 1)[0]


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the time its direct children cover."""
    covered: dict[int, float] = defaultdict(float)
    for record in spans:
        if record["parent"] is not None:
            covered[record["parent"]] += record["end"] - record["start"]
    return {record["id"]: (record["end"] - record["start"])
            - covered[record["id"]] for record in spans}


def layer_shares(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per query class: layer -> share of the summed request time (the
    shares of one class sum to 1) plus ``_ms``, the mean request time."""
    selfs = self_times(spans)
    klass_of = {s["request"]: s.get("class", "?")
                for s in spans if s["parent"] is None}
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    by_layer: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for record in spans:
        klass = klass_of[record["request"]]
        by_layer[klass][layer_of(record["name"])] += selfs[record["id"]]
        if record["parent"] is None:
            totals[klass] += record["end"] - record["start"]
            counts[klass] += 1
    out = {}
    for klass, layers in by_layer.items():
        shares = {layer: value / totals[klass]
                  for layer, value in layers.items()}
        shares["_ms"] = totals[klass] / counts[klass] * 1000.0
        out[klass] = shares
    return out
