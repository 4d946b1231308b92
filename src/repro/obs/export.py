"""File exporters for spans and metrics.

Two wire formats, both dependency-free:

- **JSON lines** -- one JSON object per line; metrics export their
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` records, spans
  export their :meth:`~repro.obs.trace.Span.to_dict` trees (one root
  span per line).  This is the machine-diffable format log shippers
  consume.
- **Prometheus text exposition** -- the de-facto pull format, so a
  scrape endpoint (or a file-based textfile collector) can ingest the
  registry directly.
- **collapsed stacks** -- span trees folded into the
  ``frame;frame;frame value`` profile format flamegraph.pl and
  speedscope consume, weighted by per-span *self* time in
  microseconds.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import Span

__all__ = [
    "metrics_to_json_lines",
    "metrics_to_prometheus",
    "spans_to_collapsed",
    "spans_to_json_lines",
    "write_metrics_json_lines",
    "write_metrics_prometheus",
    "write_spans_collapsed",
    "write_spans_json_lines",
]


def metrics_to_json_lines(registry: MetricsRegistry | None = None) -> str:
    return (registry or REGISTRY).to_json_lines()


def metrics_to_prometheus(registry: MetricsRegistry | None = None) -> str:
    return (registry or REGISTRY).to_prometheus()


def spans_to_json_lines(roots: Iterable[Span]) -> str:
    """One JSON object per root span (children nested inside)."""
    return "\n".join(json.dumps(root.to_dict(), sort_keys=True,
                                default=str)
                     for root in roots)


def _frame(name: str) -> str:
    """A span name as a collapsed-stack frame: the format reserves
    ``;`` (stack separator) and the last space (value separator)."""
    return name.replace(";", ":").replace(" ", "_") or "?"


def spans_to_collapsed(roots: Iterable[Span]) -> str:
    """Span trees as collapsed stacks (flamegraph.pl / speedscope).

    One line per distinct stack, ``root;child;leaf value``, where the
    value is the stack's *self* time (duration minus the children's
    summed durations) in integer microseconds.  Overlapping children
    -- parallel workers attached under one coordinator span -- can sum
    past their parent's wall clock; self time is floored at zero so
    the output is always a valid profile.
    """
    weights: dict[str, int] = {}

    def visit(span: Span, prefix: str) -> None:
        stack = f"{prefix};{_frame(span.name)}" if prefix \
            else _frame(span.name)
        child_ms = sum(c.duration_ms or 0.0 for c in span.children)
        self_ms = max((span.duration_ms or 0.0) - child_ms, 0.0)
        weights[stack] = weights.get(stack, 0) + int(round(self_ms * 1000))
        for child in span.children:
            visit(child, stack)

    for root in roots:
        visit(root, "")
    return "\n".join(f"{stack} {value}"
                     for stack, value in weights.items())


def write_spans_collapsed(path: str, roots: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        text = spans_to_collapsed(roots)
        handle.write(text + "\n" if text else "")


def write_metrics_json_lines(path: str,
                             registry: MetricsRegistry | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(metrics_to_json_lines(registry) + "\n")


def write_metrics_prometheus(path: str,
                             registry: MetricsRegistry | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(metrics_to_prometheus(registry))


def write_spans_json_lines(path: str, roots: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_to_json_lines(roots) + "\n")
