"""Common machinery for cube algorithms.

A :class:`CubeTask` is the algorithm-agnostic description of one cube
computation: the materialized input rows (dimension values first, then
one pre-evaluated input value per aggregate), the aggregate function
objects, and the grouping sets to produce (as bitmasks over the
dimension list -- see :mod:`repro.core.grouping`).

Materializing dimension expressions *before* the algorithms run keeps
every algorithm a pure exercise in Section 5's terms; computed grouping
columns (``Day(Time)``) are already plain columns by the time a task
exists.
"""

from __future__ import annotations

import time
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

from repro.aggregates.base import AggregateFunction, Handle
from repro.core.grouping import Mask
from repro.compute.stats import ComputeStats
from repro.engine.expressions import column_position
from repro.engine.groupby import AggregateSpec
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import CubeError, MaintenanceError
from repro.types import ALL, DataType

__all__ = ["CubeTask", "CubeResult", "CubeAlgorithm", "TaskSource",
           "build_task", "source_task_row"]


@dataclass(frozen=True)
class TaskSource:
    """Where a task's columns came from, so a reader can reuse state
    the source table keeps per version (the columnar image).

    ``version`` is the table version the task's rows were read at;
    ``dims[i]`` / ``aggs[p]`` is the source-table column that task
    position copies verbatim, ``"*"`` for COUNT(*)'s constant 1, or
    None when the value was computed per row.  The table is held
    weakly: a task never keeps a table, or anything it caches, alive.
    """

    table: "weakref.ref[Table]"
    version: int
    dims: tuple
    aggs: tuple


@dataclass
class CubeTask:
    """One cube computation, ready for any algorithm.

    ``rows`` holds tuples of ``n_dims`` dimension values followed by
    ``n_aggs`` aggregate-input values.  ``masks`` are the grouping sets
    to produce.  Aggregate-input positions corresponding to values the
    function does not accept (NULL/ALL under the Section 3.3 rule) are
    filtered at fold time, not here, so COUNT(*) still sees every row.

    ``source`` is set by :func:`build_task` only; ``dataclasses.replace``
    drops it (a replaced task's positions need not line up with it any
    more) and pickling leaves it out.
    """

    dims: tuple[str, ...]
    dim_columns: tuple[Column, ...]
    functions: tuple[AggregateFunction, ...]
    agg_names: tuple[str, ...]
    rows: list[tuple]
    masks: tuple[Mask, ...]
    source: TaskSource | None = field(default=None, init=False,
                                      repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("source", None)
        return state

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.dim_columns):
            raise CubeError("dims and dim_columns must align")
        if len(self.functions) != len(self.agg_names):
            raise CubeError("functions and agg_names must align")
        if not self.masks:
            raise CubeError("a cube task needs at least one grouping set")
        if len(set(self.masks)) != len(self.masks):
            raise CubeError("duplicate grouping sets in task masks")
        full = (1 << len(self.dims)) - 1
        for mask in self.masks:
            if mask & ~full:
                raise CubeError(f"mask {mask:#b} outside dimension range")

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def n_aggs(self) -> int:
        return len(self.functions)

    @property
    def full_mask(self) -> Mask:
        return (1 << self.n_dims) - 1

    def dim_values(self, row: tuple) -> tuple:
        return row[: self.n_dims]

    def agg_values(self, row: tuple) -> tuple:
        return row[self.n_dims:]

    def coordinate(self, mask: Mask, dim_values: Sequence[Any]) -> tuple:
        """Cell coordinate: grouped positions keep their value, the rest
        carry ALL -- the paper's "each coordinate can either be x_i or
        ALL"."""
        return tuple(
            dim_values[i] if mask & (1 << i) else ALL
            for i in range(self.n_dims))

    def projector(self, mask: Mask) -> Callable[[Sequence[Any]], tuple]:
        """:meth:`coordinate` for one mask as a reusable function of the
        dimension values (a task row or a coordinate both work): one
        C-level pick out of ``(*values, ALL)`` per call instead of a
        per-position generator."""
        picks = [i if mask & (1 << i) else -1 for i in range(self.n_dims)]
        if len(picks) < 2:  # itemgetter returns a tuple only for 2+ picks
            return lambda values: tuple((*values, ALL)[i] for i in picks)
        pick = itemgetter(*picks)
        return lambda values: pick((*values, ALL))

    def mask_label(self, mask: Mask) -> str:
        """Human-readable grouping-set label (span attributes, EXPLAIN
        ANALYZE rows): the grouped dimension names, or ``()`` for the
        global-total set."""
        names = [self.dims[i] for i in range(self.n_dims)
                 if mask & (1 << i)]
        return ",".join(names) if names else "()"

    def cardinalities(self) -> list[int]:
        """Distinct-value count per dimension (used by the smallest-
        parent rule and by size estimates)."""
        seen: list[set] = [set() for _ in range(self.n_dims)]
        for row in self.rows:
            for i in range(self.n_dims):
                seen[i].add(row[i])
        return [len(s) for s in seen]

    def all_mergeable(self) -> bool:
        return all(fn.mergeable for fn in self.functions)

    def output_schema(self) -> Schema:
        columns = [column.with_all_allowed() for column in self.dim_columns]
        for name in self.agg_names:
            columns.append(Column(name, DataType.ANY))
        return Schema(columns)

    def result_table(
            self,
            cells: Iterable[tuple[tuple, Sequence[Any]]]) -> Table:
        """Build the output relation from (coordinate, final values)."""
        return Table(self.output_schema(),
                     (coordinate + tuple(values)
                      for coordinate, values in cells),
                     validate=False)

    # -- shared fold helpers -------------------------------------------------

    def new_handles(self, stats: ComputeStats) -> list[Handle]:
        from repro.resilience import context as rctx
        rctx.charge_cells(1)
        stats.start_calls += len(self.functions)
        return [fn.start() for fn in self.functions]

    def fold_row(self, handles: list[Handle], row: tuple,
                 stats: ComputeStats) -> None:
        """Apply one input row's aggregate values to a cell's handles."""
        agg_values = self.agg_values(row)
        for position, fn in enumerate(self.functions):
            value = agg_values[position]
            if fn.accepts(value):
                handles[position] = fn.next(handles[position], value)
                stats.iter_calls += 1

    def merge_handles(self, into: list[Handle], source: list[Handle],
                      stats: ComputeStats) -> None:
        """Iter_super: fold ``source`` scratchpads into ``into``."""
        for position, fn in enumerate(self.functions):
            into[position] = fn.merge(into[position], source[position])
            stats.merge_calls += 1

    def finalize(self, handles: list[Handle], stats: ComputeStats) -> tuple:
        stats.end_calls += len(self.functions)
        return tuple(fn.end(handle)
                     for fn, handle in zip(self.functions, handles))


@dataclass
class CubeResult:
    """An algorithm's output: the cube relation plus its cost counters."""

    table: Table
    stats: ComputeStats


class CubeAlgorithm(ABC):
    """Interface every cube computation strategy implements.

    :meth:`compute` is a template method: it opens a ``cube.compute``
    tracing span, delegates to the strategy's :meth:`_compute`, then
    attaches the result's :class:`ComputeStats` snapshot to the span
    and publishes the counters to the process-wide metrics registry.
    Every algorithm is therefore observable uniformly -- strategies only
    implement :meth:`_compute` (and may open child spans for their
    per-lattice-node / per-chain / per-partition structure).

    When an :class:`~repro.resilience.ExecutionContext` is supplied (or
    already active), :meth:`compute` additionally enforces the runtime
    side of the Section 5 memory economics: the strategy runs under the
    context's cell accountant, and a mid-flight
    :class:`~repro.errors.ResourceBudgetExceededError` degrades the
    computation to the memory-bounded external algorithm instead of
    failing -- provided degradation is enabled, every aggregate is
    mergeable, and the breaching algorithm is not already the external
    one.
    """

    name: str = ""

    def compute(self, task: CubeTask, *,
                context: "Any" = None) -> CubeResult:
        """Produce the cube relation for ``task`` (traced + metered).

        ``context`` is an optional
        :class:`~repro.resilience.ExecutionContext`; when omitted, any
        context already installed via
        :func:`repro.resilience.use_context` governs the run.
        """
        from repro.resilience import context as rctx
        ctx = context if context is not None else rctx.current_context()
        if ctx is None:
            result = self._instrumented_compute(task)
        else:
            result = self._compute_in_context(ctx, task)
        self._log_query(task, result)
        return result

    def _compute_in_context(self, ctx: "Any",
                            task: CubeTask) -> CubeResult:
        from repro.resilience import context as rctx
        from repro.errors import ResourceBudgetExceededError
        with rctx.use_context(ctx):
            ctx.check("cube.compute")
            try:
                with ctx.attempt():
                    return self._instrumented_compute(task)
            except ResourceBudgetExceededError:
                if (not ctx.degrade or not task.all_mergeable()
                        or self.name == "external"):
                    raise
            return self._degraded_compute(ctx, task)

    def _log_query(self, task: CubeTask, result: CubeResult) -> None:
        """Enrich the active query-log record (no-op outside one)."""
        from repro.obs import querylog
        stats = result.stats
        querylog.annotate(
            algorithm=stats.algorithm or self.name or type(self).__name__,
            degraded_from=stats.notes.get("degraded_from"))
        querylog.add(
            rows_scanned=len(task.rows) * max(stats.base_scans, 1),
            cells=stats.cells_produced)

    def _instrumented_compute(self, task: CubeTask) -> CubeResult:
        """The original span + metrics envelope around :meth:`_compute`."""
        from repro.obs import instrument, trace
        started = time.perf_counter()
        with trace.span("cube.compute",
                        algorithm=self.name or type(self).__name__,
                        grouping_sets=len(task.masks),
                        input_rows=len(task.rows)) as span:
            try:
                result = self._compute(task)
            except TypeError as exc:
                # A bare TypeError from deep inside a sort run or a
                # MIN/MAX comparison carries no query context; when the
                # cause is a mixed-type input column, re-raise as the
                # taxonomy error naming the column.
                mixed = _find_mixed_type_column(task)
                if mixed is None:
                    raise
                from repro.errors import MixedTypeColumnError
                raise MixedTypeColumnError(
                    mixed[0], mixed[1],
                    algorithm=self.name or type(self).__name__) from exc
            span.set(cells=result.stats.cells_produced)
            span.attach_stats(result.stats)
        instrument.record_cube_compute(
            result.stats, time.perf_counter() - started,
            input_rows=len(task.rows))
        return result

    def _degraded_compute(self, ctx: "Any", task: CubeTask) -> CubeResult:
        """Re-run ``task`` under the external (memory-bounded) algorithm
        after a budget breach -- the paper's "even the core exceeds the
        memory budget" fallback, applied at runtime."""
        from repro.compute.external import ExternalCubeAlgorithm
        from repro.obs import instrument, trace
        from_name = self.name or type(self).__name__
        budget = ctx.memory_budget if ctx.memory_budget is not None else 1024
        instrument.record_degradation(from_name)
        fallback = ExternalCubeAlgorithm(memory_budget=budget)
        with trace.span("cube.degrade",
                        from_algorithm=from_name,
                        to_algorithm=fallback.name,
                        memory_budget=budget) as span:
            span.event("budget_exceeded", resident_cells=ctx.peak_cells,
                       memory_budget=budget)
            # The external algorithm bounds its own residency; charging
            # its scratchpad against the blown budget would re-raise.
            with ctx.attempt(), ctx.budget_suspended():
                result = fallback._instrumented_compute(task)
        result.stats.notes["degraded_from"] = from_name
        return result

    @abstractmethod
    def _compute(self, task: CubeTask) -> CubeResult:
        """The strategy body; called by :meth:`compute` under a span."""

    def _require_mergeable(self, task: CubeTask, why: str = "") -> None:
        """Refuse a task whose strict-mode holistic aggregates have no
        ``Iter_super`` -- every algorithm that merges scratchpads."""
        if not task.all_mergeable():
            from repro.errors import NotMergeableError
            bad = [fn.name for fn in task.functions if not fn.mergeable]
            raise NotMergeableError(
                f"{self.name} needs mergeable scratchpads; {bad} are "
                f"holistic in strict mode{why}")

    def _new_stats(self) -> ComputeStats:
        return ComputeStats(algorithm=self.name or type(self).__name__)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


#: type groups that are mutually comparable, so ``int`` next to ``float``
#: (or ``bool``) is not "mixed" while ``int`` next to ``str`` is.
_COMPARABLE_GROUPS = {bool: "number", int: "number", float: "number"}


def _find_mixed_type_column(task: CubeTask) -> tuple[str, list[str]] | None:
    """The first dimension or aggregate-input column whose non-NULL
    values span incomparable types, or None.  Used to diagnose a bare
    ``TypeError`` escaping an algorithm (sort keys themselves use the
    library total order, so the usual culprit is an ordering aggregate
    such as MIN/MAX over a mixed column)."""
    from repro.types import is_null_or_all
    names = list(task.dims) + list(task.agg_names)
    for index, name in enumerate(names):
        groups: set = set()
        type_names: set[str] = set()
        for row in task.rows:
            value = row[index]
            if is_null_or_all(value):
                continue
            kind = type(value)
            groups.add(_COMPARABLE_GROUPS.get(kind, kind))
            type_names.add(kind.__name__)
            if len(groups) > 1:
                return name, sorted(type_names)
    return None


def build_task(table: Table,
               dims: Sequence,
               specs: Sequence[AggregateSpec],
               masks: Sequence[Mask]) -> CubeTask:
    """Materialize a :class:`CubeTask` from a source relation.

    ``dims`` entries are column names, expressions, or (expression,
    alias) pairs -- the same key forms GROUP BY accepts.  Expressions
    are evaluated here, once, so algorithms see plain dimension columns.

    The rows are assembled column by column: a plain column reference
    is a C-level positional pick, COUNT(*)'s input the constant 1, and
    only computed expressions are evaluated per row from a row context.
    The task's :attr:`~CubeTask.source` records which is which.
    """
    from repro.engine.groupby import normalize_keys

    normalized = normalize_keys(dims)
    version = table.version  # before the rows are read
    schema = table.schema
    sources = tuple(column_position(expr, schema) for expr, _ in normalized)
    dim_columns = [Column(alias, DataType.ANY) if position is None
                   else schema.columns[position].renamed(alias)
                   for (_, alias), position in zip(normalized, sources)]
    sources += tuple("*" if spec.input == "*"
                     else column_position(spec.input, schema)
                     for spec in specs)

    base = table.rows
    evaluators = ([expr.evaluate for expr, _ in normalized]
                  + [spec.evaluate_input for spec in specs])
    computed = [evaluate for evaluate, source in zip(evaluators, sources)
                if source is None]
    values = iter(_evaluate_per_row(schema.names, base, computed))
    columns: list[Iterable] = []
    for source in sources:
        if source is None:
            columns.append(next(values))
        elif source == "*":
            columns.append(repeat(1, len(base)))
        else:
            columns.append(map(itemgetter(source), base))
    rows = list(zip(*columns)) if columns else [()] * len(base)

    task = CubeTask(
        dims=tuple(alias for _, alias in normalized),
        dim_columns=tuple(dim_columns),
        functions=tuple(spec.function for spec in specs),
        agg_names=tuple(spec.name for spec in specs),
        rows=rows,
        masks=tuple(masks),
    )
    task.source = TaskSource(weakref.ref(table), version,
                             sources[:task.n_dims], sources[task.n_dims:])
    return task


def _evaluate_per_row(names: Sequence[str], rows: Sequence[tuple],
                      evaluators: Sequence) -> list[list]:
    """One value list per evaluator, from a single pass that builds one
    row context at a time."""
    columns: list[list] = [[] for _ in evaluators]
    if evaluators:
        for row in rows:
            context = dict(zip(names, row))
            for column, evaluate in zip(columns, evaluators):
                column.append(evaluate(context))
    return columns


def source_task_row(names: Sequence[str], keys: Sequence, specs: Sequence,
                    row: Sequence[Any]) -> tuple:
    """One raw source row as a task row -- dimension values, then one
    input per aggregate -- evaluated as :func:`build_task` evaluates its
    rows.  ``keys`` are the normalized ``(expression, alias)`` pairs.
    Rows that arrive after a build (maintained DML, streamed cache
    deltas) come through here."""
    if len(row) != len(names):
        raise MaintenanceError(
            f"row has {len(row)} values; base table has {len(names)} "
            "columns")
    context = dict(zip(names, row))
    return (tuple(expr.evaluate(context) for expr, _ in keys)
            + tuple(spec.evaluate_input(context) for spec in specs))
