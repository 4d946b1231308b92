"""SQL execution: AST -> relational plan -> Table.

The execution pipeline for one SELECT:

1. **FROM** -- catalog lookup plus joins (hash join for USING, nested
   loop for ON);
2. **scalar subqueries** -- uncorrelated ``(SELECT ...)`` expressions
   are evaluated once and replaced by literals (the Section 4
   percent-of-total pattern);
3. **WHERE** -- row filter;
4. **binding** -- :func:`repro.sql.bind.bind` resolves the SELECT
   once (table-function slots, dimensions, grouping spec, aggregates);
   the steps below, EXPLAIN, the cache key and the linter all read it;
5. **table functions** -- Red Brick whole-column functions (``N_tile``,
   ``Rank``...) are computed over the filtered input and become the
   slots' derived columns, so they can serve as grouping columns (the
   paper's ``GROUP BY N_tile(Temp, 10) AS Percentile`` query) --
   EXPLAIN runs steps 1-5 too;
6. **grouping** -- plain / ROLLUP / CUBE per the Section 3.2 clause,
   executed by the :mod:`repro.compute` machinery with automatic
   algorithm choice;
7. **HAVING**, **select-list projection** (with ``GROUPING()``
   rewritten to an ALL test), **DISTINCT**;
8. statement level: **UNION [ALL]** folding and **ORDER BY**.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Optional, Sequence

from repro.aggregates.registry import AggregateRegistry, default_registry
from repro.compute.base import build_task
from repro.compute.optimizer import choose_algorithm, explain_choice
from repro.core.lattice import CubeLattice
from repro.engine.catalog import Catalog
from repro.engine.expressions import (
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    column_position,
)
from repro.engine.groupby import hash_group_by
from repro.engine.join import hash_join, nested_loop_join
from repro.engine.operators import distinct as distinct_op
from repro.engine.operators import filter_rows, union_all, union_distinct
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import ResilienceError, SQLExecutionError, SQLPlanError
from repro.obs import instrument, querylog, trace
from repro.obs.trace import Tracer, render_span_rows, use_tracer
from repro.resilience import context as rctx
from repro.sql import functions as _functions  # noqa: F401  (registers)
from repro.sql.ast_nodes import (
    AggregateCall,
    CreateTableStmt,
    DeleteStmt,
    ExplainStmt,
    GroupingCall,
    InsertStmt,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    Star,
    Statement,
    UnionStmt,
    UpdateStmt,
)
from repro.sql.analysis import walk
from repro.sql.bind import BoundSelect, bind, map_select, transform
from repro.sql.parser import parse_any
from repro.types import ALL, DataType, NullMode, sort_key

__all__ = ["SQLSession", "execute"]


class _IsAllTest(Expression):
    """Rewritten ``GROUPING(col)``: TRUE iff the column carries ALL."""

    __slots__ = ("column",)

    def __init__(self, column: str) -> None:
        self.column = column

    def evaluate(self, row) -> bool:
        return row.get(self.column) is ALL

    def references(self) -> frozenset[str]:
        return frozenset((self.column,))

    def default_name(self) -> str:
        return f"GROUPING({self.column})"


class SQLSession:
    """A catalog plus execution options.

    ``null_mode`` selects between the paper's "real" ALL representation
    (:attr:`~repro.types.NullMode.ALL_VALUE`, the default) and the
    Section 3.4 minimalist design where ALL prints as NULL (use
    ``GROUPING()`` in the select list to discriminate).

    ``strict=True`` runs the :mod:`repro.lint` semantic checks on every
    SELECT before execution and raises
    :class:`~repro.errors.LintError` on error-severity findings;
    warnings never block.  EXPLAIN always reports the diagnostics
    (as ``lint`` steps) without raising.

    ``algorithm`` pins the cube algorithm for grouped queries (a name
    from :data:`repro.compute.optimizer.ALGORITHMS`) instead of letting
    the optimizer choose -- the knob EXPLAIN ANALYZE uses to profile
    one strategy against another on the same query.  ``dense_budget``
    (cells) caps the Section 5 dense-array allocation the optimizer may
    commit to (array algorithm, columnar dense route); above it the
    sparse strategies take over.  A pinned algorithm runs under the
    session's budgets too, and EXPLAIN's estimates and algorithm row
    cover the WHERE-filtered input under the same pin and budgets.

    ``statement_timeout`` (seconds) gives every statement a deadline: a
    statement still running when it expires raises
    :class:`~repro.errors.QueryTimeoutError` at the next cooperative
    checkpoint.  ``memory_budget`` (cells) caps resident scratchpads;
    an in-memory cube that crosses it degrades to the external
    algorithm mid-flight (see :mod:`repro.resilience`).

    ``slow_query_ms`` marks any statement whose end-to-end latency
    reaches the threshold: its query-log record gets ``slow=True`` and
    ``repro_slow_queries_total{kind=...}`` increments (see
    docs/OBSERVABILITY.md).

    ``cache`` is an optional :class:`~repro.serve.CuboidCache` (shared
    across sessions by the query server): grouped SELECTs probe it
    before planning -- a containment hit re-aggregates a cached cuboid
    instead of rescanning the base table, and appears as a
    ``serve.answer`` span with ``cache_hit=True`` in EXPLAIN ANALYZE.
    DML through this session invalidates the mutated table's entries.
    """

    def __init__(self, catalog: Catalog | None = None, *,
                 registry: AggregateRegistry | None = None,
                 null_mode: NullMode = NullMode.ALL_VALUE,
                 strict: bool = False,
                 algorithm: str | None = None,
                 statement_timeout: float | None = None,
                 memory_budget: int | None = None,
                 dense_budget: int = 1 << 20,
                 cache: Any | None = None,
                 slow_query_ms: float | None = None) -> None:
        if statement_timeout is not None and statement_timeout < 0:
            raise ResilienceError(
                f"statement_timeout must be >= 0, got {statement_timeout}")
        if slow_query_ms is not None and slow_query_ms < 0:
            raise ResilienceError(
                f"slow_query_ms must be >= 0, got {slow_query_ms}")
        if memory_budget is not None and memory_budget < 1:
            raise ResilienceError(
                f"memory_budget must be at least 1 cell, got {memory_budget}")
        if dense_budget < 1:
            raise ResilienceError(
                f"dense_budget must be at least 1 cell, got {dense_budget}")
        self.catalog = catalog if catalog is not None else Catalog()
        self.registry = registry or default_registry
        self.null_mode = null_mode
        self.strict = strict
        self.algorithm = algorithm
        self.statement_timeout = statement_timeout
        self.memory_budget = memory_budget
        self.dense_budget = dense_budget
        self.cache = cache
        self.slow_query_ms = slow_query_ms
        #: the span roots from the most recent EXPLAIN ANALYZE -- kept
        #: so tools can export the same tree the rows rendered
        #: (spans_to_json_lines / spans_to_collapsed share span ids
        #: with the rendered plan)
        self.last_analyze_roots: list = []

    def register(self, name: str, table: Table, *,
                 replace: bool = False) -> Table:
        return self.catalog.register(name, table, replace=replace)

    # -- entry points -----------------------------------------------------

    def execute(self, sql: str, *,
                context: "Any" = None) -> Table:
        """Parse and run one statement (SELECT or DML/DDL).

        DML statements return a one-row ``rows_affected`` relation;
        CREATE TABLE returns an empty relation with the new schema.
        Inserts and deletes go through the catalog, so triggers fire --
        SQL is a full driver for Section 6's maintained cubes.

        ``context`` overrides the session's per-statement
        :class:`~repro.resilience.ExecutionContext` (built from
        ``statement_timeout`` / ``memory_budget``); pass one to share a
        cancellation token with another thread (the shell's Ctrl-C
        handler does).
        """
        with querylog.track(statement=sql):
            statement = parse_any(sql, registry=self.registry)
            kind, runner = self._dispatch(statement)
            querylog.annotate(kind=kind)
            ctx = context if context is not None else self._make_context()
            started = time.perf_counter()
            with trace.span("sql.query", kind=kind):
                if ctx is None:
                    result = runner()
                else:
                    with rctx.use_context(ctx):
                        ctx.check("sql.query")
                        result = runner()
            elapsed = time.perf_counter() - started
            instrument.record_query(elapsed, kind=kind)
            querylog.add(rows=len(result))
            if self.slow_query_ms is not None \
                    and elapsed * 1000.0 >= self.slow_query_ms:
                instrument.record_slow_query(kind)
                querylog.annotate(slow=True)
            return result

    def _make_context(self):
        """A fresh per-statement context, or None when the session sets
        no resilience options (the deadline must start at execute time,
        not session construction)."""
        if self.statement_timeout is None and self.memory_budget is None:
            return None
        from repro.resilience import ExecutionContext
        return ExecutionContext(timeout=self.statement_timeout,
                                memory_budget=self.memory_budget)

    def _dispatch(self, statement) -> tuple[str, Callable[[], Table]]:
        """Statement kind label plus the thunk that runs it."""
        if isinstance(statement, ExplainStmt):
            if statement.analyze:
                return ("explain_analyze",
                        lambda: self.explain_analyze(statement.statement))
            return "explain", lambda: self.explain(statement.statement)
        if isinstance(statement, InsertStmt):
            return "insert", lambda: self._run_insert(statement)
        if isinstance(statement, DeleteStmt):
            return "delete", lambda: self._run_delete(statement)
        if isinstance(statement, UpdateStmt):
            return "update", lambda: self._run_update(statement)
        if isinstance(statement, CreateTableStmt):
            return "create", lambda: self._run_create(statement)
        return "select", lambda: self.run(statement)

    @staticmethod
    def _affected(count: int) -> Table:
        return Table(Schema([Column("rows_affected", DataType.INTEGER)]),
                     [(count,)])

    def _invalidate_cache(self, table_name: str) -> None:
        """Drop cached cuboids derived from a mutated table.  The
        version-keyed source signature already makes them unmatchable
        (the catalog bumped the version); this frees their memory."""
        if self.cache is not None:
            self.cache.invalidate_table(table_name)

    def _run_insert(self, statement: InsertStmt) -> Table:
        table = self.catalog.get(statement.table)
        names = table.schema.names
        for values in statement.rows:
            if statement.columns:
                if len(values) != len(statement.columns):
                    raise SQLExecutionError(
                        f"INSERT row has {len(values)} values for "
                        f"{len(statement.columns)} named columns")
                mapping = dict(zip(statement.columns, values))
                unknown = set(statement.columns) - set(names)
                if unknown:
                    raise SQLExecutionError(
                        f"INSERT names unknown columns {sorted(unknown)}")
                row = tuple(mapping.get(name) for name in names)
            else:
                if len(values) != len(names):
                    raise SQLExecutionError(
                        f"INSERT row has {len(values)} values; table has "
                        f"{len(names)} columns")
                row = values
            self.catalog.insert(statement.table, row)
        self._invalidate_cache(statement.table)
        return self._affected(len(statement.rows))

    def _matching_rows(self, table: Table,
                       where: Optional[Expression]) -> list[tuple]:
        if where is None:
            return list(table.rows)
        names = table.schema.names
        return [row for row in table
                if where.evaluate(dict(zip(names, row))) is True]

    def _run_delete(self, statement: DeleteStmt) -> Table:
        table = self.catalog.get(statement.table)
        victims = self._matching_rows(table, statement.where)
        for row in victims:
            self.catalog.delete(statement.table, row)
        self._invalidate_cache(statement.table)
        return self._affected(len(victims))

    def _run_update(self, statement: UpdateStmt) -> Table:
        table = self.catalog.get(statement.table)
        names = table.schema.names
        for column, _ in statement.assignments:
            table.schema.index_of(column)  # validate early
        victims = self._matching_rows(table, statement.where)
        for old_row in victims:
            context = dict(zip(names, old_row))
            updates = {column: expr.evaluate(context)
                       for column, expr in statement.assignments}
            new_row = tuple(updates.get(name, value)
                            for name, value in zip(names, old_row))
            # UPDATE = DELETE + INSERT (Section 6)
            self.catalog.update(statement.table, old_row, new_row)
        self._invalidate_cache(statement.table)
        return self._affected(len(victims))

    def _run_create(self, statement: CreateTableStmt) -> Table:
        columns = []
        for name, type_name, nullable in statement.columns:
            try:
                dtype = DataType(type_name.upper())
            except ValueError:
                raise SQLExecutionError(
                    f"unknown column type {type_name!r}; have "
                    f"{[t.value for t in DataType]}") from None
            columns.append(Column(name, dtype, nullable=nullable))
        table = Table(Schema(columns))
        self.catalog.register(statement.table, table)
        self._invalidate_cache(statement.table)
        return table

    # -- EXPLAIN ----------------------------------------------------------

    def explain(self, statement: Statement) -> Table:
        """The plan as a (step, detail) relation -- no rows computed.

        Exposes what Section 2 says the union-of-GROUP-BYs hides from
        the optimizer: the grouping structure, the number of grouping
        sets, the selected algorithm and its rationale, and the
        estimated result cardinality via the Π(Ci+1) law.
        """
        steps: list[tuple[str, str]] = []
        body = statement.body
        selects = body.selects if isinstance(body, UnionStmt) else [body]
        for position, select in enumerate(selects):
            prefix = f"branch {position}: " if len(selects) > 1 else ""
            steps.extend(self._explain_select(select, prefix))
        if len(selects) > 1:
            steps.append(("union", f"{len(selects)} branches"))
        if statement.order_by:
            keys = ", ".join(
                item.expression.default_name()
                + (" DESC" if item.descending else "")
                for item in statement.order_by)
            steps.append(("order by", keys))
        for diagnostic in self._lint(statement):
            steps.append(("lint", diagnostic.format_line()))
        return Table(Schema([Column("step", DataType.STRING),
                             Column("detail", DataType.STRING)]), steps)

    def explain_analyze(self, statement: Statement) -> Table:
        """``EXPLAIN ANALYZE``: execute, then render the observed plan.

        The statement runs for real (rows are computed and discarded)
        under a private :class:`~repro.obs.trace.Tracer`, so spans are
        collected even when session-wide tracing is off and nothing
        leaks into a tracer the caller may have installed.  The result
        is the span tree as (step, detail) rows: indentation shows
        nesting, each row carries the wall-clock duration, and cube
        spans append their :class:`ComputeStats` counters.
        """
        tracer = Tracer()
        started = time.perf_counter()
        with use_tracer(tracer):
            with tracer.span("sql.query", kind="select"):
                result = self.run(statement)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.last_analyze_roots = tracer.roots
        header = f"{len(result)} rows in {elapsed_ms:.2f} ms"
        if tracer.roots:
            header += f"  trace={tracer.roots[0].trace_id}"
        steps: list[tuple[str, str]] = [("analyze", header)]
        for root in tracer.roots:
            steps.extend(render_span_rows(root))
        return Table(Schema([Column("step", DataType.STRING),
                             Column("detail", DataType.STRING)]), steps)

    def _lint(self, statement: Statement):
        """Run the static checks against the session's catalog."""
        from repro.lint import lint_statement
        return lint_statement(statement, catalog=self.catalog,
                              registry=self.registry,
                              null_mode=self.null_mode)

    def _explain_select(self, select: SelectStmt,
                        prefix: str) -> list[tuple[str, str]]:
        steps: list[tuple[str, str]] = []
        if select.table is not None:
            steps.append((f"{prefix}scan", select.table.name))
            for join in select.joins:
                how = (f"USING ({', '.join(join.using)})" if join.using
                       else "ON <predicate>")
                steps.append((f"{prefix}join",
                              f"{join.table.name} {how}"))
        if select.where is not None:
            steps.append((f"{prefix}filter", repr(select.where)))

        if select.group is not None:
            # when the table resolves, estimate result size + algorithm
            # on the input the cube would see: joined, WHERE-filtered,
            # with its table-function columns
            if select.table is not None and select.table.name in \
                    self.catalog:
                table, bound = self._bind_input(select)
            else:
                table, bound = None, bind(select, self.registry)
            spec = bound.spec()
            steps.append((f"{prefix}group", spec.describe()))
            steps.append((f"{prefix}grouping sets",
                          str(spec.set_count())))
            if table is not None:
                specs, _ = bound.measures()
                task = build_task(table, bound.dims, specs,
                                  spec.grouping_sets())
                cardinalities = task.cardinalities()
                estimate = math.prod(c + 1 for c in cardinalities)
                steps.append((
                    f"{prefix}cardinalities",
                    ", ".join(f"{name}={c}" for (_, name), c
                              in zip(bound.dims, cardinalities))))
                steps.append((f"{prefix}estimated rows",
                              f"<= {estimate} (Π(Ci+1) law)"))
                lattice = CubeLattice(task.dims, task.masks)
                expected = lattice.expected_cube_cells(
                    cardinalities, len(task.rows))
                steps.append((f"{prefix}expected rows",
                              f"~ {expected} (sparse estimate, "
                              f"T={len(task.rows)})"))
                steps.append((f"{prefix}algorithm",
                              explain_choice(task, **self._planning())))
        if select.having is not None:
            steps.append((f"{prefix}having", repr(select.having)))
        if select.distinct:
            steps.append((f"{prefix}distinct", ""))
        return steps

    def run(self, statement: Statement) -> Table:
        if self.strict:
            from repro.lint import require_clean
            require_clean(self._lint(statement))
        body = statement.body
        if isinstance(body, UnionStmt):
            result = self._run_select(body.selects[0])
            for flag, select in zip(body.all_flags, body.selects[1:]):
                branch = self._run_select(select)
                branch = self._align_schemas(result, branch)
                result = union_all(result, branch) if flag \
                    else union_distinct(result, branch)
        else:
            result = self._run_select(body, statement.order_by)
        if statement.order_by:
            result = self._order(result, statement.order_by)
        return result

    # -- select pipeline -----------------------------------------------------

    def _run_select(self, select: SelectStmt,
                    order_by: Sequence[OrderItem] = ()) -> Table:
        table, bound = self._bind_input(select, order_by)
        if bound.select.group is None and not bound.aggregates:
            result = self._project_plain(table, bound.select.items)
        else:
            result = self._run_grouped(table, bound)

        if bound.select.distinct:
            result = distinct_op(result)
        if self.null_mode is NullMode.NULL_WITH_GROUPING:
            result = self._replace_all_with_null(result)
        return result

    def _bind_input(self, select: SelectStmt,
                    order_by: Sequence[OrderItem] = ()
                    ) -> tuple[Table, BoundSelect]:
        """The front half execution and EXPLAIN share: FROM, the scalar
        subqueries, WHERE, :func:`bind` (with the statement's ORDER BY
        when ``select`` is its whole body), then the table-function
        columns over the filtered input -- the relation the cube sees."""
        rctx.checkpoint("sql.from")
        table = self._run_from(select)
        resolved = self._resolve_subqueries_in_select(select)
        if resolved.where is not None:
            rctx.checkpoint("sql.where")
            if any(isinstance(node, AggregateCall)
                   for node in walk(resolved.where)):
                raise SQLPlanError("aggregates are not allowed in WHERE")
            table = filter_rows(table, resolved.where)
        bound = bind(resolved, self.registry, order_by)
        return self._materialize_table_functions(table, bound), bound

    def _planning(self) -> dict[str, Any]:
        """The optimizer inputs execution and EXPLAIN share."""
        return {"algorithm": self.algorithm, "dense_budget": self.dense_budget,
                "memory_budget": self.memory_budget}

    def _run_from(self, select: SelectStmt) -> Table:
        if select.table is None:
            return Table(Schema([Column("__dummy", DataType.INTEGER)]),
                         [(0,)])
        table = self.catalog.get(select.table.name)
        for join in select.joins:
            right = self.catalog.get(join.table.name)
            if join.using:
                table = hash_join(table, right,
                                  list(join.using), list(join.using))
            else:
                table = nested_loop_join(table, right, join.on)
        return table

    def _resolve_subqueries_in_select(self, select: SelectStmt) -> SelectStmt:
        def resolve(expr: Expression) -> Optional[Expression]:
            if isinstance(expr, ScalarSubquery):
                return Literal(self._scalar(expr))
            return None

        return map_select(select, resolve)

    def _scalar(self, subquery: ScalarSubquery) -> Any:
        result = self.run(subquery.statement)
        if len(result) != 1 or len(result.schema) != 1:
            raise SQLExecutionError(
                f"scalar subquery returned {len(result)} rows x "
                f"{len(result.schema)} columns; needs exactly 1 x 1")
        return result.rows[0][0]

    def _cache_source_signature(self,
                                bound: BoundSelect) -> Optional[tuple]:
        """The semantic-cache source key for a bound SELECT:
        the base/joined tables with their catalog versions, the WHERE
        predicate's structural repr, the join shape, and the *ordered*
        slot keys -- slots are named positionally (``__tf0_rank``), so
        two queries grouping different RANK() arguments would otherwise
        collide on one dimension repr.  ``None`` (no base table, or an
        unknown one), or no cache, disables caching for this query.
        """
        select = bound.select
        if self.cache is None or select.table is None \
                or select.table.name not in self.catalog:
            return None
        tables = [(select.table.name.upper(),
                   self.catalog.version(select.table.name))]
        joins = []
        for join in select.joins:
            if join.table.name not in self.catalog:
                return None
            tables.append((join.table.name.upper(),
                           self.catalog.version(join.table.name)))
            joins.append((join.table.name.upper(),
                          tuple(join.using) if join.using
                          else repr(join.on)))
        where_sig = repr(select.where) if select.where is not None else ""
        return (tuple(tables), where_sig, tuple(joins),
                tuple(slot.key for slot in bound.slots))

    def _materialize_table_functions(self, table: Table,
                                     bound: BoundSelect) -> Table:
        """Append one derived column per table-function slot."""
        if not bound.slots:
            return table
        names = table.schema.names
        columns = list(table.schema.columns)
        new_column_values: list[list] = []
        for slot in bound.slots:
            values = [slot.call.argument.evaluate(dict(zip(names, row)))
                      for row in table]
            if slot.error is not None:
                raise slot.error
            columns.append(Column(slot.column, DataType.ANY))
            new_column_values.append(slot.compute(values))

        return Table(Schema(columns),
                     [row + extra for row, extra
                      in zip(table.rows, zip(*new_column_values))],
                     validate=False)

    # -- plain (non-grouped) projection ------------------------------------

    def _project_plain(self, table: Table,
                       items: list[SelectItem]) -> Table:
        columns: list[Column] = []
        evaluators: list[Expression | None] = []  # None = expand Star
        # the source position of every output value while all of them
        # are plain column references (the rule build_task uses)
        positions: list[int] | None = []
        for item in items:
            if isinstance(item.expression, Star):
                columns.extend(table.schema.columns)
                evaluators.append(None)
                if positions is not None:
                    positions.extend(range(len(table.schema)))
            else:
                name = item.alias or item.expression.default_name()
                position = column_position(item.expression, table.schema)
                if position is not None:
                    columns.append(
                        table.schema.columns[position].renamed(name))
                    if positions is not None:
                        positions.append(position)
                else:
                    columns.append(Column(name, DataType.ANY,
                                          all_allowed=True))
                    positions = None
                evaluators.append(item.expression)
        schema = Schema(self._dedupe_names(columns))
        if positions is not None:
            return Table(schema, table.pick(positions), validate=False)
        names = table.schema.names
        out = Table(schema)
        for row in table:
            context = dict(zip(names, row))
            values: list[Any] = []
            for evaluator in evaluators:
                if evaluator is None:
                    values.extend(row)
                else:
                    values.append(evaluator.evaluate(context))
            out.append(tuple(values), validate=False)
        return out

    @staticmethod
    def _dedupe_names(columns: list[Column]) -> list[Column]:
        seen: dict[str, int] = {}
        out = []
        for column in columns:
            name = column.name
            if name in seen:
                seen[name] += 1
                name = f"{name}_{seen[column.name]}"
            else:
                seen[name] = 0
            out.append(column.renamed(name))
        return out

    # -- grouped execution -------------------------------------------------

    def _run_grouped(self, table: Table, bound: BoundSelect) -> Table:
        select = bound.select
        if any(isinstance(item.expression, Star) for item in select.items):
            raise SQLPlanError("SELECT * cannot be combined with "
                               "GROUP BY or aggregates")
        specs, agg_sigs = bound.measures()
        dims = bound.dims
        dim_sigs = tuple(repr(expr) for expr, _ in dims)

        # the workload-history identity: the same order-insensitive
        # dim/agg signatures the semantic cache keys on
        querylog.annotate(signature=querylog.cuboid_signature(
            dim_sigs, agg_sigs))

        if not dims:
            grouped = hash_group_by(table, [], specs).table
        else:
            rctx.checkpoint("sql.group")
            spec = bound.spec()
            grouped = None
            source = self._cache_source_signature(bound)
            if source is not None:
                grouped = self.cache.serve(
                    table=table, source=source,
                    dim_items=dims,
                    dim_sigs=dim_sigs,
                    dim_names=tuple(name for _, name in dims),
                    specs=specs,
                    agg_sigs=agg_sigs,
                    agg_names=tuple(s.name for s in specs),
                    masks=tuple(spec.grouping_sets()))
            if grouped is None:
                task = build_task(table, dims, specs,
                                  spec.grouping_sets())
                algorithm = choose_algorithm(task, **self._planning())
                grouped = algorithm.compute(task).table

        # rewrite select/having expressions against the grouped schema
        dim_name_set = {name for _, name in dims}
        # the binder's record of GROUPING() columns; the rewrite raises
        # at the first call that names an ungrouped one, clause by clause
        not_grouped = set(bound.grouping_columns) - dim_name_set

        # the Section 4 shorthand: an aggregate's select alias becomes a
        # cell-addressing function -- `SUM(Sales) AS total` makes
        # `total(ALL, ALL, ALL)` the global-cell value
        agg_names = {a.key: a.name for a in bound.aggregates}
        alias_cells = self._alias_cell_lookup(bound, grouped)

        def rewrite(expr: Expression) -> Optional[Expression]:
            if isinstance(expr, AggregateCall):
                return ColumnRef(agg_names[expr.key()])
            if isinstance(expr, GroupingCall):
                if expr.column in not_grouped:
                    raise SQLPlanError(
                        f"GROUPING({expr.column}) references a column "
                        "that is not grouped")
                return _IsAllTest(expr.column)
            if isinstance(expr, FunctionCall) and alias_cells is not None:
                resolved = alias_cells(expr)
                if resolved is not None:
                    return resolved
            return None

        # the Section 3.5 rule, each clause after its own rewrite
        # errors: every column read is grouped or aggregated
        # (decorations are provided by repro.core.decorations, not SQL)
        if select.having is not None:
            having = transform(select.having, rewrite)
            _reject_ungrouped(bound.having_ungrouped)
            grouped = filter_rows(grouped, having)

        out_items = []
        for item, ungrouped in zip(select.items, bound.ungrouped):
            rewritten = transform(item.expression, rewrite)
            _reject_ungrouped(ungrouped)
            out_items.append(SelectItem(rewritten, item.alias))
        _reject_ungrouped(bound.order_ungrouped)
        return self._project_plain(grouped, out_items)

    def _alias_cell_lookup(self, bound: BoundSelect, grouped: Table):
        """Build the Section 4 alias-addressing resolver.

        Returns a callable mapping a :class:`FunctionCall` whose name is
        an aggregate's select alias and whose arguments are coordinate
        literals to the addressed cell's value, or None when no aliases
        exist.  ``total(ALL, ALL, ALL)`` is the paper's shorthand for
        the nested percent-of-total subquery.
        """
        if not bound.alias_cells:
            return None

        dim_names = [name for _, name in bound.dims]
        dim_idx = [grouped.schema.index_of(name) for name in dim_names]
        cells: dict[tuple, tuple] = {
            tuple(row[i] for i in dim_idx): row for row in grouped}

        def resolve(call: FunctionCall) -> Optional[Expression]:
            column = bound.alias_cells.get(call.name.upper())
            if column is None:
                return None
            if len(call.args) != len(dim_names):
                raise SQLPlanError(
                    f"{call.name}(...) addresses a {len(dim_names)}-"
                    f"dimensional cube; got {len(call.args)} coordinates")
            coords = []
            for arg in call.args:
                if not isinstance(arg, Literal):
                    raise SQLPlanError(
                        f"{call.name}(...) coordinates must be literals "
                        "or ALL")
                coords.append(arg.value)
            row = cells.get(tuple(coords))
            if row is None:
                raise SQLPlanError(
                    f"{call.name}{tuple(coords)} addresses no cube cell")
            return Literal(row[grouped.schema.index_of(column)])

        return resolve

    # -- output post-processing ------------------------------------------------

    def _replace_all_with_null(self, table: Table) -> Table:
        out = Table(table.schema)
        for row in table:
            out.append(tuple(None if v is ALL else v for v in row),
                       validate=False)
        return out

    def _align_schemas(self, left: Table, right: Table) -> Table:
        if len(left.schema) != len(right.schema):
            raise SQLExecutionError(
                "UNION branches have different column counts")
        if left.schema.names == right.schema.names:
            return right
        renamed = Schema([
            column.renamed(name) for column, name
            in zip(right.schema.columns, left.schema.names)])
        return Table(renamed, right.rows, validate=False)

    def _order(self, table: Table, order_items: list[OrderItem]) -> Table:
        names = table.schema.names
        decorated = []
        for row in table:
            context = dict(zip(names, row))
            keys = []
            for item in order_items:
                value = item.expression.evaluate(context)
                keys.append(sort_key(value))
            decorated.append((keys, row))
        for position in range(len(order_items) - 1, -1, -1):
            decorated.sort(key=lambda pair: pair[0][position],
                           reverse=order_items[position].descending)
        out = table.empty_like()
        out.extend((row for _, row in decorated), validate=False)
        return out


def _reject_ungrouped(names: Sequence[str]) -> None:
    if names:
        raise SQLPlanError(
            f"column {names[0]!r} is neither grouped nor aggregated; add "
            "it to GROUP BY or use repro.core decorations")


def execute(sql: str, catalog: Catalog, *,
            registry: AggregateRegistry | None = None,
            null_mode: NullMode = NullMode.ALL_VALUE,
            strict: bool = False) -> Table:
    """One-shot convenience: run ``sql`` against ``catalog``."""
    session = SQLSession(catalog, registry=registry, null_mode=null_mode,
                         strict=strict)
    return session.execute(sql)
