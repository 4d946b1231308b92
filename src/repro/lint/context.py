"""The normalized lint target.

Every rule sees one :class:`LintContext`: a flattened description of a
single cube computation, whether it arrived as a parsed SQL SELECT, a
programmatic ``cube()``/``rollup()`` call, or a maintenance plan.  The
builders here do all the front-end-specific walking (AST traversal via
:mod:`repro.sql.analysis`, :class:`~repro.compute.base.CubeTask`
introspection) so rules stay pure functions of the context.

Builders never mutate their inputs: aggregate functions referenced by a
spec are inspected in place, a SQL SELECT is read through the same
:func:`repro.sql.bind.bind` the executor uses (fresh function
instances, dimensions under the names the executor outputs), and data
checks only read table rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.aggregates.base import AggregateFunction
from repro.aggregates.registry import AggregateRegistry, default_registry
from repro.core.decorations import Decoration
from repro.engine.expressions import (
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
)
from repro.engine.table import Table
from repro.errors import UnknownAggregateError
from repro.sql.ast_nodes import (
    AggregateCall,
    GroupingCall,
    SelectStmt,
    Statement,
)
from repro.sql.analysis import iter_selects, walk
from repro.sql.bind import BoundAggregate, bind, bind_aggregate, select_roots
from repro.types import NullMode

__all__ = [
    "AggregateInfo",
    "LintContext",
    "contexts_from_statement",
    "context_from_spec",
]

#: Algorithms whose super-aggregation step relies on Iter_super
#: (merging sub-aggregate scratchpads) -- invalid for holistic
#: functions per Section 5.
MERGE_BASED_ALGORITHMS = frozenset({
    "from-core", "pipesort", "sort", "parallel", "external", "array",
})


@dataclass(frozen=True)
class AggregateInfo:
    """One requested aggregate, resolved as far as statically possible."""

    name: str                               # registry / display name
    function: Optional[AggregateFunction]   # None when unresolvable
    known: bool = True                      # name resolved in the registry
    user_defined: bool = False              # built via make_udaf / ad-hoc

    @property
    def holistic(self) -> bool:
        if self.function is None:
            return False
        from repro.aggregates.classification import AggregateClass
        return self.function.classification is AggregateClass.HOLISTIC

    @property
    def mergeable(self) -> bool:
        return self.function is not None and self.function.mergeable

    @property
    def delete_holistic(self) -> bool:
        if self.function is None:
            return False
        from repro.aggregates.classification import AggregateClass
        return (self.function.maintenance.delete
                is AggregateClass.HOLISTIC)


@dataclass
class LintContext:
    """Everything a rule may ask about one cube computation."""

    source: str = "spec"                    # "sql" | "spec" | "maintenance"
    plain: tuple[str, ...] = ()
    rollup: tuple[str, ...] = ()
    cube: tuple[str, ...] = ()
    #: dimension expressions aligned with dims (None when dims came in
    #: as bare column names)
    dim_exprs: tuple[Optional[Expression], ...] = ()
    aggregates: tuple[AggregateInfo, ...] = ()
    #: the *requested* algorithm ("auto" means optimizer's choice)
    algorithm: str = "auto"
    null_mode: NullMode = NullMode.ALL_VALUE
    table: Optional[Table] = None
    #: per-dimension cardinality overrides (declared statistics); data
    #: scans fill gaps when a table is available
    cardinalities: Mapping[str, int] = field(default_factory=dict)
    total_rows: Optional[int] = None
    #: columns named in GROUPING(col) calls (SQL only)
    grouping_calls: tuple[str, ...] = ()
    #: columns a select item, HAVING or ORDER BY reads that are neither
    #: grouped nor aggregated
    nongrouped_outputs: tuple[str, ...] = ()
    #: scalar function names that resolve nowhere (SQL only)
    unknown_functions: tuple[str, ...] = ()
    decorations: tuple[Decoration, ...] = ()
    #: maintenance operations this plan must support
    maintenance_ops: tuple[str, ...] = ("select",)
    retain_base: bool = True
    #: Π(Ci+1)-style estimate above which C009 warns
    blowup_threshold: int = 1_000_000
    span: Optional[tuple[int, int]] = None
    statement_index: Optional[int] = None

    # -- derived properties -------------------------------------------------

    @property
    def dims(self) -> tuple[str, ...]:
        return self.plain + self.rollup + self.cube

    @property
    def duplicate_dims(self) -> tuple[str, ...]:
        seen: set[str] = set()
        dupes: list[str] = []
        for name in self.dims:
            if name in seen and name not in dupes:
                dupes.append(name)
            seen.add(name)
        return tuple(dupes)

    @property
    def grouping_set_count(self) -> int:
        """(len(rollup)+1) * 2^len(cube) -- Section 3.2's law."""
        return (len(self.rollup) + 1) * (1 << len(self.cube))

    @property
    def has_super_aggregates(self) -> bool:
        return self.grouping_set_count > 1

    # -- data access helpers (read-only) ------------------------------------

    def dim_expr(self, name: str) -> Optional[Expression]:
        for dim, expr in zip(self.dims, self.dim_exprs):
            if dim == name:
                return expr
        return None

    def _column_index(self, name: str) -> Optional[int]:
        """Index of a dimension's backing column in the table, if the
        dimension is a plain column reference."""
        if self.table is None:
            return None
        expr = self.dim_expr(name)
        if expr is not None and not isinstance(expr, ColumnRef):
            return None
        column = expr.name if isinstance(expr, ColumnRef) else name
        if column not in self.table.schema:
            return None
        return self.table.schema.index_of(column)

    def column_has_nulls(self, name: str) -> Optional[bool]:
        """Does the dimension's data contain real NULLs?  None = unknown."""
        index = self._column_index(name)
        if index is None:
            return None
        return any(row[index] is None for row in self.table)  # type: ignore[union-attr]

    def cardinality(self, name: str) -> Optional[int]:
        """Distinct-value count for a dimension; None = unknown."""
        if name in self.cardinalities:
            return int(self.cardinalities[name])
        index = self._column_index(name)
        if index is None:
            return None
        return len({row[index] for row in self.table})  # type: ignore[union-attr]

    def is_literal_dim(self, name: str) -> bool:
        expr = self.dim_expr(name)
        return isinstance(expr, Literal)


# -- builders ------------------------------------------------------------------


def _sql_aggregate_info(bound: BoundAggregate) -> AggregateInfo:
    """What the linter knows about one bound SQL aggregate call: an
    unknown name or a DISTINCT that is not COUNT is unknown; any other
    construction failure is a known function it cannot inspect."""
    call = bound.call
    if bound.function is not None:
        return _function_info(call.name, bound.function)
    if call.distinct and call.name != "COUNT":
        return AggregateInfo(name=f"DISTINCT {call.name}", function=None,
                             known=False)
    unknown = isinstance(bound.error, UnknownAggregateError)
    return AggregateInfo(name=call.name, function=None, known=not unknown)


def _function_info(name: str, fn: AggregateFunction) -> AggregateInfo:
    user_defined = type(fn).__name__.startswith("UDAF_") \
        or type(fn).__module__.split(".")[0] != "repro"
    return AggregateInfo(name=name, function=fn, user_defined=user_defined)


def contexts_from_statement(
        statement: Statement, *,
        catalog: Any = None,
        registry: AggregateRegistry | None = None,
        null_mode: NullMode = NullMode.ALL_VALUE,
        blowup_threshold: int = 1_000_000,
        span: tuple[int, int] | None = None,
        statement_index: int | None = None) -> list[LintContext]:
    """One :class:`LintContext` per SELECT in the statement.

    Non-grouped SELECTs still get a context (rules about unknown
    functions and non-grouped outputs apply); grouped ones carry the
    full grouping structure.  ``catalog`` (a
    :class:`~repro.engine.catalog.Catalog` or any ``get(name)``/
    ``__contains__`` mapping of tables) enables the data-dependent
    rules; without it they stay silent.
    """
    registry = registry or default_registry
    contexts: list[LintContext] = []
    first = True
    for select in iter_selects(statement):
        # statement-level ORDER BY is scanned once, with the first
        # (top-level) SELECT, not re-attributed to every subquery
        contexts.append(_context_from_select(
            select, statement if first else None,
            catalog=catalog, registry=registry,
            null_mode=null_mode, blowup_threshold=blowup_threshold,
            span=span, statement_index=statement_index))
        first = False
    return contexts


def _context_from_select(select: SelectStmt,
                         statement: Optional[Statement], *,
                         catalog: Any, registry: AggregateRegistry,
                         null_mode: NullMode, blowup_threshold: int,
                         span: tuple[int, int] | None,
                         statement_index: int | None) -> LintContext:
    order_by = (statement.order_by
                if statement is not None and statement.body is select
                else ())
    bound = bind(select, registry, order_by)
    aggregates = [_sql_aggregate_info(a) for a in bound.aggregates]
    seen = {a.key for a in bound.aggregates}

    # GROUPING() calls and scalar function names; statement-level ORDER
    # BY aggregates join the bound ones
    grouping_calls: list[str] = []
    unknown_functions: list[str] = []

    roots = select_roots(bound.select)
    if statement is not None:
        roots.extend(bound.rewrite(item.expression)
                     for item in statement.order_by)
    for node in (node for root in roots for node in walk(root)):
        if isinstance(node, AggregateCall):
            if node.key() not in seen:
                seen.add(node.key())
                aggregates.append(_sql_aggregate_info(bind_aggregate(
                    node, registry, node.default_name())))
        elif isinstance(node, GroupingCall):
            grouping_calls.append(node.column)
        elif isinstance(node, FunctionCall):
            # the Section 4 alias-addressing shorthand makes an
            # aggregate's select alias callable; anything else must
            # resolve in the scalar-function registry
            name = node.name.upper()
            if name not in node.registry \
                    and name not in bound.alias_cells \
                    and name not in unknown_functions:
                unknown_functions.append(name)

    table: Optional[Table] = None
    if catalog is not None and select.table is not None:
        try:
            if select.table.name in catalog:
                table = catalog.get(select.table.name)
        except Exception:
            table = None

    return LintContext(
        source="sql",
        plain=bound.plain, rollup=bound.rollup, cube=bound.cube,
        dim_exprs=tuple(expr for expr, _ in bound.dims),
        aggregates=tuple(aggregates),
        algorithm="auto",
        null_mode=null_mode,
        table=table,
        total_rows=len(table) if table is not None else None,
        grouping_calls=tuple(grouping_calls),
        nongrouped_outputs=tuple(dict.fromkeys(
            name for names in (*bound.ungrouped, bound.having_ungrouped,
                               bound.order_ungrouped)
            for name in names)),
        unknown_functions=tuple(unknown_functions),
        blowup_threshold=blowup_threshold,
        span=span,
        statement_index=statement_index,
    )


def _resolve_spec_aggregate(request: Any,
                            registry: AggregateRegistry) -> AggregateInfo:
    """Resolve one programmatic aggregate request without mutating it."""
    from repro.core.cube import AggregateRequest
    from repro.engine.groupby import AggregateSpec

    if isinstance(request, AggregateSpec):
        request = request.function
    elif isinstance(request, tuple):
        request = AggregateRequest(*request)
    if isinstance(request, AggregateRequest) \
            and isinstance(request.function, AggregateFunction):
        request = request.function
    if isinstance(request, AggregateFunction):
        return _function_info(request.name or type(request).__name__,
                              request)
    if isinstance(request, AggregateRequest):
        name = request.function
        lookup = "COUNT(*)" if (name.upper() == "COUNT"
                                and request.input == "*") else name
        try:
            fn = registry.create(lookup, *request.args)
        except UnknownAggregateError:
            return AggregateInfo(name=name, function=None, known=False)
        except Exception:
            return AggregateInfo(name=name, function=None, known=True)
        return _function_info(name, fn)
    return AggregateInfo(name=repr(request), function=None, known=False)


def context_from_spec(
        table: Optional[Table],
        dims: Sequence,
        aggregates: Sequence, *,
        kind: str = "cube",
        plain: Sequence[str] = (),
        rollup: Sequence[str] = (),
        cube: Sequence[str] = (),
        algorithm: Any = "auto",
        null_mode: NullMode = NullMode.ALL_VALUE,
        registry: AggregateRegistry | None = None,
        cardinalities: Mapping[str, int] | None = None,
        decorations: Sequence[Decoration] = (),
        maintenance_ops: Sequence[str] = ("select",),
        retain_base: bool = True,
        blowup_threshold: int = 1_000_000) -> LintContext:
    """Build a context from the programmatic cube API's arguments.

    ``dims`` accepts the same forms the cube operators do (names,
    expressions, ``(expression, alias)`` pairs).  Either pass ``kind``
    ("cube" / "rollup" / "groupby", applying to all of ``dims``) or
    explicit ``plain``/``rollup``/``cube`` name lists for compound
    clauses.
    """
    registry = registry or default_registry

    names: list[str] = []
    dim_exprs: list[Optional[Expression]] = []
    for dim in dims:
        if isinstance(dim, str):
            names.append(dim)
            dim_exprs.append(None)
        elif isinstance(dim, tuple):
            expr, alias = dim
            names.append(alias)
            dim_exprs.append(expr)
        else:  # an Expression
            names.append(dim.default_name())
            dim_exprs.append(dim)

    if plain or rollup or cube:
        plain_t, rollup_t, cube_t = tuple(plain), tuple(rollup), tuple(cube)
    elif kind == "rollup":
        plain_t, rollup_t, cube_t = (), tuple(names), ()
    elif kind == "groupby":
        plain_t, rollup_t, cube_t = tuple(names), (), ()
    else:
        plain_t, rollup_t, cube_t = (), (), tuple(names)

    if isinstance(algorithm, str) or algorithm is None:
        algorithm_name = algorithm or "auto"
    else:
        algorithm_name = getattr(algorithm, "name", "") \
            or type(algorithm).__name__

    return LintContext(
        source="maintenance" if set(maintenance_ops) - {"select"}
        else "spec",
        plain=plain_t, rollup=rollup_t, cube=cube_t,
        dim_exprs=tuple(dim_exprs),
        aggregates=tuple(_resolve_spec_aggregate(request, registry)
                         for request in aggregates),
        algorithm=algorithm_name,
        null_mode=null_mode,
        table=table,
        cardinalities=dict(cardinalities or {}),
        total_rows=len(table) if table is not None else None,
        decorations=tuple(decorations),
        maintenance_ops=tuple(maintenance_ops),
        retain_base=retain_base,
        blowup_threshold=blowup_threshold,
    )
