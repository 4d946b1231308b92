"""The SQL binder: one SELECT resolved once, for every reader.

:func:`bind` is a pure function of a parsed SELECT -- it executes
nothing and reads no data -- and the executor, EXPLAIN, the semantic
cache key and the linter all read its :class:`BoundSelect`:

- the **table-function slots**: the Red Brick whole-column calls
  (Section 1.2) of the select list, GROUP BY and HAVING, deduplicated
  by key in that walk order and named positionally (``__tf0_rank``);
  the bound SELECT refers to each call by its slot's column;
- the **dimensions** (Section 3.2) as ``(expression, name)`` pairs, a
  name being the column the executor outputs (the alias, else the
  rewritten expression's default name), and their ``GroupingSpec``;
- the **aggregates** in first-seen key order (select list, then
  HAVING), each with its output name and its function from
  :func:`bind_aggregate`, the one SQL path to ``registry.create``;
- per select item of a grouped SELECT, the **ungrouped** columns it
  reads (Section 3.5), and those HAVING and the statement's ORDER BY
  read outside the dimension outputs, aggregate outputs and select
  aliases, which the executor rejects and the linter reports as C004;
- the columns ``GROUPING()`` names in the select list, HAVING and that
  ORDER BY, which the executor checks against the dimensions and the
  linter reads for C003 and C005.

Problems are recorded, not raised: the executor raises a recorded
error at the pipeline step that needs the broken part, and the linter
turns it into a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.aggregates.base import AggregateFunction
from repro.aggregates.distributive import CountStar
from repro.aggregates.holistic import HolisticAggregate
from repro.aggregates.registry import AggregateRegistry
from repro.core.grouping import GroupingSpec
from repro.engine.expressions import (
    Arithmetic,
    Between,
    BooleanExpr,
    CaseExpr,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LikeExpr,
    NotExpr,
)
from repro.engine.groupby import AggregateSpec
from repro.errors import ReproError, SQLPlanError
from repro.sql.analysis import children, walk
from repro.sql.ast_nodes import (
    TABLE_FUNCTIONS,
    AggregateCall,
    GroupClause,
    GroupingCall,
    OrderItem,
    SelectItem,
    SelectStmt,
    Star,
    TableFunctionCall,
)

__all__ = ["BoundAggregate", "BoundSelect", "TableFunctionSlot", "bind",
           "bind_aggregate", "map_select", "select_roots", "transform"]

Mapper = Callable[[Expression], Optional[Expression]]


# -- expression rewriting ------------------------------------------------------


def transform(expr: Expression, mapper: Mapper) -> Expression:
    """Bottom-up rewrite: ``mapper`` may replace any node; children of
    un-replaced nodes are rebuilt recursively."""
    replacement = mapper(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, Arithmetic):
        return Arithmetic(expr.op, transform(expr.left, mapper),
                          transform(expr.right, mapper))
    if isinstance(expr, Comparison):
        return Comparison(expr.op, transform(expr.left, mapper),
                          transform(expr.right, mapper))
    if isinstance(expr, BooleanExpr):
        return BooleanExpr(expr.op,
                           [transform(o, mapper) for o in expr.operands])
    if isinstance(expr, NotExpr):
        return NotExpr(transform(expr.operand, mapper))
    if isinstance(expr, InList):
        return InList(transform(expr.operand, mapper), expr.values)
    if isinstance(expr, Between):
        return Between(transform(expr.operand, mapper),
                       transform(expr.low, mapper),
                       transform(expr.high, mapper))
    if isinstance(expr, IsNull):
        return IsNull(transform(expr.operand, mapper), negated=expr.negated)
    if isinstance(expr, LikeExpr):
        return LikeExpr(transform(expr.operand, mapper), expr.pattern,
                        negated=expr.negated)
    if isinstance(expr, CaseExpr):
        branches = [(transform(c, mapper), transform(v, mapper))
                    for c, v in expr.branches]
        default = transform(expr.default, mapper) \
            if expr.default is not None else None
        return CaseExpr(branches, default)
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name,
                            [transform(a, mapper) for a in expr.args],
                            registry=expr.registry,
                            propagate_null=expr.propagate_null)
    if isinstance(expr, AggregateCall):
        argument = expr.argument
        if not isinstance(argument, str):  # "*"
            argument = transform(argument, mapper)
        return AggregateCall(expr.name, argument, distinct=expr.distinct,
                             extra_args=expr.extra_args)
    if isinstance(expr, TableFunctionCall):
        return TableFunctionCall(expr.name,
                                 transform(expr.argument, mapper),
                                 extra_args=expr.extra_args)
    return expr


def _first_seen(roots: list[Expression], kind: type) -> dict[tuple, Any]:
    """Every ``kind`` node (a keyed SQL call) under ``roots`` by key, in
    first-seen pre-order."""
    found: dict[tuple, Any] = {}
    for root in roots:
        for node in walk(root):
            if isinstance(node, kind):
                found.setdefault(node.key(), node)
    return found


def map_select(select: SelectStmt, mapper: Mapper) -> SelectStmt:
    """``select`` with ``mapper`` applied (via :func:`transform`) to the
    select list, WHERE, GROUP BY and HAVING."""
    def apply(expr: Optional[Expression]) -> Optional[Expression]:
        return transform(expr, mapper) if expr is not None else None

    items = [item if isinstance(item.expression, Star)
             else SelectItem(transform(item.expression, mapper), item.alias)
             for item in select.items]
    group = select.group
    if group is not None:
        group = GroupClause(
            plain=[(transform(e, mapper), a) for e, a in group.plain],
            rollup=[(transform(e, mapper), a) for e, a in group.rollup],
            cube=[(transform(e, mapper), a) for e, a in group.cube])
    return SelectStmt(items=items, table=select.table, joins=select.joins,
                      where=apply(select.where), group=group,
                      having=apply(select.having), distinct=select.distinct)


def select_roots(select: SelectStmt, *,
                 group: bool = False) -> list[Expression]:
    """The select list's expressions, then (with ``group``) GROUP BY's,
    then HAVING -- the binder's walk order."""
    roots = [item.expression for item in select.items
             if not isinstance(item.expression, Star)]
    if group and select.group is not None:
        roots.extend(expr for expr, _ in select.group.all_items())
    if select.having is not None:
        roots.append(select.having)
    return roots


# -- table functions -----------------------------------------------------------


@dataclass
class TableFunctionSlot:
    """One distinct table-function call and its derived column:
    ``compute`` maps the argument's values to the column's, or
    ``error`` says why the call cannot run."""

    key: tuple
    call: TableFunctionCall
    column: str
    compute: Optional[Callable[[list], list]] = None
    error: Optional[ReproError] = None


def _bind_slot(position: int, call: TableFunctionCall) -> TableFunctionSlot:
    slot = TableFunctionSlot(call.key(), call,
                             f"__tf{position}_{call.name.lower()}")
    impl, takes_n = TABLE_FUNCTIONS.get(call.name, (None, False))
    if impl is None:
        slot.error = SQLPlanError(f"unknown table function {call.name}")
    elif not takes_n:
        slot.compute = impl
    else:
        try:
            slot.compute = partial(impl, n=int(call.extra_args[0]))
        except (IndexError, TypeError, ValueError):
            slot.error = SQLPlanError(
                f"{call.default_name()} needs an integer count argument, "
                f"e.g. {call.name}({call.argument.default_name()}, 4)")
    return slot


def _slot_mapper(slots: tuple[TableFunctionSlot, ...]) -> Mapper:
    columns = {slot.key: slot.column for slot in slots}

    def rewrite(node: Expression) -> Optional[Expression]:
        if isinstance(node, TableFunctionCall) and node.key() in columns:
            return ColumnRef(columns[node.key()])
        return None

    return rewrite


# -- aggregates ----------------------------------------------------------------


@dataclass
class BoundAggregate:
    """One distinct aggregate call: its output column and its function,
    or the error that kept the function from being built."""

    key: tuple
    call: AggregateCall
    name: str
    function: Optional[AggregateFunction] = None
    error: Optional[ReproError] = None


def bind_aggregate(call: AggregateCall, registry: AggregateRegistry,
                   name: str) -> BoundAggregate:
    """Build a fresh function for ``call`` -- the only path from a SQL
    aggregate call to ``registry.create``.  A repro error from the
    registry is recorded as raised (an unknown name stays
    :class:`~repro.errors.UnknownAggregateError`); any other failure
    becomes a :class:`~repro.errors.SQLPlanError` naming the call."""
    bound = BoundAggregate(call.key(), call, name)
    if call.distinct and call.name != "COUNT":
        bound.error = SQLPlanError(
            f"DISTINCT is only supported with COUNT, not {call.name}")
        return bound
    if call.distinct:
        lookup, args = "COUNT_DISTINCT", ()
    elif call.name == "COUNT" and call.argument == "*":
        lookup, args = "COUNT(*)", ()
    else:
        lookup, args = call.name, call.extra_args
    try:
        fn = registry.create(lookup, *args)
    except ReproError as error:
        bound.error = error
        return bound
    except Exception as error:  # a factory's own argument checks
        bound.error = SQLPlanError(
            f"cannot build {call.default_name()}: {error}")
        bound.error.__cause__ = error
        return bound
    # SQL runs holistic functions in strict mode, so the optimizer
    # routes them through the 2^N-algorithm exactly as Section 5
    # prescribes (carrying mode is a library-level research knob); the
    # instance is fresh, so this mutates nothing shared
    if isinstance(fn, HolisticAggregate):
        fn.carrying = False
    bound.function = fn
    return bound


# -- the bound select ----------------------------------------------------------


@dataclass
class BoundSelect:
    """A SELECT resolved once (see the module docstring); ``select`` has
    its table-function calls rewritten to slot columns."""

    select: SelectStmt
    slots: tuple[TableFunctionSlot, ...]
    dims: list[tuple[Expression, str]]
    plain: tuple[str, ...]
    rollup: tuple[str, ...]
    cube: tuple[str, ...]
    aggregates: tuple[BoundAggregate, ...]
    #: an aggregate's upper-cased select alias -> its output column:
    #: the Section 4 alias-cell calls (``total(ALL)``)
    alias_cells: dict[str, str]
    #: per select item, its ungrouped columns (empty when not grouped)
    ungrouped: tuple[tuple[str, ...], ...]
    #: the ungrouped columns HAVING reads, then those ORDER BY reads
    having_ungrouped: tuple[str, ...]
    order_ungrouped: tuple[str, ...]
    #: the columns GROUPING() names in the select list, HAVING and
    #: ORDER BY, in walk order
    grouping_columns: tuple[str, ...] = ()

    def spec(self) -> GroupingSpec:
        """The grouping specification (raises
        :class:`~repro.errors.GroupingError` for a repeated name)."""
        return GroupingSpec(plain=self.plain, rollup=self.rollup,
                            cube=self.cube)

    def measures(self) -> tuple[list[AggregateSpec], tuple[tuple, ...]]:
        """The aggregates as specs plus their keys, raising the first
        recorded construction error.  GROUP BY without aggregates
        counts rows in a hidden column, keyed as COUNT(*) so a cached
        COUNT(*) column can serve it."""
        if not self.aggregates:
            return ([AggregateSpec(function=CountStar(), input="*",
                                   name="__rows")],
                    (("COUNT", "*", False, ()),))
        specs = []
        for aggregate in self.aggregates:
            if aggregate.error is not None:
                raise aggregate.error
            assert aggregate.function is not None
            specs.append(AggregateSpec(function=aggregate.function,
                                       input=aggregate.call.argument,
                                       name=aggregate.name))
        return specs, tuple(a.key for a in self.aggregates)

    def rewrite(self, expr: Expression) -> Expression:
        """``expr`` with its slotted table-function calls replaced by
        their slot columns."""
        return transform(expr, _slot_mapper(self.slots))


def bind(select: SelectStmt, registry: AggregateRegistry,
         order_by: Sequence[OrderItem] = ()) -> BoundSelect:
    """Resolve ``select``'s table functions, dimensions and aggregates.
    ``order_by`` is the statement's ORDER BY when ``select`` is its
    whole body (a UNION's ORDER BY reads the union's columns)."""
    calls = _first_seen(select_roots(select, group=True), TableFunctionCall)
    slots = tuple(_bind_slot(position, call)
                  for position, call in enumerate(calls.values()))
    if slots:
        select = map_select(select, _slot_mapper(slots))

    group = select.group or GroupClause()
    plain, rollup, cube = (
        tuple(alias or expr.default_name() for expr, alias in bucket)
        for bucket in (group.plain, group.rollup, group.cube))
    dims = [(expr, name) for (expr, _), name
            in zip(group.all_items(), plain + rollup + cube)]

    aggregates: list[BoundAggregate] = []
    taken = {name for _, name in dims}
    agg_calls = _first_seen(select_roots(select), AggregateCall)
    for position, call in enumerate(agg_calls.values()):
        name = call.default_name()
        if name in taken:
            name = f"{name}#{position}"
        taken.add(name)
        aggregates.append(bind_aggregate(call, registry, name))

    names = {a.key: a.name for a in aggregates}
    alias_cells = {item.alias.upper(): names[item.expression.key()]
                   for item in select.items if item.alias
                   and isinstance(item.expression, AggregateCall)}
    ungrouped: tuple[tuple[str, ...], ...] = ()
    having_ungrouped: tuple[str, ...] = ()
    order_ungrouped: tuple[str, ...] = ()
    if select.group is not None or aggregates:
        # dimensions count by output name, aggregates by output column
        ungrouped = tuple(tuple(dict.fromkeys(_loose_columns(
            item.expression, taken, alias_cells))) for item in select.items)
        # HAVING and ORDER BY may also name a select alias
        outputs = taken | {item.alias for item in select.items
                           if item.alias}
        if select.having is not None:
            having_ungrouped = tuple(dict.fromkeys(_loose_columns(
                select.having, outputs, alias_cells)))
        order_ungrouped = tuple(dict.fromkeys(
            name for item in order_by for name in _loose_columns(
                item.expression, outputs, alias_cells)))
    grouping_columns = tuple(
        node.column
        for root in [*select_roots(select),
                     *(item.expression for item in order_by)]
        for node in walk(root) if isinstance(node, GroupingCall))
    return BoundSelect(select=select, slots=slots, dims=dims, plain=plain,
                       rollup=rollup, cube=cube,
                       aggregates=tuple(aggregates),
                       alias_cells=alias_cells, ungrouped=ungrouped,
                       having_ungrouped=having_ungrouped,
                       order_ungrouped=order_ungrouped,
                       grouping_columns=grouping_columns)


def _loose_columns(expr: Any, allowed: set[str],
                   cells: dict[str, str]) -> list[str]:
    """The columns ``expr`` reads outside ``allowed``, skipping aggregate
    arguments, ``GROUPING()`` and alias-cell calls."""
    if isinstance(expr, ColumnRef):
        return [] if expr.name in allowed else [expr.name]
    if isinstance(expr, (AggregateCall, GroupingCall)) or (
            isinstance(expr, FunctionCall) and expr.name.upper() in cells):
        return []
    return [name for child in children(expr)
            for name in _loose_columns(child, allowed, cells)]
