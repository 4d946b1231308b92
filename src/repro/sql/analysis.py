"""Static analysis over parsed SQL -- the counting used to reproduce
Table 2 ("SQL Aggregates in Standard Benchmarks").

The paper counted, for each benchmark's query set, how many aggregate
function invocations and how many GROUP BY clauses appear.  These
helpers walk our AST and produce the same counts for any statement.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.expressions import (
    Arithmetic,
    Between,
    BooleanExpr,
    CaseExpr,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LikeExpr,
    NotExpr,
)
from repro.sql.ast_nodes import (
    AggregateCall,
    ScalarSubquery,
    SelectStmt,
    Star,
    Statement,
    TableFunctionCall,
    UnionStmt,
)

__all__ = ["count_aggregates", "count_group_bys", "iter_statements",
           "iter_selects", "iter_expressions", "iter_aggregate_calls",
           "children", "walk"]


def iter_statements(statement: Statement) -> Iterator[Statement]:
    """This statement plus every scalar-subquery statement nested
    anywhere inside it -- select clauses *and* ORDER BY keys --
    depth-first."""
    yield statement
    for expr in _statement_expressions(statement):
        for node in walk(expr):
            if isinstance(node, ScalarSubquery):
                yield from iter_statements(node.statement)


def iter_selects(statement: Statement) -> Iterator[SelectStmt]:
    """Every SELECT in a statement, including UNION branches and scalar
    subqueries (depth-first)."""
    for nested in iter_statements(statement):
        body = nested.body
        if isinstance(body, UnionStmt):
            yield from body.selects
        else:
            yield body


def _statement_expressions(statement: Statement) -> Iterator[Expression]:
    """Top-level expression roots: every SELECT clause in the body plus
    the statement-level ORDER BY keys (aggregates are legal there, e.g.
    ``ORDER BY SUM(Units) DESC``, so Table 2 counts must see them)."""
    body = statement.body
    selects = body.selects if isinstance(body, UnionStmt) else [body]
    for select in selects:
        yield from _select_expressions(select)
    for item in statement.order_by:
        yield item.expression


def _select_expressions(select: SelectStmt) -> Iterator[Expression]:
    for item in select.items:
        if not isinstance(item.expression, Star):
            yield item.expression
    if select.where is not None:
        yield select.where
    if select.group is not None:
        for expr, _ in select.group.all_items():
            yield expr
    if select.having is not None:
        yield select.having
    for join in select.joins:
        if join.on is not None:
            yield join.on


def children(expr: Expression) -> list[Expression]:
    """A node's direct sub-expressions, aggregate and table-function
    arguments included (a subquery is a leaf)."""
    if isinstance(expr, (Arithmetic, Comparison)):
        return [expr.left, expr.right]
    if isinstance(expr, BooleanExpr):
        return list(expr.operands)
    if isinstance(expr, (NotExpr, InList, IsNull, LikeExpr)):
        return [expr.operand]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, CaseExpr):
        out = [node for branch in expr.branches for node in branch]
        return out + ([expr.default] if expr.default is not None else [])
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, AggregateCall) \
            and not isinstance(expr.argument, str):  # "*"
        return [expr.argument]
    if isinstance(expr, TableFunctionCall):
        return [expr.argument]
    return []


def walk(expr: Expression) -> Iterator[Expression]:
    """Every node of ``expr``, pre-order, through :func:`children`."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def iter_expressions(statement: Statement) -> Iterator[Expression]:
    for nested in iter_statements(statement):
        for expr in _statement_expressions(nested):
            yield from walk(expr)


def iter_aggregate_calls(statement: Statement) -> Iterator[AggregateCall]:
    for expr in iter_expressions(statement):
        if isinstance(expr, AggregateCall):
            yield expr


def count_aggregates(statement: Statement) -> int:
    """Aggregate-function invocations in the statement (Table 2's
    "Aggregates" column)."""
    return sum(1 for _ in iter_aggregate_calls(statement))


def count_group_bys(statement: Statement) -> int:
    """GROUP BY clauses in the statement (Table 2's "GROUP BYs"
    column)."""
    return sum(1 for select in iter_selects(statement)
               if select.group is not None)
