"""SQL AST.

Statement-level nodes are plain dataclasses.  Scalar expressions reuse
the engine's :class:`~repro.engine.expressions.Expression` tree
directly, extended with three SQL-only node kinds that the planner must
rewrite before evaluation:

- :class:`AggregateCall` -- ``SUM(x)``, ``COUNT(*)``, ``COUNT(DISTINCT
  x)``...; becomes a reference to a grouped output column;
- :class:`GroupingCall` -- the paper's ``GROUPING(col)`` (Section 3.4);
- :class:`TableFunctionCall` -- Red Brick's whole-column functions
  (``N_tile``, ``Rank``, ``Ratio_To_Total``, ``Cumulative``,
  ``Running_Sum``, ``Running_Average``); becomes a precomputed derived
  column;
- :class:`ScalarSubquery` -- an uncorrelated ``(SELECT ...)`` used as a
  value (the Section 4 percent-of-total query); evaluated at plan time.

Evaluating any of these directly raises, which turns "planner forgot a
rewrite" bugs into loud failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.aggregates import redbrick
from repro.engine.expressions import Expression
from repro.errors import SQLPlanError

__all__ = [
    "AggregateCall",
    "GroupingCall",
    "TableFunctionCall",
    "ScalarSubquery",
    "SelectItem",
    "Star",
    "TableRef",
    "JoinClause",
    "GroupClause",
    "OrderItem",
    "SelectStmt",
    "UnionStmt",
    "Statement",
    "InsertStmt",
    "DeleteStmt",
    "UpdateStmt",
    "CreateTableStmt",
    "ExplainStmt",
]

#: Red Brick whole-column functions: name -> (implementation, whether
#: the call's first extra argument is the integer ``n``)
TABLE_FUNCTIONS: dict[str, tuple[Callable[..., list], bool]] = {
    "RANK": (redbrick.rank, False),
    "N_TILE": (redbrick.n_tile, True),
    "NTILE": (redbrick.n_tile, True),
    "RATIO_TO_TOTAL": (redbrick.ratio_to_total, False),
    "CUMULATIVE": (redbrick.cumulative, False),
    "RUNNING_SUM": (redbrick.running_sum, True),
    "RUNNING_AVERAGE": (redbrick.running_average, True),
}


class _Unevaluable(Expression):
    """Base for SQL-only expression nodes the planner must rewrite."""

    def evaluate(self, row) -> Any:
        raise SQLPlanError(
            f"{type(self).__name__} must be rewritten by the planner "
            "before evaluation")


class AggregateCall(_Unevaluable):
    """An aggregate-function call in a select list or HAVING clause."""

    __slots__ = ("name", "argument", "distinct", "extra_args")

    def __init__(self, name: str, argument: "Expression | str",
                 distinct: bool = False,
                 extra_args: tuple = ()) -> None:
        self.name = name.upper()
        self.argument = argument  # Expression or "*"
        self.distinct = distinct
        self.extra_args = extra_args

    def references(self) -> frozenset[str]:
        if self.argument == "*":
            return frozenset()
        return self.argument.references()

    def default_name(self) -> str:
        if self.argument == "*":
            inner = "*"
        else:
            inner = self.argument.default_name()
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{inner})"

    def key(self) -> tuple:
        """Structural identity so identical calls share one computed
        column (``SUM(Sales)`` used twice is computed once)."""
        arg = self.argument if isinstance(self.argument, str) \
            else repr(self.argument)
        return (self.name, arg, self.distinct, self.extra_args)

    def __repr__(self) -> str:
        return self.default_name()


class GroupingCall(_Unevaluable):
    """``GROUPING(column)`` (Section 3.4)."""

    __slots__ = ("column",)

    def __init__(self, column: str) -> None:
        self.column = column

    def references(self) -> frozenset[str]:
        return frozenset((self.column,))

    def default_name(self) -> str:
        return f"GROUPING({self.column})"

    def __repr__(self) -> str:
        return self.default_name()


class TableFunctionCall(_Unevaluable):
    """A Red Brick whole-column function call (Section 1.2)."""

    __slots__ = ("name", "argument", "extra_args")

    def __init__(self, name: str, argument: Expression,
                 extra_args: tuple = ()) -> None:
        self.name = name.upper()
        self.argument = argument
        self.extra_args = extra_args

    def references(self) -> frozenset[str]:
        return self.argument.references()

    def default_name(self) -> str:
        parts = [self.argument.default_name()]
        parts.extend(str(a) for a in self.extra_args)
        return f"{self.name}({', '.join(parts)})"

    def key(self) -> tuple:
        return (self.name, repr(self.argument), self.extra_args)

    def __repr__(self) -> str:
        return self.default_name()


class ScalarSubquery(_Unevaluable):
    """An uncorrelated subquery used as a scalar value."""

    __slots__ = ("statement",)

    def __init__(self, statement: "Statement") -> None:
        self.statement = statement

    def references(self) -> frozenset[str]:
        return frozenset()

    def default_name(self) -> str:
        return "(subquery)"

    def __repr__(self) -> str:
        return "ScalarSubquery(...)"


@dataclass
class Star:
    """``SELECT *``."""


@dataclass
class SelectItem:
    expression: "Expression | Star"
    alias: Optional[str] = None


@dataclass
class TableRef:
    name: str
    alias: Optional[str] = None


@dataclass
class JoinClause:
    table: TableRef
    using: tuple[str, ...] = ()
    on: Optional[Expression] = None


@dataclass
class GroupClause:
    """The Section 3.2 grouping clause: plain + ROLLUP + CUBE lists.

    Each entry is ``(expression, alias or None)``; aliases name the
    output columns (``Day(Time) AS day``).
    """

    plain: list[tuple[Expression, Optional[str]]] = field(default_factory=list)
    rollup: list[tuple[Expression, Optional[str]]] = field(default_factory=list)
    cube: list[tuple[Expression, Optional[str]]] = field(default_factory=list)

    def all_items(self) -> list[tuple[Expression, Optional[str]]]:
        return list(self.plain) + list(self.rollup) + list(self.cube)

    def is_empty(self) -> bool:
        return not (self.plain or self.rollup or self.cube)


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass
class SelectStmt:
    items: list[SelectItem]
    table: Optional[TableRef] = None
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[Expression] = None
    group: Optional[GroupClause] = None
    having: Optional[Expression] = None
    distinct: bool = False


@dataclass
class UnionStmt:
    """``select UNION [ALL] select ...`` with a trailing ORDER BY."""

    selects: list[SelectStmt]
    all_flags: list[bool]  # all_flags[i]: UNION ALL between select i and i+1


@dataclass
class Statement:
    """A full statement: the select/union body plus final ORDER BY."""

    body: "SelectStmt | UnionStmt"
    order_by: list[OrderItem] = field(default_factory=list)


@dataclass
class InsertStmt:
    """``INSERT INTO t [(cols)] VALUES (...), (...)``.

    Section 6's maintenance scenario is driven through these: inserts
    made via SQL fire the catalog triggers that keep materialized cubes
    fresh.
    """

    table: str
    columns: tuple[str, ...]  # empty = positional
    rows: list[tuple]


@dataclass
class DeleteStmt:
    """``DELETE FROM t [WHERE expr]``."""

    table: str
    where: Optional[Expression] = None


@dataclass
class UpdateStmt:
    """``UPDATE t SET col = expr, ... [WHERE expr]`` -- executed as
    DELETE + INSERT per row, exactly how Section 6 defines update."""

    table: str
    assignments: list[tuple[str, Expression]]
    where: Optional[Expression] = None


@dataclass
class CreateTableStmt:
    """``CREATE TABLE t (col TYPE [NOT NULL], ...)``."""

    table: str
    columns: list[tuple[str, str, bool]]  # (name, type name, nullable)


@dataclass
class ExplainStmt:
    """``EXPLAIN SELECT ...``: the plan, not the rows.

    Section 2's complaint about the union-of-GROUP-BYs workaround is
    that "the resulting representation of aggregation is too complex to
    analyze for optimization"; a first-class CUBE clause makes the plan
    analyzable, and EXPLAIN shows it: the grouping specification, the
    grouping-set count, the chosen algorithm with its rationale, and
    the estimated result size.

    With ``analyze=True`` (``EXPLAIN ANALYZE ...``) the statement is
    actually executed under a tracer and the rendered span tree -- wall
    clock per step plus the machine-independent
    :class:`~repro.compute.stats.ComputeStats` counters -- is returned
    instead of the static plan.
    """

    statement: "Statement"
    analyze: bool = False
