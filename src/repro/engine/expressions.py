"""Scalar expression trees.

Expressions are evaluated against a *row context*: a mapping from column
name to value.  They power WHERE predicates, computed grouping columns
("histograms over computed categories", Section 2 -- e.g.
``Day(Time) AS day``), aggregate inputs, and decorations.

NULL and ALL propagate through arithmetic and comparisons the SQL way:
any operation touching a non-value yields NULL (three-valued logic is
collapsed to "NULL is not true" at predicate boundaries).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ExpressionError
from repro.types import ALL, is_null_or_all, sort_key

if TYPE_CHECKING:
    from repro.engine.schema import Schema

__all__ = [
    "Expression",
    "ColumnRef",
    "column_position",
    "Literal",
    "Arithmetic",
    "Comparison",
    "BooleanExpr",
    "NotExpr",
    "FunctionCall",
    "InList",
    "Between",
    "IsNull",
    "CaseExpr",
    "ScalarFunctionRegistry",
    "scalar_functions",
    "col",
    "lit",
]

RowContext = Mapping[str, Any]


class Expression:
    """Base class for scalar expressions."""

    def evaluate(self, row: RowContext) -> Any:
        raise NotImplementedError

    def references(self) -> frozenset[str]:
        """Column names this expression reads."""
        raise NotImplementedError

    def default_name(self) -> str:
        """Name used for the output column when no alias is given."""
        return repr(self)

    # sugar -------------------------------------------------------------

    def __add__(self, other: "Expression | Any") -> "Arithmetic":
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other: "Expression | Any") -> "Arithmetic":
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other: "Expression | Any") -> "Arithmetic":
        return Arithmetic("*", self, _wrap(other))

    def __truediv__(self, other: "Expression | Any") -> "Arithmetic":
        return Arithmetic("/", self, _wrap(other))

    def eq(self, other: "Expression | Any") -> "Comparison":
        return Comparison("=", self, _wrap(other))

    def ne(self, other: "Expression | Any") -> "Comparison":
        return Comparison("<>", self, _wrap(other))

    def lt(self, other: "Expression | Any") -> "Comparison":
        return Comparison("<", self, _wrap(other))

    def le(self, other: "Expression | Any") -> "Comparison":
        return Comparison("<=", self, _wrap(other))

    def gt(self, other: "Expression | Any") -> "Comparison":
        return Comparison(">", self, _wrap(other))

    def ge(self, other: "Expression | Any") -> "Comparison":
        return Comparison(">=", self, _wrap(other))

    def is_in(self, values: Iterable[Any]) -> "InList":
        return InList(self, list(values))

    def between(self, low: Any, high: Any) -> "Between":
        return Between(self, _wrap(low), _wrap(high))

    def and_(self, other: "Expression") -> "BooleanExpr":
        return BooleanExpr("AND", [self, other])

    def or_(self, other: "Expression") -> "BooleanExpr":
        return BooleanExpr("OR", [self, other])

    def negate(self) -> "NotExpr":
        return NotExpr(self)


def _wrap(value: Any) -> Expression:
    return value if isinstance(value, Expression) else Literal(value)


class ColumnRef(Expression):
    """Reference to a named column in the row context."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, row: RowContext) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise ExpressionError(
                f"column {self.name!r} not present in row context "
                f"(have {sorted(row)})") from None

    def references(self) -> frozenset[str]:
        return frozenset((self.name,))

    def default_name(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


def column_position(expr: Any, schema: "Schema") -> int | None:
    """Where ``expr`` reads its value verbatim: the position of the
    column a plain :class:`ColumnRef` names in ``schema``, or None for
    anything that computes (including a reference to a missing column,
    whose evaluation raises)."""
    if isinstance(expr, ColumnRef) and expr.name in schema:
        return schema.index_of(expr.name)
    return None


class Literal(Expression):
    """A constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def evaluate(self, row: RowContext) -> Any:
        return self.value

    def references(self) -> frozenset[str]:
        return frozenset()

    def default_name(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


class Arithmetic(Expression):
    """Binary arithmetic with SQL NULL propagation."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: RowContext) -> Any:
        lhs = self.left.evaluate(row)
        rhs = self.right.evaluate(row)
        if is_null_or_all(lhs) or is_null_or_all(rhs):
            return None
        try:
            return _ARITH_OPS[self.op](lhs, rhs)
        except ZeroDivisionError:
            return None
        except TypeError as exc:
            raise ExpressionError(
                f"cannot evaluate {lhs!r} {self.op} {rhs!r}") from exc

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()

    def default_name(self) -> str:
        return f"({self.left.default_name()}{self.op}{self.right.default_name()})"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Comparison(Expression):
    """Binary comparison; NULL/ALL operands yield NULL (unknown).

    Per Section 3.3 the set interpretation guides ``=`` on ALL: ALL
    equals only ALL.  We special-case equality so ``col = ALL`` works in
    cube-addressing predicates; ordering comparisons treat ALL like NULL.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: RowContext) -> Any:
        lhs = self.left.evaluate(row)
        rhs = self.right.evaluate(row)
        if self.op in ("=", "<>", "!="):
            if lhs is ALL or rhs is ALL:
                result = lhs is rhs
                return result if self.op == "=" else not result
            if lhs is None or rhs is None:
                return None
            return _CMP_OPS[self.op](lhs, rhs)
        if is_null_or_all(lhs) or is_null_or_all(rhs):
            return None
        if type(lhs) is not type(rhs) and not (
                isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))):
            return _CMP_OPS[self.op](sort_key(lhs), sort_key(rhs))
        return _CMP_OPS[self.op](lhs, rhs)

    def references(self) -> frozenset[str]:
        return self.left.references() | self.right.references()

    def default_name(self) -> str:
        return f"({self.left.default_name()}{self.op}{self.right.default_name()})"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanExpr(Expression):
    """N-ary AND / OR with three-valued logic."""

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: Sequence[Expression]) -> None:
        if op not in ("AND", "OR"):
            raise ExpressionError(f"unknown boolean operator {op!r}")
        if not operands:
            raise ExpressionError(f"{op} needs at least one operand")
        self.op = op
        self.operands = list(operands)

    def evaluate(self, row: RowContext) -> Any:
        saw_null = False
        for operand in self.operands:
            value = operand.evaluate(row)
            if value is None:
                saw_null = True
            elif self.op == "AND" and not value:
                return False
            elif self.op == "OR" and value:
                return True
        if saw_null:
            return None
        return self.op == "AND"

    def references(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for operand in self.operands:
            out |= operand.references()
        return out

    def __repr__(self) -> str:
        inner = f" {self.op} ".join(repr(o) for o in self.operands)
        return f"({inner})"


class NotExpr(Expression):
    __slots__ = ("operand",)

    def __init__(self, operand: Expression) -> None:
        self.operand = operand

    def evaluate(self, row: RowContext) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return not value

    def references(self) -> frozenset[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


class InList(Expression):
    __slots__ = ("operand", "values")

    def __init__(self, operand: Expression, values: Sequence[Any]) -> None:
        self.operand = operand
        self.values = list(values)

    def evaluate(self, row: RowContext) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return value in self.values

    def references(self) -> frozenset[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"{self.operand!r} IN {self.values!r}"


class Between(Expression):
    __slots__ = ("operand", "low", "high")

    def __init__(self, operand: Expression, low: Expression,
                 high: Expression) -> None:
        self.operand = operand
        self.low = low
        self.high = high

    def evaluate(self, row: RowContext) -> Any:
        value = self.operand.evaluate(row)
        low = self.low.evaluate(row)
        high = self.high.evaluate(row)
        if is_null_or_all(value) or is_null_or_all(low) or is_null_or_all(high):
            return None
        return low <= value <= high

    def references(self) -> frozenset[str]:
        return (self.operand.references() | self.low.references()
                | self.high.references())

    def __repr__(self) -> str:
        return f"{self.operand!r} BETWEEN {self.low!r} AND {self.high!r}"


class LikeExpr(Expression):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (any one char)."""

    __slots__ = ("operand", "pattern", "negated", "_compiled")

    def __init__(self, operand: Expression, pattern: str, *,
                 negated: bool = False) -> None:
        import re
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        regex = "".join(
            ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
            for ch in pattern)
        self._compiled = re.compile(f"^{regex}$", re.DOTALL)

    def evaluate(self, row: RowContext) -> Any:
        value = self.operand.evaluate(row)
        if is_null_or_all(value):
            return None
        result = self._compiled.match(str(value)) is not None
        return not result if self.negated else result

    def references(self) -> frozenset[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        negation = "NOT " if self.negated else ""
        return f"{self.operand!r} {negation}LIKE {self.pattern!r}"


class IsNull(Expression):
    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expression, *, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def evaluate(self, row: RowContext) -> Any:
        result = self.operand.evaluate(row) is None
        return not result if self.negated else result

    def references(self) -> frozenset[str]:
        return self.operand.references()

    def __repr__(self) -> str:
        return f"{self.operand!r} IS {'NOT ' if self.negated else ''}NULL"


class CaseExpr(Expression):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    __slots__ = ("branches", "default")

    def __init__(self, branches: Sequence[tuple[Expression, Expression]],
                 default: Expression | None = None) -> None:
        if not branches:
            raise ExpressionError("CASE needs at least one WHEN branch")
        self.branches = list(branches)
        self.default = default

    def evaluate(self, row: RowContext) -> Any:
        for condition, value in self.branches:
            if condition.evaluate(row) is True:
                return value.evaluate(row)
        if self.default is not None:
            return self.default.evaluate(row)
        return None

    def references(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for condition, value in self.branches:
            out |= condition.references() | value.references()
        if self.default is not None:
            out |= self.default.references()
        return out

    def __repr__(self) -> str:
        return f"CASE({len(self.branches)} branches)"


class ScalarFunctionRegistry:
    """Named scalar functions usable in expressions and SQL text.

    The paper's histogram examples rely on functions over grouping
    columns -- ``Day(Time)``, ``Nation(Latitude, Longitude)`` -- which the
    SQL front-end resolves through this registry.  Names are
    case-insensitive, as in SQL.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[..., Any]] = {}

    def register(self, name: str, fn: Callable[..., Any], *,
                 replace: bool = False) -> None:
        key = name.upper()
        if key in self._functions and not replace:
            raise ExpressionError(f"scalar function {name!r} already registered")
        self._functions[key] = fn

    def get(self, name: str) -> Callable[..., Any]:
        try:
            return self._functions[name.upper()]
        except KeyError:
            raise ExpressionError(f"unknown scalar function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)


#: Process-wide default registry; `repro.sql.functions` populates it.
scalar_functions = ScalarFunctionRegistry()


class FunctionCall(Expression):
    """Call to a registered scalar function; NULL/ALL args yield NULL."""

    __slots__ = ("name", "args", "registry", "propagate_null")

    def __init__(self, name: str, args: Sequence[Expression], *,
                 registry: ScalarFunctionRegistry | None = None,
                 propagate_null: bool = True) -> None:
        self.name = name
        self.args = list(args)
        self.registry = registry if registry is not None else scalar_functions
        self.propagate_null = propagate_null

    def evaluate(self, row: RowContext) -> Any:
        fn = self.registry.get(self.name)
        values = [arg.evaluate(row) for arg in self.args]
        if self.propagate_null and any(is_null_or_all(v) for v in values):
            return None
        return fn(*values)

    def references(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for arg in self.args:
            out |= arg.references()
        return out

    def default_name(self) -> str:
        inner = ",".join(a.default_name() for a in self.args)
        return f"{self.name}({inner})"

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(repr(a) for a in self.args)})"


def col(name: str) -> ColumnRef:
    """Shorthand constructor: ``col('Model')``."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand constructor: ``lit(1994)``."""
    return Literal(value)
