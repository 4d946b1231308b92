"""Recursive-descent SQL parser for the paper's dialect.

The grammar (Section 3.2's extension, plus enough SQL-92 to run every
query printed in the paper)::

    statement   := select ( UNION [ALL] select )* [ORDER BY order_list] [;]
    select      := SELECT [DISTINCT] select_list
                   [FROM table_ref { JOIN table_ref (USING (cols) | ON expr) }]
                   [WHERE expr]
                   [GROUP BY group_clause]
                   [HAVING expr]
    select_list := * | item {, item}          item := expr [[AS] ident]
    group_clause:= [agg_list] [ROLLUP agg_list] [CUBE agg_list]
    agg_list    := expr [AS ident] {, expr [AS ident]}

Function-call names are resolved while parsing: aggregate registry
names become :class:`AggregateCall`, Red Brick whole-column functions
become :class:`TableFunctionCall`, ``GROUPING`` becomes
:class:`GroupingCall`, everything else a scalar
:class:`~repro.engine.expressions.FunctionCall`.
"""

from __future__ import annotations

from typing import Optional

from repro.aggregates.registry import AggregateRegistry, default_registry
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
    Literal,
    NotExpr,
)
from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    TABLE_FUNCTIONS,
    AggregateCall,
    CreateTableStmt,
    DeleteStmt,
    ExplainStmt,
    GroupClause,
    GroupingCall,
    InsertStmt,
    JoinClause,
    OrderItem,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    Star,
    Statement,
    TableFunctionCall,
    TableRef,
    UnionStmt,
    UpdateStmt,
)
from repro.sql.tokens import Token, TokenType, tokenize

__all__ = ["parse", "parse_expression", "Parser"]


class Parser:
    """One-shot parser over a token list."""

    def __init__(self, tokens: list[Token], *,
                 registry: AggregateRegistry | None = None) -> None:
        self.tokens = tokens
        self.position = 0
        self.registry = registry or default_registry

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self.position += 1
        return token

    def check_keyword(self, *names: str) -> bool:
        return self.current.is_keyword(*names)

    def accept_keyword(self, *names: str) -> bool:
        if self.check_keyword(*names):
            self.advance()
            return True
        return False

    def expect_keyword(self, name: str) -> Token:
        if not self.check_keyword(name):
            self._fail(f"expected {name}")
        return self.advance()

    def check_symbol(self, symbol: str) -> bool:
        return (self.current.type is TokenType.SYMBOL
                and self.current.value == symbol)

    def accept_symbol(self, symbol: str) -> bool:
        if self.check_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_symbol(self, symbol: str) -> Token:
        if not self.check_symbol(symbol):
            self._fail(f"expected {symbol!r}")
        return self.advance()

    def expect_ident(self) -> str:
        if self.current.type is not TokenType.IDENT:
            self._fail("expected identifier")
        return self.advance().value

    def _fail(self, message: str, token: Token | None = None) -> None:
        token = token or self.current
        raise SQLSyntaxError(f"{message}, found {token.value or 'EOF'!r}",
                             line=token.line, column=token.column)

    # -- statements -------------------------------------------------------

    def parse_any_statement(self):
        """Dispatch on the statement kind (SELECT / INSERT / DELETE /
        UPDATE / CREATE TABLE)."""
        if self.check_keyword("INSERT"):
            return self.parse_insert()
        if self.check_keyword("DELETE"):
            return self.parse_delete()
        if self.check_keyword("UPDATE"):
            return self.parse_update()
        if self.check_keyword("CREATE"):
            return self.parse_create_table()
        if self.check_keyword("EXPLAIN"):
            self.advance()
            # ANALYZE is deliberately not a reserved keyword (columns may
            # be named "analyze"); it only means something right here.
            analyze = False
            if (self.current.type is TokenType.IDENT
                    and self.current.value.upper() == "ANALYZE"):
                self.advance()
                analyze = True
            return ExplainStmt(statement=self.parse_statement(),
                               analyze=analyze)
        return self.parse_statement()

    def parse_insert(self) -> InsertStmt:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns: tuple[str, ...] = ()
        if self.check_symbol("("):
            self.advance()
            names = [self.expect_ident()]
            while self.accept_symbol(","):
                names.append(self.expect_ident())
            self.expect_symbol(")")
            columns = tuple(names)
        self.expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self.accept_symbol(","):
            rows.append(self._parse_value_row())
        self.accept_symbol(";")
        self._expect_eof()
        return InsertStmt(table=table, columns=columns, rows=rows)

    def _parse_value_row(self) -> tuple:
        self.expect_symbol("(")
        values = [self._parse_signed_literal()]
        while self.accept_symbol(","):
            values.append(self._parse_signed_literal())
        self.expect_symbol(")")
        return tuple(values)

    def _parse_signed_literal(self):
        if self.accept_symbol("-"):
            value = self.parse_literal_value()
            return -value
        return self.parse_literal_value()

    def parse_delete(self) -> DeleteStmt:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        self.accept_symbol(";")
        self._expect_eof()
        return DeleteStmt(table=table, where=where)

    def parse_update(self) -> UpdateStmt:
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_symbol(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        self.accept_symbol(";")
        self._expect_eof()
        return UpdateStmt(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> tuple[str, Expression]:
        column = self.expect_ident()
        self.expect_symbol("=")
        return (column, self.parse_expr())

    def parse_create_table(self) -> CreateTableStmt:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        table = self.expect_ident()
        self.expect_symbol("(")
        columns = [self._parse_column_def()]
        while self.accept_symbol(","):
            columns.append(self._parse_column_def())
        self.expect_symbol(")")
        self.accept_symbol(";")
        self._expect_eof()
        return CreateTableStmt(table=table, columns=columns)

    def _parse_column_def(self) -> tuple[str, str, bool]:
        name = self.expect_ident()
        type_name = self.expect_ident()
        nullable = True
        if self.accept_keyword("NOT"):
            self.expect_keyword("NULL")
            nullable = False
        return (name, type_name, nullable)

    def _expect_eof(self) -> None:
        if self.current.type is not TokenType.EOF:
            self._fail("unexpected trailing input")

    def parse_statement(self) -> Statement:
        selects = [self.parse_select()]
        all_flags: list[bool] = []
        while self.accept_keyword("UNION"):
            all_flags.append(self.accept_keyword("ALL"))
            selects.append(self.parse_select())
        order_by: list[OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.parse_order_list()
        self.accept_symbol(";")
        if self.current.type is not TokenType.EOF:
            self._fail("unexpected trailing input")
        if len(selects) == 1:
            return Statement(body=selects[0], order_by=order_by)
        return Statement(body=UnionStmt(selects=selects, all_flags=all_flags),
                         order_by=order_by)

    def parse_select(self) -> SelectStmt:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = self.parse_select_list()
        table: Optional[TableRef] = None
        joins: list[JoinClause] = []
        if self.accept_keyword("FROM"):
            table = self.parse_table_ref()
            while self.accept_keyword("JOIN"):
                joined = self.parse_table_ref()
                if self.accept_keyword("USING"):
                    self.expect_symbol("(")
                    columns = [self.expect_ident()]
                    while self.accept_symbol(","):
                        columns.append(self.expect_ident())
                    self.expect_symbol(")")
                    joins.append(JoinClause(table=joined,
                                            using=tuple(columns)))
                elif self.accept_keyword("ON"):
                    joins.append(JoinClause(table=joined,
                                            on=self.parse_expr()))
                else:
                    self._fail("expected USING or ON after JOIN")
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group: Optional[GroupClause] = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group = self.parse_group_clause()
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        return SelectStmt(items=items, table=table, joins=joins, where=where,
                          group=group, having=having, distinct=distinct)

    def parse_table_ref(self) -> TableRef:
        # CUBE / ROLLUP are keywords but legal table names (the paper's
        # Section 4 example queries a table literally called "cube")
        if self.check_keyword("CUBE", "ROLLUP"):
            name = self.advance().value.lower()
        else:
            name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.type is TokenType.IDENT:
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def parse_select_list(self) -> list[SelectItem]:
        items: list[SelectItem] = []
        while True:
            if self.check_symbol("*"):
                self.advance()
                items.append(SelectItem(expression=Star()))
            else:
                expr = self.parse_expr()
                alias = None
                if self.accept_keyword("AS"):
                    alias = self.expect_ident()
                elif self.current.type is TokenType.IDENT:
                    alias = self.advance().value
                items.append(SelectItem(expression=expr, alias=alias))
            if not self.accept_symbol(","):
                break
        return items

    def parse_group_clause(self) -> GroupClause:
        """``[<plain>] [ROLLUP <list>] [CUBE <list>]``; commas between the
        clause kinds (as the Figure 5 query writes them) are tolerated."""
        clause = GroupClause()
        bucket = clause.plain
        while True:
            if self.check_keyword("ROLLUP"):
                self.advance()
                bucket = clause.rollup
            elif self.check_keyword("CUBE"):
                self.advance()
                bucket = clause.cube
            bucket.append(self.parse_group_item())
            if self.accept_symbol(","):
                continue
            if self.check_keyword("ROLLUP", "CUBE"):
                continue
            break
        if clause.is_empty():
            self._fail("empty GROUP BY clause")
        return clause

    def parse_group_item(self) -> tuple[Expression, Optional[str]]:
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        return (expr, alias)

    def parse_order_list(self) -> list[OrderItem]:
        items = [self.parse_order_item()]
        while self.accept_symbol(","):
            items.append(self.parse_order_item())
        return items

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expression=expr, descending=descending)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        left = self.parse_and()
        operands = [left]
        while self.accept_keyword("OR"):
            operands.append(self.parse_and())
        if len(operands) == 1:
            return left
        return BooleanExpr("OR", operands)

    def parse_and(self) -> Expression:
        left = self.parse_not()
        operands = [left]
        while self.accept_keyword("AND"):
            operands.append(self.parse_not())
        if len(operands) == 1:
            return left
        return BooleanExpr("AND", operands)

    def parse_not(self) -> Expression:
        if self.accept_keyword("NOT"):
            return NotExpr(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> Expression:
        left = self.parse_additive()
        token = self.current
        if token.type is TokenType.SYMBOL and token.value in (
                "=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self.parse_additive()
            return Comparison(token.value, left, right)
        negated = False
        if self.check_keyword("NOT"):
            # NOT IN / NOT BETWEEN / NOT LIKE
            lookahead = self.tokens[self.position + 1]
            if lookahead.is_keyword("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
        if self.accept_keyword("IN"):
            values = self.parse_value_set()
            expr: Expression = InList(left, values)
            return NotExpr(expr) if negated else expr
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            expr = Between(left, low, high)
            return NotExpr(expr) if negated else expr
        if self.accept_keyword("LIKE"):
            pattern_token = self.current
            if pattern_token.type is not TokenType.STRING:
                self._fail("LIKE expects a string pattern")
            self.advance()
            return LikeExpr(left, pattern_token.value, negated=negated)
        if self.accept_keyword("IS"):
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(left, negated=is_negated)
        return left

    def parse_value_set(self) -> list:
        """``IN`` list: parenthesized, or the paper's brace form
        ``IN {'Ford', 'Chevy'}``."""
        if self.accept_symbol("{"):
            closer = "}"
        elif self.accept_symbol("("):
            closer = ")"
        else:
            self._fail("expected ( or { after IN")
        values = [self.parse_literal_value()]
        while self.accept_symbol(","):
            values.append(self.parse_literal_value())
        self.expect_symbol(closer)
        return values

    def parse_literal_value(self):
        token = self.current
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.type is TokenType.NUMBER:
            self.advance()
            return _number(token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return None
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        self._fail("expected a literal value")

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while self.current.type is TokenType.SYMBOL \
                and self.current.value in ("+", "-"):
            op = self.advance().value
            left = Arithmetic(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while self.current.type is TokenType.SYMBOL \
                and self.current.value in ("*", "/", "%"):
            op = self.advance().value
            left = Arithmetic(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expression:
        if self.check_symbol("-"):
            self.advance()
            return Arithmetic("-", Literal(0), self.parse_unary())
        if self.check_symbol("+"):
            self.advance()
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            return Literal(_number(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.is_keyword("ALL"):
            # the ALL value as a coordinate literal -- the Section 4
            # shorthand `total(ALL, ALL, ALL)` addresses the global cell
            from repro.types import ALL as ALL_VALUE
            self.advance()
            return Literal(ALL_VALUE)
        if token.is_keyword("CASE"):
            return self.parse_case()
        if self.check_symbol("("):
            self.advance()
            if self.check_keyword("SELECT"):
                subquery = self.parse_select()
                # allow UNIONs inside scalar subqueries
                selects = [subquery]
                all_flags: list[bool] = []
                while self.accept_keyword("UNION"):
                    all_flags.append(self.accept_keyword("ALL"))
                    selects.append(self.parse_select())
                self.expect_symbol(")")
                if len(selects) == 1:
                    body: "SelectStmt | UnionStmt" = selects[0]
                else:
                    body = UnionStmt(selects=selects, all_flags=all_flags)
                return ScalarSubquery(Statement(body=body))
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.type is TokenType.IDENT:
            return self.parse_identifier_expression()
        self._fail("expected an expression")

    def parse_case(self) -> Expression:
        self.expect_keyword("CASE")
        branches = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expr()
            self.expect_keyword("THEN")
            value = self.parse_expr()
            branches.append((condition, value))
        default = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        if not branches:
            self._fail("CASE needs at least one WHEN")
        return CaseExpr(branches, default)

    def parse_identifier_expression(self) -> Expression:
        name = self.expect_ident()
        if self.accept_symbol("."):
            # qualified column: the qualifier is dropped after FROM-
            # resolution (USING-style joins surface unqualified names)
            column = self.expect_ident()
            return ColumnRef(column)
        if not self.check_symbol("("):
            return ColumnRef(name)
        return self.parse_call(name)

    def parse_call(self, name: str) -> Expression:
        self.expect_symbol("(")
        upper = name.upper()

        if upper == "GROUPING":
            column = self.expect_ident()
            self.expect_symbol(")")
            return GroupingCall(column)

        distinct = self.accept_keyword("DISTINCT")

        if self.check_symbol("*"):
            self.advance()
            self.expect_symbol(")")
            return AggregateCall(upper, "*", distinct=distinct)

        # aggregates and table functions take literal extra arguments
        literal_tail = distinct or upper in TABLE_FUNCTIONS \
            or upper in self.registry
        args: list[Expression] = []
        extra: list = []
        if not self.check_symbol(")"):
            args.append(self.parse_expr())
            while self.accept_symbol(","):
                if literal_tail:
                    extra.append(self._literal_value(upper))
                else:
                    args.append(self.parse_expr())
        self.expect_symbol(")")

        if upper in TABLE_FUNCTIONS:
            if not args:
                self._fail(f"{name} needs an argument")
            return TableFunctionCall(upper, args[0], extra_args=tuple(extra))
        if upper in self.registry or distinct:
            if not args:
                self._fail(f"aggregate {name} needs an argument or *")
            return AggregateCall(upper, args[0], distinct=distinct,
                                 extra_args=tuple(extra))
        return FunctionCall(name, args)

    def _literal_value(self, name: str):
        """A literal argument's value; a negated number counts."""
        token = self.current
        negate = self.accept_symbol("-")
        arg = self.parse_unary()
        if not isinstance(arg, Literal) or (
                negate and type(arg.value) not in (int, float)):
            self._fail(f"{name} extra arguments must be literals", token)
        return -arg.value if negate else arg.value


def _number(text: str) -> int | float:
    if "." in text:
        return float(text)
    return int(text)


def parse(sql: str, *, registry: AggregateRegistry | None = None) -> Statement:
    """Parse one SELECT statement (possibly a UNION with ORDER BY)."""
    return Parser(tokenize(sql), registry=registry).parse_statement()


def parse_any(sql: str, *, registry: AggregateRegistry | None = None):
    """Parse any supported statement: SELECT, INSERT, DELETE, UPDATE,
    or CREATE TABLE."""
    return Parser(tokenize(sql), registry=registry).parse_any_statement()


def parse_expression(sql: str, *,
                     registry: AggregateRegistry | None = None) -> Expression:
    """Parse a standalone scalar expression (used by tests and tools)."""
    parser = Parser(tokenize(sql), registry=registry)
    expr = parser.parse_expr()
    if parser.current.type is not TokenType.EOF:
        parser._fail("unexpected trailing input")
    return expr
