"""SQL clause-set parser and normalizer for structural query comparison.

Covers the SELECT-class grammar used by the Spider benchmark: joins (with
ON conditions), WHERE / GROUP BY / HAVING / ORDER BY / LIMIT, aggregation
with DISTINCT, one binary arithmetic step per expression, nested subqueries
as comparison values, and INTERSECT / UNION / EXCEPT chains. Window
functions, CTEs, and vendor extensions are out of scope and raise
:class:`~gtr.errors.ParseError` (byte offset plus the expected-token set).
Tokens come from :mod:`gtr.sqllex`, so ``--`` and ``/* */`` comments are
accepted anywhere; backtick- and bracket-quoted identifiers are rejected.

Normal form produced by :func:`parse_sql`:

* identifiers lowercased;
* table aliases substituted by their target table names (``T1.name`` with
  ``FROM singer AS T1`` becomes ``singer.name``); unqualified columns stay
  unqualified;
* every literal replaced by the placeholder ``VALUE``;
* ``<>`` rewritten to ``!=``; an aggregate wrapping a lone column is lifted
  into the select term's own aggregate slot.

Clauses live in frozen sets (ORDER BY stays an ordered list), so two
queries are structurally equal exactly when their :class:`ClauseSets`
compare equal. OR-connector counts are carried for difficulty scoring but
excluded from equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ParseError
from ..sqllex import Token, tokenize, unterminated

VALUE = "VALUE"

AGG_FUNCS = ("max", "min", "count", "sum", "avg")

_ARITH = ("+", "-", "*", "/")
_COMPARE = ("=", ">", "<", ">=", "<=", "!=", "<>")

_RESERVED = frozenset(
    """select from where group by having order limit union intersect except
    join on as and or not in like between is exists null distinct asc desc
    inner left right full outer cross""".split()
)

# ---------------------------------------------------------------------------
# Normalized term types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    table: str | None
    name: str


@dataclass(frozen=True)
class ColumnTerm:
    agg: str  # "" or one of AGG_FUNCS
    distinct: bool
    ref: ColumnRef


@dataclass(frozen=True)
class ValExpr:
    op: str  # "" or one of + - * /
    left: ColumnTerm
    right: ColumnTerm | None


@dataclass(frozen=True)
class SelectTerm:
    agg: str
    distinct: bool
    expr: ValExpr


@dataclass(frozen=True)
class Predicate:
    negated: bool
    op: str  # = > < >= <= != in like between is exists
    lhs: ValExpr | None  # None only for exists
    rhs: object  # VALUE | ValExpr | ClauseSets | None
    rhs2: object = None  # second BETWEEN bound


@dataclass(frozen=True)
class ClauseSets:
    select: frozenset
    select_distinct: bool
    from_tables: frozenset  # table names and nested ClauseSets
    join_conditions: frozenset
    where: frozenset
    group_by: frozenset
    having: frozenset
    order_by: tuple  # ((ValExpr, "asc"/"desc"), ...)
    limit: bool
    set_op: tuple | None  # (operator, ClauseSets)
    or_count: int = field(default=0, compare=False)

    @property
    def subqueries(self) -> tuple:
        """Nested queries used as comparison values: those of the join
        conditions, then WHERE, then HAVING, each clause's in set order."""
        return tuple(
            value
            for bucket in (self.join_conditions, self.where, self.having)
            for pred in bucket
            for value in (pred.rhs, pred.rhs2)
            if isinstance(value, ClauseSets)
        )


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


def _tokens(text: str) -> list[Token]:
    """The text's tokens plus an end marker; a token the grammar has no use
    for fails here, before parsing starts."""
    toks = []
    for tok in tokenize(text):
        if tok.kind == "str" and unterminated(tok):
            raise ParseError("unterminated string literal", _byte_offset(text, tok.pos))
        if tok.kind in ("qid", "other") or tok.text in ("||", "%"):
            raise ParseError(
                f"unexpected character {tok.text[0]!r}", _byte_offset(text, tok.pos)
            )
        toks.append(tok)
    toks.append(Token("end", "", len(text)))
    return toks


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


# ---------------------------------------------------------------------------
# Raw (pre-resolution) query
# ---------------------------------------------------------------------------


class _RawQuery:
    def __init__(self):
        self.select_distinct = False
        self.select: list[SelectTerm] = []
        self.sources: list[tuple] = []  # (table name | _RawQuery, alias | None)
        self.join_conds: list[Predicate] = []
        self.where: list[Predicate] = []
        self.group_by: list[ColumnTerm] = []
        self.having: list[Predicate] = []
        self.order_by: list[tuple] = []
        self.limit = False
        self.set_op: tuple | None = None
        self.or_count = 0


class _Parser:
    """Recursive descent over the tokens, one method per grammar rule.

    Tokens are matched on their text alone: :mod:`gtr.sqllex` lowercases
    names and keeps the quotes of strings, so no data token's text equals a
    keyword or an operator.
    """

    def __init__(self, text: str, toks: list[Token]):
        self.text = text
        self.toks = toks
        self.i = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def _accept(self, *texts: str) -> str | None:
        tok = self._peek()
        if tok.text in texts:
            self.i += 1
            return tok.text
        return None

    def _expect(self, text: str):
        if self._accept(text) is None:
            self._fail(text.upper() if text.isalpha() else f"'{text}'")

    def _name(self, what: str | None) -> str | None:
        """Take a name that is not a keyword. Without one, fail expecting
        ``what``, or take nothing and return None when ``what`` is None."""
        tok = self._peek()
        if tok.kind == "name" and tok.text not in _RESERVED:
            self.i += 1
            return tok.text
        if what is not None:
            self._fail(what)
        return None

    def _list(self, item) -> list:
        """One or more ``item()`` separated by commas."""
        items = [item()]
        while self._accept(","):
            items.append(item())
        return items

    def _fail(self, *expected: str):
        tok = self._peek()
        what = "end of input" if tok.kind == "end" else f"{tok.text!r}"
        raise ParseError(
            f"unexpected {what}", _byte_offset(self.text, tok.pos), expected
        )

    # -- grammar ------------------------------------------------------------

    def parse(self) -> _RawQuery:
        raw = self._query()
        while self._accept(";"):
            pass
        if self._peek().kind != "end":
            self._fail("end of input")
        return raw

    def _query(self) -> _RawQuery:
        core = self._select_core()
        op = self._accept("union", "intersect", "except")
        if op:
            if op == "union" and self._accept("all"):
                op = "union all"
            core.set_op = (op, self._query())
        return core

    def _subquery(self) -> _RawQuery:
        """The query of ``( SELECT ... )``, its ``(`` already taken."""
        sub = self._query()
        self._expect(")")
        return sub

    def _select_core(self) -> _RawQuery:
        raw = _RawQuery()
        self._expect("select")
        raw.select_distinct = self._accept("distinct") is not None
        raw.select = self._list(self._select_term)
        self._from_clause(raw)
        if self._accept("where"):
            raw.where, ors = self._condition()
            raw.or_count += ors
        if self._accept("group"):
            self._expect("by")
            raw.group_by = self._list(self._column_term)
        if self._accept("having"):
            raw.having, ors = self._condition()
            raw.or_count += ors
        if self._accept("order"):
            self._expect("by")
            raw.order_by = self._list(
                lambda: (self._val_expr(), self._accept("asc", "desc") or "asc")
            )
        if self._accept("limit"):
            self._accept("-")
            if self._peek().kind != "num":
                self._fail("row count")
            self.i += 1
            raw.limit = True
        return raw

    def _from_clause(self, raw: _RawQuery):
        self._expect("from")
        raw.sources.append(self._table_source())
        while True:
            if self._accept(","):
                raw.sources.append(self._table_source())
                continue
            saw_modifier = False
            while self._accept("inner", "left", "right", "full", "outer", "cross"):
                saw_modifier = True
            if self._accept("join"):
                raw.sources.append(self._table_source())
                if self._accept("on"):
                    preds, ors = self._condition()
                    raw.join_conds.extend(preds)
                    raw.or_count += ors
                continue
            if saw_modifier:
                self._fail("JOIN")
            break

    def _table_source(self) -> tuple:
        source = self._subquery() if self._accept("(") else self._name("table name")
        return (source, self._name("alias name" if self._accept("as") else None))

    def _column_ref(self) -> ColumnRef:
        if self._accept("*"):
            return ColumnRef(None, "*")
        name = self._name("column name")
        if self._accept("."):
            if self._accept("*"):
                return ColumnRef(name, "*")
            return ColumnRef(name, self._name("column name"))
        return ColumnRef(None, name)

    def _column_term(self) -> ColumnTerm:
        agg = self._peek().text
        if agg in AGG_FUNCS and self._peek(1).text == "(":
            self.i += 2
            distinct = self._accept("distinct") is not None
            ref = self._column_ref()
            self._expect(")")
            return ColumnTerm(agg, distinct, ref)
        return ColumnTerm("", False, self._column_ref())

    def _val_expr(self) -> ValExpr:
        if self._accept("("):
            expr = self._val_expr()
            self._expect(")")
            return expr
        left = self._column_term()
        op = self._accept(*_ARITH)
        if op:
            return ValExpr(op, left, self._column_term())
        return ValExpr("", left, None)

    def _select_term(self) -> SelectTerm:
        expr = self._val_expr()
        if expr.op == "" and expr.left.agg:
            # Canonical form: an aggregate around a lone column lives in the
            # select term itself, not the inner column term.
            lifted = ValExpr("", ColumnTerm("", False, expr.left.ref), None)
            return SelectTerm(expr.left.agg, expr.left.distinct, lifted)
        return SelectTerm("", False, expr)

    def _condition(self) -> tuple[list[Predicate], int]:
        preds = [self._predicate()]
        ors = 0
        while True:
            if self._accept("and"):
                preds.append(self._predicate())
            elif self._accept("or"):
                ors += 1
                preds.append(self._predicate())
            else:
                return preds, ors

    def _predicate(self) -> Predicate:
        negated = self._accept("not") is not None
        if self._accept("exists"):
            self._expect("(")
            return Predicate(negated, "exists", None, self._subquery())
        lhs = self._val_expr()
        if self._accept("not"):
            negated = True
        if self._accept("is"):
            if self._accept("not"):
                negated = True
            self._expect("null")
            return Predicate(negated, "is", lhs, VALUE)
        if self._accept("between"):
            low = self._value()
            self._expect("and")
            return Predicate(negated, "between", lhs, low, self._value())
        if self._accept("in"):
            self._expect("(")
            if self._peek().text == "select":
                return Predicate(negated, "in", lhs, self._subquery())
            self._list(self._value)
            self._expect(")")
            return Predicate(negated, "in", lhs, VALUE)
        if self._accept("like"):
            return Predicate(negated, "like", lhs, self._value())
        op = self._accept(*_COMPARE)
        if op:
            return Predicate(negated, "!=" if op == "<>" else op, lhs, self._value())
        self._fail("comparison operator")

    def _value(self):
        if self._accept("("):
            if self._peek().text == "select":
                return self._subquery()
            inner = self._value()
            self._expect(")")
            return inner
        tok = self._peek()
        if tok.kind in ("num", "str") or tok.text in ("null", "true", "false"):
            self.i += 1
            return VALUE
        if tok.text in ("-", "+") and self._peek(1).kind == "num":
            self.i += 2
            return VALUE
        if tok.kind == "name" and tok.text not in _RESERVED:
            return ValExpr("", self._column_term(), None)
        self._fail("value")


# ---------------------------------------------------------------------------
# Alias resolution
# ---------------------------------------------------------------------------


def _resolve_term(term: ColumnTerm, env: dict) -> ColumnTerm:
    ref = ColumnRef(env.get(term.ref.table, term.ref.table), term.ref.name)
    return ColumnTerm(term.agg, term.distinct, ref)


def _resolve_value(value, env: dict):
    """A subquery or expression with its aliases resolved; None and VALUE
    pass through."""
    if isinstance(value, _RawQuery):
        return _resolve(value, env)
    if isinstance(value, ValExpr):
        right = value.right and _resolve_term(value.right, env)
        return ValExpr(value.op, _resolve_term(value.left, env), right)
    return value


def _resolve_pred(pred: Predicate, env: dict) -> Predicate:
    operands = (_resolve_value(v, env) for v in (pred.lhs, pred.rhs, pred.rhs2))
    return Predicate(pred.negated, pred.op, *operands)


def _resolve(raw: _RawQuery, parent_env: dict) -> ClauseSets:
    env = dict(parent_env)
    tables = []
    for src, alias in raw.sources:
        if isinstance(src, str):
            env[src] = src
            if alias:
                env[alias] = src
            tables.append(src)
        else:
            # A derived table's alias has no table name to substitute.
            if alias:
                env.setdefault(alias, alias)
            tables.append(_resolve(src, parent_env))
    return ClauseSets(
        select=frozenset(
            SelectTerm(t.agg, t.distinct, _resolve_value(t.expr, env))
            for t in raw.select
        ),
        select_distinct=raw.select_distinct,
        from_tables=frozenset(tables),
        join_conditions=frozenset(_resolve_pred(p, env) for p in raw.join_conds),
        where=frozenset(_resolve_pred(p, env) for p in raw.where),
        group_by=frozenset(_resolve_term(t, env) for t in raw.group_by),
        having=frozenset(_resolve_pred(p, env) for p in raw.having),
        order_by=tuple(
            (_resolve_value(expr, env), direction) for expr, direction in raw.order_by
        ),
        limit=raw.limit,
        set_op=None
        if raw.set_op is None
        else (raw.set_op[0], _resolve(raw.set_op[1], parent_env)),
        or_count=raw.or_count,
    )


def parse_sql(text: str) -> ClauseSets:
    """Parse one SELECT-class statement into its normalized clause sets.

    Raises:
        ParseError: unsupported or malformed SQL; carries the byte offset
            and the token descriptions that would have been accepted.
    """
    return _resolve(_Parser(text, _tokens(text)).parse(), {})
