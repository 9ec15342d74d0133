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

:func:`serialize` renders a ClauseSets back to parseable SQL (placeholders
render as the stand-in literal ``1``), and
``parse_sql(serialize(parse_sql(q))) == parse_sql(q)`` holds for every
supported query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ParseError
from ..sqllex import Token, tokenize, unterminated

VALUE = "VALUE"

AGG_FUNCS = ("max", "min", "count", "sum", "avg")
SET_OPS = ("intersect", "union", "except", "union all")
HARDNESS_LEVELS = ("easy", "medium", "hard", "extra")

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
        """Nested queries used as comparison values, in rendered order."""
        nested = []
        for bucket in (self.join_conditions, self.where, self.having):
            for pred in sorted(bucket, key=_render_predicate):
                for value in (pred.rhs, pred.rhs2):
                    if isinstance(value, ClauseSets):
                        nested.append(value)
        return tuple(nested)


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
    def __init__(self, text: str, toks: list[Token]):
        self.text = text
        self.toks = toks
        self.i = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def _advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def _accept_name(self, *names: str) -> str | None:
        tok = self._peek()
        if tok.kind == "name" and tok.text in names:
            self._advance()
            return tok.text
        return None

    def _accept_sym(self, *syms: str) -> str | None:
        tok = self._peek()
        if tok.kind == "sym" and tok.text in syms:
            self._advance()
            return tok.text
        return None

    def _expect_name(self, name: str):
        if self._accept_name(name) is None:
            self._fail(name.upper())

    def _expect_sym(self, sym: str):
        if self._accept_sym(sym) is None:
            self._fail(f"'{sym}'")

    def _fail(self, *expected: str):
        tok = self._peek()
        what = "end of input" if tok.kind == "end" else f"{tok.text!r}"
        raise ParseError(
            f"unexpected {what}", _byte_offset(self.text, tok.pos), expected
        )

    # -- grammar ------------------------------------------------------------

    def parse(self) -> _RawQuery:
        raw = self._query()
        while self._accept_sym(";"):
            pass
        if self._peek().kind != "end":
            self._fail("end of input")
        return raw

    def _query(self) -> _RawQuery:
        core = self._select_core()
        op = self._accept_name("union", "intersect", "except")
        if op:
            if op == "union" and self._accept_name("all"):
                op = "union all"
            core.set_op = (op, self._query())
        return core

    def _select_core(self) -> _RawQuery:
        raw = _RawQuery()
        self._expect_name("select")
        raw.select_distinct = self._accept_name("distinct") is not None
        raw.select.append(self._select_term())
        while self._accept_sym(","):
            raw.select.append(self._select_term())
        self._from_clause(raw)
        if self._accept_name("where"):
            raw.where, ors = self._condition()
            raw.or_count += ors
        if self._accept_name("group"):
            self._expect_name("by")
            raw.group_by.append(self._column_term())
            while self._accept_sym(","):
                raw.group_by.append(self._column_term())
        if self._accept_name("having"):
            raw.having, ors = self._condition()
            raw.or_count += ors
        if self._accept_name("order"):
            self._expect_name("by")
            while True:
                expr = self._val_expr()
                direction = self._accept_name("asc", "desc") or "asc"
                raw.order_by.append((expr, direction))
                if not self._accept_sym(","):
                    break
        if self._accept_name("limit"):
            self._accept_sym("-")
            if self._peek().kind != "num":
                self._fail("row count")
            self._advance()
            raw.limit = True
        return raw

    def _from_clause(self, raw: _RawQuery):
        self._expect_name("from")
        raw.sources.append(self._table_source())
        while True:
            if self._accept_sym(","):
                raw.sources.append(self._table_source())
                continue
            saw_modifier = False
            while self._accept_name("inner", "left", "right", "full", "outer", "cross"):
                saw_modifier = True
            if self._accept_name("join"):
                raw.sources.append(self._table_source())
                if self._accept_name("on"):
                    preds, ors = self._condition()
                    raw.join_conds.extend(preds)
                    raw.or_count += ors
                continue
            if saw_modifier:
                self._fail("JOIN")
            break

    def _table_source(self) -> tuple:
        if self._accept_sym("("):
            if self._peek().text != "select":
                self._fail("SELECT")
            sub = self._query()
            self._expect_sym(")")
            return (sub, self._maybe_alias())
        tok = self._peek()
        if tok.kind != "name" or tok.text in _RESERVED:
            self._fail("table name")
        self._advance()
        return (tok.text, self._maybe_alias())

    def _maybe_alias(self) -> str | None:
        if self._accept_name("as"):
            tok = self._peek()
            if tok.kind != "name" or tok.text in _RESERVED:
                self._fail("alias name")
            self._advance()
            return tok.text
        tok = self._peek()
        if tok.kind == "name" and tok.text not in _RESERVED:
            self._advance()
            return tok.text
        return None

    def _column_ref(self) -> ColumnRef:
        if self._accept_sym("*"):
            return ColumnRef(None, "*")
        tok = self._peek()
        if tok.kind != "name" or tok.text in _RESERVED:
            self._fail("column name")
        self._advance()
        if self._accept_sym("."):
            if self._accept_sym("*"):
                return ColumnRef(tok.text, "*")
            part = self._peek()
            if part.kind != "name" or part.text in _RESERVED:
                self._fail("column name")
            self._advance()
            return ColumnRef(tok.text, part.text)
        return ColumnRef(None, tok.text)

    def _column_term(self) -> ColumnTerm:
        tok = self._peek()
        if tok.kind == "name" and tok.text in AGG_FUNCS and self._peek(1).text == "(":
            self._advance()
            self._expect_sym("(")
            distinct = self._accept_name("distinct") is not None
            ref = self._column_ref()
            self._expect_sym(")")
            return ColumnTerm(tok.text, distinct, ref)
        return ColumnTerm("", False, self._column_ref())

    def _val_expr(self) -> ValExpr:
        if self._accept_sym("("):
            expr = self._val_expr()
            self._expect_sym(")")
            return expr
        left = self._column_term()
        op = self._accept_sym(*_ARITH)
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
            if self._accept_name("and"):
                preds.append(self._predicate())
            elif self._accept_name("or"):
                ors += 1
                preds.append(self._predicate())
            else:
                return preds, ors

    def _predicate(self) -> Predicate:
        negated = self._accept_name("not") is not None
        if self._accept_name("exists"):
            self._expect_sym("(")
            sub = self._query()
            self._expect_sym(")")
            return Predicate(negated, "exists", None, sub)
        lhs = self._val_expr()
        if self._accept_name("not"):
            negated = True
        if self._accept_name("is"):
            if self._accept_name("not"):
                negated = True
            self._expect_name("null")
            return Predicate(negated, "is", lhs, VALUE)
        if self._accept_name("between"):
            low = self._value()
            self._expect_name("and")
            return Predicate(negated, "between", lhs, low, self._value())
        if self._accept_name("in"):
            self._expect_sym("(")
            if self._peek().text == "select":
                rhs = self._query()
            else:
                self._value()
                while self._accept_sym(","):
                    self._value()
                rhs = VALUE
            self._expect_sym(")")
            return Predicate(negated, "in", lhs, rhs)
        if self._accept_name("like"):
            return Predicate(negated, "like", lhs, self._value())
        op = self._accept_sym(*_COMPARE)
        if op:
            return Predicate(negated, "!=" if op == "<>" else op, lhs, self._value())
        self._fail("comparison operator")

    def _value(self):
        if self._accept_sym("("):
            if self._peek().text == "select":
                sub = self._query()
                self._expect_sym(")")
                return sub
            inner = self._value()
            self._expect_sym(")")
            return inner
        tok = self._peek()
        if tok.kind in ("num", "str"):
            self._advance()
            return VALUE
        if tok.kind == "sym" and tok.text in ("-", "+") and self._peek(1).kind == "num":
            self._advance()
            self._advance()
            return VALUE
        if tok.kind == "name" and tok.text in ("null", "true", "false"):
            self._advance()
            return VALUE
        if tok.kind == "name" and tok.text not in _RESERVED:
            return ValExpr("", self._column_term(), None)
        self._fail("value")


# ---------------------------------------------------------------------------
# Alias resolution
# ---------------------------------------------------------------------------


def _resolve_ref(ref: ColumnRef, env: dict) -> ColumnRef:
    if ref.table and ref.table in env:
        return ColumnRef(env[ref.table], ref.name)
    return ref


def _resolve_term(term: ColumnTerm, env: dict) -> ColumnTerm:
    return ColumnTerm(term.agg, term.distinct, _resolve_ref(term.ref, env))


def _resolve_expr(expr: ValExpr, env: dict) -> ValExpr:
    right = _resolve_term(expr.right, env) if expr.right is not None else None
    return ValExpr(expr.op, _resolve_term(expr.left, env), right)


def _resolve_value(value, env: dict):
    if isinstance(value, _RawQuery):
        return _resolve(value, env)
    if isinstance(value, ValExpr):
        return _resolve_expr(value, env)
    return value


def _resolve_pred(pred: Predicate, env: dict) -> Predicate:
    return Predicate(
        pred.negated,
        pred.op,
        _resolve_expr(pred.lhs, env) if pred.lhs is not None else None,
        _resolve_value(pred.rhs, env),
        _resolve_value(pred.rhs2, env),
    )


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
            SelectTerm(t.agg, t.distinct, _resolve_expr(t.expr, env))
            for t in raw.select
        ),
        select_distinct=raw.select_distinct,
        from_tables=frozenset(tables),
        join_conditions=frozenset(_resolve_pred(p, env) for p in raw.join_conds),
        where=frozenset(_resolve_pred(p, env) for p in raw.where),
        group_by=frozenset(_resolve_term(t, env) for t in raw.group_by),
        having=frozenset(_resolve_pred(p, env) for p in raw.having),
        order_by=tuple(
            (_resolve_expr(expr, env), direction) for expr, direction in raw.order_by
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


# ---------------------------------------------------------------------------
# Serialization (ClauseSets -> parseable SQL)
# ---------------------------------------------------------------------------


def _render_ref(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.name}" if ref.table else ref.name


def _render_term(term: ColumnTerm) -> str:
    inner = _render_ref(term.ref)
    if term.distinct:
        inner = f"distinct {inner}"
    return f"{term.agg}({inner})" if term.agg else inner


def _render_expr(expr: ValExpr) -> str:
    if expr.op:
        return f"{_render_term(expr.left)} {expr.op} {_render_term(expr.right)}"
    return _render_term(expr.left)


def _render_select_term(term: SelectTerm) -> str:
    inner = _render_expr(term.expr)
    if term.distinct:
        inner = f"distinct {inner}"
    return f"{term.agg}({inner})" if term.agg else inner


def _render_value(value) -> str:
    if value == VALUE:
        return "1"  # stand-in literal; anonymized again on reparse
    if isinstance(value, ValExpr):
        return _render_expr(value)
    if isinstance(value, ClauseSets):
        return f"({serialize(value)})"
    raise TypeError(f"unrenderable value {value!r}")


def _render_predicate(pred: Predicate) -> str:
    if pred.op == "exists":
        prefix = "not " if pred.negated else ""
        return f"{prefix}exists {_render_value(pred.rhs)}"
    lhs = _render_expr(pred.lhs)
    if pred.op == "is":
        return f"{lhs} is not null" if pred.negated else f"{lhs} is null"
    if pred.op == "between":
        middle = f"between {_render_value(pred.rhs)} and {_render_value(pred.rhs2)}"
        return f"{lhs} not {middle}" if pred.negated else f"{lhs} {middle}"
    if pred.op in ("in", "like"):
        rhs = _render_value(pred.rhs)
        if pred.op == "in" and not isinstance(pred.rhs, ClauseSets):
            rhs = f"({rhs})"
        keyword = f"not {pred.op}" if pred.negated else pred.op
        return f"{lhs} {keyword} {rhs}"
    rendered = f"{lhs} {pred.op} {_render_value(pred.rhs)}"
    return f"not {rendered}" if pred.negated else rendered


def _render_source(source) -> str:
    if isinstance(source, ClauseSets):
        return f"({serialize(source)})"
    return source


def serialize(cs: ClauseSets) -> str:
    """Render clause sets back to SQL; reparsing yields an equal ClauseSets.

    Set-valued clauses are rendered in sorted order and OR connectors are
    not reconstructed (connector counts do not participate in equality).
    """
    parts = ["select"]
    if cs.select_distinct:
        parts.append("distinct")
    parts.append(", ".join(sorted(_render_select_term(t) for t in cs.select)))
    parts.append("from")
    parts.append(" join ".join(sorted(_render_source(t) for t in cs.from_tables)))
    if cs.join_conditions:
        parts.append(
            "on " + " and ".join(sorted(_render_predicate(p) for p in cs.join_conditions))
        )
    if cs.where:
        parts.append(
            "where " + " and ".join(sorted(_render_predicate(p) for p in cs.where))
        )
    if cs.group_by:
        parts.append("group by " + ", ".join(sorted(_render_term(t) for t in cs.group_by)))
    if cs.having:
        parts.append(
            "having " + " and ".join(sorted(_render_predicate(p) for p in cs.having))
        )
    if cs.order_by:
        parts.append(
            "order by "
            + ", ".join(f"{_render_expr(e)} {d}" for e, d in cs.order_by)
        )
    if cs.limit:
        parts.append("limit 1")
    sql = " ".join(parts)
    if cs.set_op is not None:
        sql += f" {cs.set_op[0]} {serialize(cs.set_op[1])}"
    return sql
