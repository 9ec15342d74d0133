"""The SQL code that later versions of ``gtr`` replaced, kept verbatim as
test oracles:

* the scanners ``gtr.sqllex`` replaced: the parser's ``_lex`` and the
  character loop of ``has_top_level_order_by``;
* the clause-set parser and alias resolver from when they matched tokens
  by kind, with separate name and symbol helpers; ``parse_sql`` runs them
  on ``_lex``'s tokens, so it shares no parsing code with ``gtr``;
* the difficulty counters from before one walker counted aggregates
  (``component_counts``);
* the per-pair scorer that grouped scoring replaced in ``evaluate_suite``:
  it parses and runs both queries of every pair.

Last, ``serialize``, which renders clause sets back to parseable SQL
(placeholders as the stand-in literal ``1``), so that
``parse_sql(serialize(parse_sql(q))) == parse_sql(q)`` can be checked for
every supported query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from gtr.errors import EvalError, GtrError, ParseError
from gtr.sqleval import parse_sql as _parse_sql
from gtr.sqleval.exact_match import compare_clauses
from gtr.sqleval.execution import execution_accuracy
from gtr.sqleval.hardness import classify_hardness
from gtr.sqleval.parser import (
    VALUE,
    ClauseSets,
    ColumnRef,
    ColumnTerm,
    Predicate,
    SelectTerm,
    ValExpr,
)
from gtr.sqleval.suite import SqlEvalItem, SqlEvalReport, resolve_db_path

# -- gtr.sqleval.parser ------------------------------------------------------

_NUM_RE = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+")
_NAME_RE = re.compile(r"[A-Za-z_]\w*")
_TWO_CHAR = ("<=", ">=", "!=", "<>")
_ONE_CHAR = "=<>(),.;*+-/"


@dataclass(frozen=True)
class _Tok:
    kind: str  # name | num | str | sym | end
    text: str
    pos: int  # character offset


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in ("'", '"'):
            j = i + 1
            while j < n:
                if text[j] == c:
                    if j + 1 < n and text[j + 1] == c:
                        j += 2
                        continue
                    break
                j += 1
            if j >= n:
                raise ParseError(
                    "unterminated string literal", _byte_offset(text, i)
                )
            toks.append(_Tok("str", text[i : j + 1], i))
            i = j + 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(_Tok("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            toks.append(_Tok("name", m.group().lower(), i))
            i = m.end()
            continue
        if text[i : i + 2] in _TWO_CHAR:
            toks.append(_Tok("sym", text[i : i + 2], i))
            i += 2
            continue
        if c in _ONE_CHAR:
            toks.append(_Tok("sym", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", _byte_offset(text, i))
    toks.append(_Tok("end", "", n))
    return toks


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


AGG_FUNCS = ("max", "min", "count", "sum", "avg")
_ARITH = ("+", "-", "*", "/")
_COMPARE = ("=", ">", "<", ">=", "<=", "!=", "<>")

_RESERVED = frozenset(
    """select from where group by having order limit union intersect except
    join on as and or not in like between is exists null distinct asc desc
    inner left right full outer cross""".split()
)


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


def parse_sql(text: str):
    """``gtr.sqleval.parse_sql`` as it was before its parser matched tokens
    by text, with its tokens taken from ``_lex``."""
    return _resolve(_Parser(text, _lex(text)).parse(), {})


# -- gtr.sqleval.hardness -----------------------------------------------------

def _expr_agg_count(expr: ValExpr | None) -> int:
    if expr is None:
        return 0
    count = 1 if expr.left.agg else 0
    if expr.right is not None and expr.right.agg:
        count += 1
    return count


def _value_agg_count(value) -> int:
    return _expr_agg_count(value) if isinstance(value, ValExpr) else 0


def _pred_agg_count(pred: Predicate) -> int:
    return (
        _expr_agg_count(pred.lhs)
        + _value_agg_count(pred.rhs)
        + _value_agg_count(pred.rhs2)
    )


def _aggregate_count(q: ClauseSets) -> int:
    count = 0
    for term in q.select:
        count += (1 if term.agg else 0) + _expr_agg_count(term.expr)
    for bucket in (q.join_conditions, q.where, q.having):
        count += sum(_pred_agg_count(p) for p in bucket)
    count += sum(1 for t in q.group_by if isinstance(t, ColumnTerm) and t.agg)
    count += sum(_expr_agg_count(expr) for expr, _ in q.order_by)
    return count


def component_counts(q: ClauseSets) -> tuple[int, int, int]:
    """(structural, extras, nested) counts for one query."""
    structural = 0
    structural += 1 if q.where else 0
    structural += 1 if q.group_by else 0
    structural += 1 if q.order_by else 0
    structural += 1 if q.limit else 0
    structural += max(len(q.from_tables) - 1, 0)
    structural += q.or_count
    for bucket in (q.join_conditions, q.where, q.having):
        structural += sum(1 for p in bucket if p.op == "like")

    extras = 0
    if _aggregate_count(q) > 1:
        extras += 1
    if len(q.select) > 1:
        extras += 1
    if len(q.where) > 1:
        extras += 1
    if len(q.group_by) > 1:
        extras += 1

    nested = len(q.subqueries) + (1 if q.set_op is not None else 0)
    return structural, extras, nested


# -- gtr.sqleval.execution ----------------------------------------------------

def has_top_level_order_by(sql: str) -> bool:
    """True when ORDER BY appears outside any parentheses or string."""
    depth = 0
    i, n = 0, len(sql)
    lowered = sql.lower()
    while i < n:
        c = sql[i]
        if c in ("'", '"'):
            i += 1
            while i < n:
                if sql[i] == c:
                    if i + 1 < n and sql[i + 1] == c:
                        i += 2
                        continue
                    break
                i += 1
            i += 1
        elif c == "(":
            depth += 1
            i += 1
        elif c == ")":
            depth = max(depth - 1, 0)
            i += 1
        elif depth == 0 and lowered.startswith("order", i):
            before_ok = i == 0 or not (sql[i - 1].isalnum() or sql[i - 1] == "_")
            rest = lowered[i + 5 :].lstrip()
            after_by = rest[2:3]
            if (
                before_ok
                and rest.startswith("by")
                and not (after_by.isalnum() or after_by == "_")
            ):
                return True
            i += 5
        else:
            i += 1
    return False


# -- gtr.sqleval.suite --------------------------------------------------------

def _evaluate_one(pair: dict, db_dir: str | Path, timeout_ms: int) -> SqlEvalItem:
    gold = pair["gold"]
    pred = pair["pred"]
    item = SqlEvalItem(
        question=pair.get("question", ""),
        db_id=pair["db_id"],
        gold=gold,
        pred=pred,
        hardness=None,
        em=False,
        ex=None,
    )
    try:
        gold_cs = _parse_sql(gold)
        item.hardness = classify_hardness(gold_cs)
    except ParseError as e:
        gold_cs = None
        item.error = f"gold parse error: {e}"
    try:
        pred_cs = _parse_sql(pred)
    except ParseError as e:
        pred_cs = None
        item.error = item.error or f"pred parse error: {e}"
    if gold_cs is not None and pred_cs is not None:
        item.em_clauses = compare_clauses(pred_cs, gold_cs)
        item.em = all(item.em_clauses.values())

    db_path = resolve_db_path(db_dir, item.db_id)
    if db_path is None:
        item.error = f"database not found for db_id {item.db_id!r}"
        return item
    try:
        item.ex = execution_accuracy(pred, gold, db_path, timeout_ms=timeout_ms)
    except EvalError as e:
        item.error = str(e)
    except GtrError as e:  # defensive: executor errors on pred score False
        item.ex = False
        item.error = str(e)
    return item


def evaluate_suite(pairs: list[dict], db_dir: str | Path,
                   timeout_ms: int = 30_000) -> SqlEvalReport:
    """``gtr.sqleval.evaluate_suite`` scoring one pair at a time."""
    return SqlEvalReport([_evaluate_one(p, db_dir, timeout_ms) for p in pairs])


# -- rendering clause sets back to SQL --------------------------------------


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
