"""The SQL scanners that ``gtr.sqllex`` replaced, kept verbatim as test
oracles: the parser's ``_lex``, the read-only screen's
``_statement_keywords`` with the verdict logic of ``assert_read_only``, and
the character loop of ``has_top_level_order_by``. Also the per-pair scorer
that grouped scoring replaced in ``evaluate_suite``: it parses and runs both
queries of every pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from gtr.errors import EvalError, GtrError, NonReadStatement, ParseError
from gtr.sqleval import parse_sql as _parse_sql
from gtr.sqleval.exact_match import compare_clauses
from gtr.sqleval.execution import execution_accuracy
from gtr.sqleval.hardness import classify_hardness
from gtr.sqleval.parser import _Parser, _resolve
from gtr.sqleval.suite import SqlEvalItem, SqlEvalReport, resolve_db_path
from gtr.tables import _NON_SELECT_STARTERS, _WRITE_KEYWORDS

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


def parse_sql(text: str):
    """``gtr.sqleval.parse_sql`` with its tokens taken from ``_lex``."""
    return _resolve(_Parser(text, _lex(text)).parse(), {})


# -- gtr.tables ---------------------------------------------------------------

_SQL_WORD_RE = re.compile(r"[A-Za-z_]\w*")


def _statement_keywords(sql: str) -> list[str]:
    """Lowercased word tokens outside string/identifier quotes and comments."""
    words = []
    i, n = 0, len(sql)
    while i < n:
        c = sql[i]
        if c == "'" or c == '"' or c == "`":
            quote = c
            i += 1
            while i < n:
                if sql[i] == quote:
                    if i + 1 < n and sql[i + 1] == quote:  # doubled quote escape
                        i += 2
                        continue
                    break
                i += 1
            i += 1
        elif c == "[":
            end = sql.find("]", i + 1)
            i = n if end < 0 else end + 1
        elif sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end < 0 else end + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end < 0 else end + 2
        else:
            m = _SQL_WORD_RE.match(sql, i)
            if m:
                words.append(m.group().lower())
                i = m.end()
            else:
                i += 1
    return words


def assert_read_only(sql: str) -> None:
    """Reject anything but a SELECT (or WITH ... SELECT) statement.

    The database file is additionally opened read-only, so even a statement
    that slips past this keyword screen cannot mutate anything.
    """
    words = _statement_keywords(sql)
    if not words:
        raise NonReadStatement("statement is empty")
    if words[0] in _NON_SELECT_STARTERS:
        raise NonReadStatement(f"only SELECT statements may run, got {words[0]!r}")
    offending = _WRITE_KEYWORDS.intersection(words)
    if offending:
        raise NonReadStatement(
            f"statement contains write keyword {sorted(offending)[0]!r}"
        )


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
