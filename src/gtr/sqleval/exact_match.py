"""Exact-set-match: structural SQL equivalence, blind to literal values."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ParseError
from .parser import ClauseSets, parse_sql

CLAUSE_NAMES = (
    "select",
    "from",
    "where",
    "group_by",
    "having",
    "order_by",
    "limit",
    "set_op",
)


@dataclass
class MatchResult:
    match: bool
    clauses: dict[str, bool] = field(default_factory=dict)
    error: str | None = None

    def __bool__(self) -> bool:
        return self.match


def parse_or_error(sql: str) -> tuple[ClauseSets | None, str | None]:
    """(clause sets, None), or (None, the parse error's message)."""
    try:
        return parse_sql(sql), None
    except ParseError as e:
        return None, str(e)


def compare_clauses(pred: ClauseSets, gold: ClauseSets) -> dict[str, bool]:
    """Per-clause equality; ORDER BY is order- and direction-sensitive."""
    return {
        "select": pred.select == gold.select
        and pred.select_distinct == gold.select_distinct,
        "from": pred.from_tables == gold.from_tables
        and pred.join_conditions == gold.join_conditions,
        "where": pred.where == gold.where,
        "group_by": pred.group_by == gold.group_by,
        "having": pred.having == gold.having,
        "order_by": pred.order_by == gold.order_by,
        "limit": pred.limit == gold.limit,
        "set_op": pred.set_op == gold.set_op,
    }


def exact_set_match(pred: str, gold: str) -> MatchResult:
    """True iff every clause set of pred equals the corresponding gold set.

    A parse failure on either side scores False with the reason recorded
    instead of raising.
    """
    pred_cs, error = parse_or_error(pred)
    if error is not None:
        return MatchResult(False, error=f"pred parse error: {error}")
    gold_cs, error = parse_or_error(gold)
    if error is not None:
        return MatchResult(False, error=f"gold parse error: {error}")
    clauses = compare_clauses(pred_cs, gold_cs)
    return MatchResult(all(clauses.values()), clauses)
