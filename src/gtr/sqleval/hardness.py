"""Spider-style difficulty classification by counted query components.

A query is scored on three counts, then thresholded into one of four
levels. The rules below restate the benchmark's component counting so this
module is self-contained:

Structural count (``structural``):
    +1 each for a nonempty WHERE, GROUP BY, ORDER BY, and a LIMIT;
    +1 per join beyond the first table (``len(from_tables) - 1``);
    +1 per OR connector in WHERE / HAVING / join conditions;
    +1 per LIKE predicate in WHERE / HAVING / join conditions.

Extras count (``extras``):
    +1 if the query applies more than one aggregate (counted across select
    terms, predicate operands, GROUP BY, and ORDER BY);
    +1 if it selects more than one term;
    +1 if it has more than one WHERE predicate;
    +1 if it groups by more than one term.

Nesting count (``nested``):
    one per subquery used as a comparison value in WHERE / HAVING / join
    conditions, plus one if the query is chained with INTERSECT / UNION /
    EXCEPT.

Levels:
    easy    structural <= 1 and extras == 0 and nested == 0
    medium  no nesting, and (extras <= 2 and structural <= 1
            or structural <= 2 and extras < 2)
    hard    (extras > 2 and structural <= 2 and nested == 0)
            or (2 < structural <= 3 and extras <= 2 and nested == 0)
            or (structural <= 1 and extras == 0 and nested <= 1)
    extra   everything else

Counts are taken over the normalized clause sets, so duplicate predicates
that collapse under value anonymization count once.
"""

from __future__ import annotations

from .parser import ClauseSets, ColumnTerm, Predicate, SelectTerm, ValExpr

HARDNESS_LEVELS = ("easy", "medium", "hard", "extra")


def _aggs(value) -> int:
    """The aggregates applied in a select term, predicate, expression or
    column term; a placeholder, a subquery or None applies none."""
    if isinstance(value, ColumnTerm):
        return 1 if value.agg else 0
    if isinstance(value, ValExpr):
        return _aggs(value.left) + _aggs(value.right)
    if isinstance(value, SelectTerm):
        return (1 if value.agg else 0) + _aggs(value.expr)
    if isinstance(value, Predicate):
        return _aggs(value.lhs) + _aggs(value.rhs) + _aggs(value.rhs2)
    return 0


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

    aggregates = sum(
        _aggs(value)
        for bucket in (q.select, q.join_conditions, q.where, q.having, q.group_by)
        for value in bucket
    ) + sum(_aggs(expr) for expr, _ in q.order_by)
    extras = sum(
        (aggregates > 1, len(q.select) > 1, len(q.where) > 1, len(q.group_by) > 1)
    )

    nested = len(q.subqueries) + (1 if q.set_op is not None else 0)
    return structural, extras, nested


def classify_hardness(q: ClauseSets) -> str:
    """One of "easy", "medium", "hard", "extra"."""
    structural, extras, nested = component_counts(q)
    if structural <= 1 and extras == 0 and nested == 0:
        return "easy"
    if nested == 0 and (
        (extras <= 2 and structural <= 1) or (structural <= 2 and extras < 2)
    ):
        return "medium"
    if (
        (extras > 2 and structural <= 2 and nested == 0)
        or (2 < structural <= 3 and extras <= 2 and nested == 0)
        or (structural <= 1 and extras == 0 and nested <= 1)
    ):
        return "hard"
    return "extra"
