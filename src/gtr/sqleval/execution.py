"""Execution accuracy: compare what two queries actually return.

execution_verdicts is the whole rule: it runs the gold and each pred
through the read-only executor and compares their rows. Rows compare as
multisets unless the gold query orders its output, in which case sequences
compare positionally. Numbers compare with 1e-6 relative tolerance, text
case-sensitively, and NULL equals NULL.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

from ..errors import EvalError, GtrError
from ..sqllex import texts
from ..tables import ResultSet, execute_sql

_REL_TOL = 1e-6

# Per-statement timeout of SQL evaluation, in milliseconds.
EVAL_TIMEOUT_MS = 30_000


def has_top_level_order_by(sql: str) -> bool:
    """True when ORDER BY appears outside any parentheses, quotes or comments."""
    depth = 0
    prev = ""
    for tok in texts(sql):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth = max(depth - 1, 0)
        elif depth == 0 and prev == "order" and tok == "by":
            return True
        prev = tok
    return False


def _values_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=0.0)
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))


def _sort_key(row: tuple) -> tuple:
    key = []
    for value in row:
        if value is None:
            key.append((0, ""))
        elif isinstance(value, (int, float)):  # bool included
            key.append((1, float(value)))
        elif isinstance(value, str):
            key.append((2, value))
        elif isinstance(value, bytes):
            key.append((3, value.hex()))
        else:
            key.append((4, repr(value)))
    return tuple(key)


def results_match(gold: ResultSet, pred: ResultSet, ordered: bool) -> bool:
    """Row-for-row comparison; multiset semantics unless ordered."""
    if len(gold.rows) != len(pred.rows):
        return False
    gold_rows = gold.rows if ordered else sorted(gold.rows, key=_sort_key)
    pred_rows = pred.rows if ordered else sorted(pred.rows, key=_sort_key)
    return all(_rows_equal(g, p) for g, p in zip(gold_rows, pred_rows))


def execution_verdicts(
    gold: str,
    preds: Sequence[str],
    db_path: str | Path,
    timeout_ms: int = EVAL_TIMEOUT_MS,
) -> list[bool]:
    """The EX rule: each pred's rows scored against the gold's on db_path.

    The gold runs first, to its last row; a failing gold raises EvalError,
    since the defect is in the dataset rather than the model, and no pred
    runs. Each distinct pred then runs once, fetching at most one row more
    than the gold returned: results_match refuses a run of another length
    first, so a Cartesian product costs one row more than the gold, not
    every row until the timeout. A pred equal to the gold reuses its run.
    A failing pred scores False; otherwise rows compare by results_match, in
    order only when the gold orders its output. Only a pred whose run has
    as many rows as the gold's, two or more, needs that answer: any other
    run compares the same either way. The first such pred reads it from the
    gold's text with has_top_level_order_by, and an unordered gold's rows
    are then sorted once for the group.
    """
    gold_run = sorted_gold = ordered = None
    verdicts: dict[str, bool] = {}
    for sql in dict.fromkeys([gold, *preds]):
        try:
            run = execute_sql(sql, db_path, timeout_ms=timeout_ms,
                              row_limit=None if gold_run is None else len(gold_run.rows) + 1)
        except GtrError as e:
            if gold_run is None:
                raise EvalError(f"gold query failed: {e}") from e
            verdicts[sql] = False
            continue
        if gold_run is None:
            gold_run = run
        elif len(run.rows) == len(gold_run.rows) > 1:
            if ordered is None:
                ordered = has_top_level_order_by(gold)
            if not ordered:
                # Sorted as results_match would, the gold's once; then compared in order.
                sorted_gold = sorted_gold or replace(
                    gold_run, rows=sorted(gold_run.rows, key=_sort_key))
                run = replace(run, rows=sorted(run.rows, key=_sort_key))
        # The gold's own run, which a pred equal to it reuses, matches.
        verdicts[sql] = run is gold_run or results_match(sorted_gold or gold_run, run, True)
    return [verdicts[pred] for pred in preds]


def execution_accuracy(
    pred: str,
    gold: str,
    db_path: str | Path,
    *,
    timeout_ms: int = EVAL_TIMEOUT_MS,
) -> bool:
    """True iff pred's output matches gold's on this database: the rule of
    execution_verdicts applied to one pred."""
    [verdict] = execution_verdicts(gold, [pred], db_path, timeout_ms)
    return verdict
