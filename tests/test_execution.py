import hashlib
import sqlite3
import time
import tracemalloc

import pytest

from gtr.errors import EvalError
from gtr.sqleval import (evaluate_suite, exact_set_match, execution, execution_accuracy,
                         has_top_level_order_by)

from fixtures_sql import EX_CASES, REFORMULATION_CASES
from sql_oracles import full_fetch_accuracy


class TestExecutionAccuracy:
    @pytest.mark.parametrize(
        "pred,gold,expected,label",
        EX_CASES,
        ids=[case[3] for case in EX_CASES],
    )
    def test_expected_verdict(self, toy_db, pred, gold, expected, label):
        assert execution_accuracy(pred, gold, toy_db) is expected, label

    def test_replace_function_in_gold_is_scored(self, toy_db):
        gold = "SELECT replace(name, 'a', 'o') FROM singer"
        assert execution_accuracy(gold, gold, toy_db) is True
        assert execution_accuracy("SELECT name FROM singer", gold, toy_db) is False

    def test_gold_failure_raises_eval_error(self, toy_db):
        with pytest.raises(EvalError):
            execution_accuracy("SELECT 1", "SELECT nope FROM nowhere", toy_db)

    def test_gold_write_statement_raises_eval_error(self, toy_db):
        with pytest.raises(EvalError):
            execution_accuracy("SELECT 1", "DELETE FROM singer", toy_db)

    def test_database_untouched_by_suite(self, toy_db):
        before = hashlib.sha256(toy_db.read_bytes()).hexdigest()
        for pred, gold, _, _ in EX_CASES:
            execution_accuracy(pred, gold, toy_db)
        assert hashlib.sha256(toy_db.read_bytes()).hexdigest() == before


# A join that forgot its condition: 20,000 x 20,000 rows.
CARTESIAN = "SELECT a.a FROM t a, t b"


@pytest.fixture
def big_db(tmp_path):
    path = tmp_path / "big.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (a INTEGER)")
    conn.executemany("INSERT INTO t VALUES (?)", ((i,) for i in range(20_000)))
    conn.commit()
    conn.close()
    return path


@pytest.fixture
def execute_calls(monkeypatch):
    """Each (sql, row_limit) that execution's execute_sql is called with."""
    calls = []
    execute_sql = execution.execute_sql
    monkeypatch.setattr(execution, "execute_sql", lambda sql, db, **kw: (
        calls.append((sql, kw["row_limit"])) or execute_sql(sql, db, **kw)))
    return calls


class TestPredFetchesOneRowPastTheGold:
    @pytest.mark.parametrize("gold", ["SELECT a FROM t WHERE a < 10",
                                      "SELECT a FROM t WHERE a < 0"],
                             ids=["ten rows", "no rows"])
    def test_a_cartesian_product_scores_false_at_once(self, big_db, gold):
        pair = {"question": "q", "gold": gold, "pred": CARTESIAN, "db_id": "big"}
        tracemalloc.start()
        start = time.perf_counter()
        try:
            # Fetched to the end, each would run until its 500 ms timeout.
            accurate = execution_accuracy(CARTESIAN, gold, big_db, timeout_ms=500)
            [item] = evaluate_suite([pair], big_db.parent, timeout_ms=500).items
        finally:
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert accurate is False and (item.ex, item.error) == (False, None)
        assert elapsed < 0.5
        assert peak < 2 * 2**20

    def test_a_pred_equal_to_its_gold_reuses_the_gold_run(self, toy_db, execute_calls):
        gold = "SELECT name FROM singer"
        assert execution_accuracy(gold, gold, toy_db) is True
        assert execute_calls == [(gold, None)]
        execute_calls.clear()
        pred = "SELECT name FROM singer WHERE age > 40"
        assert execution_accuracy(pred, gold, toy_db) is False
        assert execute_calls == [(gold, None), (pred, 7)]  # the gold has 6 rows

    @pytest.mark.parametrize("pred,gold,expected,label", EX_CASES,
                             ids=[case[3] for case in EX_CASES])
    def test_verdicts_equal_the_full_fetch(self, toy_db, pred, gold, expected, label):
        assert (execution_accuracy(pred, gold, toy_db)
                is full_fetch_accuracy(pred, gold, toy_db) is expected), label

    @pytest.mark.parametrize("pred", [
        "SELECT a FROM t WHERE a < 11", "SELECT a FROM t WHERE a < 10",
        "SELECT a FROM t WHERE a < 9", "SELECT a FROM t WHERE a BETWEEN 1 AND 10",
        "SELECT a FROM t WHERE a < 10 UNION ALL SELECT 0", CARTESIAN + " LIMIT 10",
        "SELECT a FROM t WHERE a < 0",
    ])
    @pytest.mark.parametrize("gold", ["SELECT a FROM t WHERE a < 10",
                                      "SELECT a FROM t WHERE a < 10 ORDER BY a DESC",
                                      "SELECT a FROM t WHERE a < 0"])
    def test_verdicts_near_the_limit_equal_the_full_fetch(self, big_db, pred, gold):
        assert (execution_accuracy(pred, gold, big_db)
                is full_fetch_accuracy(pred, gold, big_db))


class TestExecutionVerdictsRunEachStatementOnce:
    def test_the_gold_once_and_each_distinct_pred_once_capped(self, toy_db, execute_calls):
        gold = "SELECT name FROM singer"  # 6 rows
        older = "SELECT name FROM singer WHERE age > 40"
        broken = "SELECT nope FROM singer"
        sorted_ = "SELECT name FROM singer ORDER BY name"
        preds = [older, gold, broken, older, sorted_, gold, broken]
        verdicts = execution.execution_verdicts(gold, preds, toy_db)
        assert verdicts == [False, True, False, False, True, True, False]
        assert execute_calls == [(gold, None), (older, 7), (broken, 7), (sorted_, 7)]

    def test_an_unordered_golds_rows_are_sorted_once(self, toy_db, monkeypatch):
        keyed = []
        sort_key = execution._sort_key
        monkeypatch.setattr(execution, "_sort_key",
                            lambda row: keyed.append(row) or sort_key(row))
        gold = "SELECT name FROM singer"  # 6 rows
        preds = ["SELECT name FROM singer ORDER BY name", "SELECT DISTINCT name FROM singer",
                 "SELECT name FROM singer WHERE age > 40", "SELECT country FROM singer"]
        assert execution.execution_verdicts(gold, preds, toy_db) == [True, True, False, False]
        # The gold's 6 rows once, then the 6 rows of each pred as long as the
        # gold. Sorting the gold again for each of those three would make 36.
        assert len(keyed) == 6 + 3 * 6
        # No pred of the gold's length, or only the gold itself: no sort.
        keyed.clear()
        assert execution.execution_verdicts(gold, [preds[2], gold], toy_db) == [False, True]
        assert keyed == []

    def test_no_preds_runs_the_gold_alone(self, toy_db, execute_calls):
        gold = "SELECT name FROM singer"
        assert execution.execution_verdicts(gold, [], toy_db) == []
        assert execute_calls == [(gold, None)]

    def test_a_failing_gold_runs_no_pred(self, toy_db, execute_calls):
        gold = "SELECT nope FROM nowhere"
        with pytest.raises(EvalError, match="^gold query failed: "):
            execution.execution_verdicts(gold, ["SELECT name FROM singer", gold], toy_db)
        assert execute_calls == [(gold, None)]


class TestStructuralMatchImpliesExecutionMatch:
    @pytest.mark.parametrize(
        "pred,gold,label",
        REFORMULATION_CASES,
        ids=[case[2] for case in REFORMULATION_CASES],
    )
    def test_reformulations_match_on_both_metrics(self, toy_db, pred, gold, label):
        # Literal-preserving, projection-order-preserving rewrites must be
        # equivalent both structurally and on execution output.
        assert exact_set_match(pred, gold).match, label
        assert execution_accuracy(pred, gold, toy_db) is True, label


class TestOrderByDetection:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT a FROM t ORDER BY a", True),
            ("SELECT a FROM t order   by a", True),
            ("SELECT a FROM t", False),
            ("SELECT a FROM (SELECT a FROM t ORDER BY a) x", False),
            ("SELECT a FROM t WHERE b = 'order by'", False),
            ("SELECT a FROM t UNION SELECT a FROM u ORDER BY a", True),
            ("SELECT reorder FROM t", False),
        ],
    )
    def test_detection(self, sql, expected):
        assert has_top_level_order_by(sql) is expected
