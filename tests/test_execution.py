import hashlib

import pytest

from gtr.errors import EvalError
from gtr.sqleval import exact_set_match, execution_accuracy, has_top_level_order_by

from fixtures_sql import EX_CASES, REFORMULATION_CASES


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
