import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

from gtr.errors import InvalidInput
from gtr.sqleval import (
    SqlEvalReport, evaluate_suite, exact_match, execution, load_pairs, parser, suite,
)
from gtr.sqllex import texts

from conftest import build_toy_db


@pytest.fixture
def db_dir(tmp_path):
    # Spider-style layout: <db_dir>/<db_id>/<db_id>.sqlite
    root = tmp_path / "databases"
    (root / "concerts").mkdir(parents=True)
    build_toy_db(root / "concerts" / "concerts.sqlite")
    return root


def pair(gold, pred=None, question=""):
    return {"question": question, "gold": gold, "pred": pred or gold, "db_id": "concerts"}


class TestEvaluateSuite:
    def test_all_pred_equal_gold(self, db_dir):
        pairs = [
            pair("SELECT name FROM singer"),
            pair("SELECT count(*) FROM concert"),
            pair("SELECT name FROM stadium WHERE capacity > 20000"),
        ]
        report = evaluate_suite(pairs, db_dir)
        summary = report.summary()
        assert summary["em"] == 1.0
        assert summary["ex"] == 1.0
        assert summary["count"] == 3

    def test_empty_pairs_rejected(self, db_dir):
        with pytest.raises(InvalidInput):
            evaluate_suite([], db_dir)

    def test_empty_report_refuses_to_summarize(self):
        report = SqlEvalReport([])
        for summarize in (report.summary, report.format_summary):
            with pytest.raises(InvalidInput, match="empty SqlEvalReport"):
                summarize()

    def test_missing_key_rejected(self, db_dir):
        with pytest.raises(InvalidInput):
            evaluate_suite([{"gold": "SELECT 1", "pred": "SELECT 1"}], db_dir)

    def test_one_unparseable_pred_among_four(self, db_dir):
        pairs = [
            pair("SELECT name FROM singer"),
            pair("SELECT name FROM stadium"),
            pair("SELECT title FROM concert"),
            pair("SELECT name FROM singer", pred="SELEC name FROM singer"),
        ]
        report = evaluate_suite(pairs, db_dir)
        assert report.summary()["em"] == pytest.approx(0.75)
        assert report.items[3].em is False
        assert "parse error" in report.items[3].error

    def test_gold_failure_recorded_not_raised(self, db_dir):
        pairs = [pair("SELECT nope FROM nowhere"), pair("SELECT name FROM singer")]
        report = evaluate_suite(pairs, db_dir)
        assert report.items[0].ex is None
        assert "gold query failed" in report.items[0].error
        assert report.summary()["gold_errors"] == 1
        assert report.summary()["ex"] == 1.0  # only the healthy item scored

    def test_lone_surrogate_pred_scores_false(self, db_dir):
        pairs = [pair("SELECT name FROM singer WHERE name = 'a'",
                      pred="SELECT name FROM singer WHERE name = 'a\ud800'"),
                 pair("SELECT name FROM singer")]
        report = evaluate_suite(pairs, db_dir)
        assert [item.ex for item in report.items] == [False, True]

    def test_comment_only_pred_scores_false_against_an_empty_gold(self, db_dir):
        # A statement that compiles to nothing returns no rows; it must not
        # match a gold that returns none either.
        pairs = [pair("SELECT name FROM singer WHERE age > 100", pred="-- no SQL")]
        assert evaluate_suite(pairs, db_dir).items[0].ex is False

    def test_lone_surrogate_items_are_written_escaped(self, db_dir, tmp_path):
        pairs = [pair("SELECT name FROM singer WHERE name = 'a\ud800'",
                      pred="SELECT name FROM singer", question="a\ud800"),
                 pair("SELECT name FROM singer", pred="SELECT 'a\ud800' FROM singer"),
                 pair("SELECT name FROM singer", question="é \u2028 😀")]
        report = evaluate_suite(pairs, db_dir)
        out = tmp_path / "report.jsonl"
        report.write_jsonl(out)
        raw = out.read_bytes()
        assert b"'a\\ud800'" in raw
        lines = raw.decode("utf-8").removesuffix("\n").split("\n")
        assert [json.loads(line) for line in lines] == [asdict(i) for i in report.items]
        # Text that UTF-8 can encode is written as before.
        assert lines[2] == json.dumps(asdict(report.items[2]), ensure_ascii=False)

    def test_lone_surrogate_gold_is_gold_error(self, db_dir):
        pairs = [pair("SELECT name FROM singer WHERE name = 'a\ud800'",
                      pred="SELECT name FROM singer"),
                 pair("SELECT name FROM singer")]
        report = evaluate_suite(pairs, db_dir)
        assert report.items[0].ex is None
        assert "gold query failed: not valid Unicode" in report.items[0].error
        assert report.summary()["gold_errors"] == 1

    @pytest.mark.parametrize("gold,db_id,error", [
        ("SELECT nope FROM nowhere", "concerts", "gold query failed: "),
        ("SELECT name FROM singer", "ghost", "database not found for db_id 'ghost'"),
    ], ids=["failing_gold", "missing_database"])
    def test_the_summary_names_both_reasons_an_item_leaves_ex(self, db_dir, gold, db_id, error):
        pairs = [{"question": "", "gold": gold, "pred": gold, "db_id": db_id},
                 pair("SELECT name FROM singer")]
        report = evaluate_suite(pairs, db_dir)
        assert report.items[0].error.startswith(error)
        assert report.format_summary().splitlines()[-1] == (
            "(excluded 1 item(s) from EX whose gold query failed or whose database "
            "was not found; see each item's error)")

    def test_missing_database_recorded(self, db_dir):
        pairs = [{"question": "", "gold": "SELECT 1", "pred": "SELECT 1", "db_id": "ghost"}]
        report = evaluate_suite(pairs, db_dir)
        assert report.items[0].ex is None
        assert "database not found" in report.items[0].error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_item_keeps_every_reason_in_order(self, db_dir, tmp_path, caplog, jobs):
        backtick = "SELECT `name` FROM singer"
        pairs = [pair("SELECT `x` FROM nosuch", pred="SELECT name FROM singer"),
                 {"question": "", "gold": "SELECT name FROM singer", "pred": backtick,
                  "db_id": "missing"},
                 pair("SELECT name FROM singer", pred=backtick)]
        with caplog.at_level(logging.INFO, logger="gtr"):
            report = evaluate_suite(pairs, db_dir, jobs=jobs)
        gold_error = ("gold parse error: unexpected character '`' at byte 7; "
                      "gold query failed: no such table: nosuch")
        pred_error = ("pred parse error: unexpected character '`' at byte 7; "
                      "database not found for db_id 'missing'")
        # EM and EX are as before; only the error text holds more.
        assert [(i.em, i.ex, i.error) for i in report.items] == [
            (False, None, gold_error), (False, None, pred_error),
            (False, True, "pred parse error: unexpected character '`' at byte 7")]
        assert [r.getMessage() for r in caplog.records] == [
            f"sql eval: EX skips pair 0 on db_id 'concerts': {gold_error}",
            f"sql eval: EX skips pair 1 on db_id 'missing': {pred_error}"]
        report.write_jsonl(tmp_path / "report.jsonl")
        lines = (tmp_path / "report.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["error"] for line in lines] == [i.error for i in report.items]
        assert lines[0] == json.dumps(asdict(report.items[0]), ensure_ascii=False)

    def test_each_item_left_out_of_ex_logs_one_info_record(self, db_dir, caplog):
        pairs = [pair("SELECT name FROM singer", pred="SELEC name FROM singer"),
                 pair("SELECT nope FROM nowhere", pred="SELECT name FROM singer"),
                 {"question": "", "gold": "SELECT 1", "pred": "SELEC 1", "db_id": "ghost"},
                 pair("SELECT nope FROM nowhere")]
        with caplog.at_level(logging.INFO, logger="gtr"):
            report = evaluate_suite(pairs, db_dir, jobs=2)
        # A pred that fails to parse is still scored by EX, and logs nothing.
        assert [item.ex for item in report.items] == [False, None, None, None]
        assert report.items[0].error.startswith("pred parse error")
        gold_error = report.items[1].error
        assert gold_error.startswith("gold query failed")
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("gtr", logging.INFO, f"sql eval: EX skips pair 1 on db_id 'concerts': {gold_error}"),
            ("gtr", logging.INFO, "sql eval: EX skips pair 2 on db_id 'ghost': "
                                  "gold parse error: unexpected '1' at byte 7 (expected "
                                  "column name); database not found for db_id 'ghost'"),
            ("gtr", logging.INFO, f"sql eval: EX skips pair 3 on db_id 'concerts': {gold_error}"),
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_statement_nested_too_deeply_is_an_item_error(self, db_dir, jobs):
        # Each used to end the whole suite with a RecursionError.
        deep = ["SELECT name FROM singer WHERE age = " + "(" * n + "1" + ")" * n
                for n in (400, 1200, 5000)]
        nested_in = ("SELECT name FROM singer"
                     + " WHERE singer_id IN (SELECT singer_id FROM singer" * 1000
                     + ")" * 1000)
        golds = ("SELECT name FROM singer WHERE age = 1", "SELECT name FROM singer")
        pairs = [pair(gold, pred=p) for gold in golds
                 for p in (deep[0], gold, deep[1], deep[2], nested_in, gold)]
        items = evaluate_suite(pairs, db_dir, jobs=jobs).items
        for shallow, scored, *too_deep, last in (items[:6], items[6:]):
            assert (shallow.error, shallow.ex is None) == (None, False)
            assert all((i.em, i.ex, i.error) == (True, True, None) for i in (scored, last))
            for item in too_deep:  # the deepest "(" is the last one
                assert (item.em, item.ex) == (False, False)
                assert item.error == ("pred parse error: nested too deeply at byte "
                                      f"{item.pred.rindex('(')}")
        assert items[0].em and not items[6].em

    def test_per_hardness_breakdown(self, db_dir):
        pairs = [
            pair("SELECT name FROM singer"),  # easy
            pair("SELECT name, age FROM singer"),  # medium
            pair("SELECT name FROM singer WHERE singer_id IN "
                 "(SELECT singer_id FROM concert)"),  # hard
            pair("SELECT name FROM singer WHERE singer_id IN "
                 "(SELECT singer_id FROM concert) UNION SELECT name FROM stadium"),
        ]
        report = evaluate_suite(pairs, db_dir)
        breakdown = report.per_hardness()
        assert set(breakdown) == {"easy", "medium", "hard", "extra"}
        for stats in breakdown.values():
            assert stats["count"] == 1
            assert stats["em"] == 1.0
            assert stats["ex"] == 1.0

    def test_parallel_matches_sequential(self, db_dir):
        pairs = [pair("SELECT name FROM singer"), pair("SELECT count(*) FROM stadium")] * 4
        sequential = evaluate_suite(pairs, db_dir, jobs=1)
        parallel = evaluate_suite(pairs, db_dir, jobs=4)
        assert [asdict(i) for i in sequential.items] == [
            asdict(i) for i in parallel.items
        ]

    def test_default_run_starts_no_thread_pool(self, db_dir, monkeypatch):
        monkeypatch.setattr(suite, "ThreadPoolExecutor",
                            lambda *a, **k: pytest.fail("a thread pool was started"))
        report = evaluate_suite([pair("SELECT name FROM singer")] * 3, db_dir)
        assert report.summary()["em"] == 1.0

    def test_one_usable_cpu_starts_no_thread_pool(self, db_dir, monkeypatch, caplog):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(suite, "ThreadPoolExecutor",
                            lambda *a, **k: pytest.fail("a thread pool was started"))
        pairs = [pair("SELECT name FROM singer"), pair("SELECT count(*) FROM stadium"),
                 pair("SELECT age FROM singer")] * 2
        with caplog.at_level(logging.DEBUG, logger="gtr"):
            report = evaluate_suite(pairs, db_dir, jobs=4)
        assert report.summary()["ex"] == 1.0
        assert [r.getMessage() for r in caplog.records] == [
            "sql eval: 6 pairs in 3 groups on 1 thread(s), the least of jobs 4, "
            "the group count and 1 usable CPUs"]

    @pytest.mark.parametrize("jobs, groups, workers", [(2, 3, [2]), (4, 3, [3]), (4, 1, [])])
    def test_threads_are_the_least_of_jobs_groups_and_cpus(
            self, db_dir, monkeypatch, jobs, groups, workers):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: 4)
        started = []

        def pool(max_workers):
            started.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(suite, "ThreadPoolExecutor", pool)
        golds = ["SELECT name FROM singer", "SELECT count(*) FROM stadium",
                 "SELECT age FROM singer"][:groups]
        report = evaluate_suite([pair(g) for g in golds] * 2, db_dir, jobs=jobs)
        assert report.summary()["ex"] == 1.0
        assert started == workers

    def test_usable_cpus_reads_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(suite.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert suite._usable_cpus() == 2
        monkeypatch.delattr(suite.os, "sched_getaffinity")
        monkeypatch.setattr(suite.os, "cpu_count", lambda: 6)
        assert suite._usable_cpus() == 6

    def test_a_gold_is_lexed_for_its_order_only_when_a_pred_has_its_row_count(
            self, db_dir, monkeypatch):
        lexed, order_read = [], []

        def counted(sql):
            lexed.append(sql)
            return texts(sql)

        for module in (parser, execution):
            monkeypatch.setattr(module, "texts", counted)
        order_rule = execution.has_top_level_order_by
        monkeypatch.setattr(execution, "has_top_level_order_by",
                            lambda sql: order_read.append(sql) or order_rule(sql))
        ordered = "SELECT name FROM singer ORDER BY age"  # 6 rows
        unordered = "SELECT name FROM singer"
        one_row = "SELECT count(*) FROM singer"
        unparsed = "SELECT name FROM singer ORDER BY name COLLATE nocase"
        pairs = [pair(ordered, "SELECT name FROM singer ORDER BY age DESC"),
                 pair(ordered, "SELECT name FROM singer ORDER BY singer_id"),
                 pair(ordered),
                 pair(unordered, "SELECT name FROM singer WHERE age > 40"),
                 pair(unordered),
                 pair(one_row, "SELECT count(*) FROM singer WHERE age > 20"),
                 pair(one_row, "SELECT max(age) FROM singer"),
                 pair(unparsed, "SELECT name FROM singer ORDER BY name DESC"),
                 pair(unparsed)]
        report = evaluate_suite(pairs, db_dir)
        assert [item.ex for item in report.items] == [
            False, False, True, False, True, True, False, False, True]
        assert "gold parse error" in report.items[7].error
        # Once for the parse, and once more for the order only in the groups
        # where a pred returns as many rows as the gold, two or more.
        assert [lexed.count(gold) for gold in (ordered, unordered, one_row, unparsed)] == [
            2, 1, 1, 2]
        assert order_read == [ordered, unparsed]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_refused_before_any_pair(self, db_dir, monkeypatch, jobs):
        for module, name in ((execution, "execute_sql"), (exact_match, "parse_sql")):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("scored"))
        with pytest.raises(InvalidInput, match=f"jobs must be positive, got {jobs}"):
            evaluate_suite([pair("SELECT name FROM singer")] * 2, db_dir, jobs=jobs)

    @pytest.mark.parametrize("db_id", ["", ".", "..", "../outside/secret", "concerts/",
                                       "..\\concerts", "con\0certs"])
    def test_db_id_must_be_a_plain_name(self, db_dir, db_id):
        (db_dir.parent / "outside").mkdir()
        build_toy_db(db_dir.parent / "outside" / "secret.sqlite")
        assert suite.resolve_db_path(db_dir, db_id) is None
        [item] = evaluate_suite(
            [{"question": "", "gold": "SELECT 1", "pred": "SELECT 1", "db_id": db_id}],
            db_dir).items
        assert item.ex is None
        # "SELECT 1" has no FROM, so it fails to parse too, and keeps both reasons.
        assert item.error == ("gold parse error: unexpected '1' at byte 7 (expected column "
                              f"name); database not found for db_id {db_id!r}")

    def test_absolute_db_id_does_not_escape_the_directory(self, db_dir):
        (db_dir.parent / "outside").mkdir()
        build_toy_db(db_dir.parent / "outside" / "secret.sqlite")
        outside = db_dir.parent / "outside" / "secret"
        assert suite.resolve_db_path(db_dir, "concerts") is not None
        assert suite.resolve_db_path(db_dir, str(outside)) is None
        [item] = evaluate_suite([{"question": "", "gold": "SELECT name FROM singer",
                                  "pred": "SELECT name FROM singer",
                                  "db_id": str(outside)}], db_dir).items
        assert item.ex is None and "database not found" in item.error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_distinct_statement_is_parsed_and_run_once_per_group(
            self, db_dir, monkeypatch, jobs):
        build_toy_db(db_dir / "other.db")
        runs, parses = [], []

        def counted(calls, fn):
            def wrapper(sql, *args, **kwargs):
                calls.append((sql, str(args[0]) if args else None))
                return fn(sql, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(execution, "execute_sql", counted(runs, execution.execute_sql))
        monkeypatch.setattr(exact_match, "parse_sql", counted(parses, exact_match.parse_sql))
        g1, g2, bad = ("SELECT name FROM singer WHERE age > 30",
                       "SELECT count(*) FROM concert", "SELECT nope FROM nowhere")
        p1, p2 = "SELECT name FROM singer WHERE age > 40", "SELEC name FROM singer"
        groups = {
            (g1, "concerts"): [g1, p1, p1, p2, g1, g2],
            (g1, "other"): [p1, g1],
            (g2, "concerts"): [g2, g2, g1],
            (bad, "concerts"): [g1, bad, p1],
        }
        pairs = [{"question": "", "gold": gold, "pred": pred, "db_id": db_id}
                 for (gold, db_id), preds in groups.items() for pred in preds]
        report = evaluate_suite(pairs[::-1], db_dir, jobs=jobs)
        assert [item.pred for item in report.items] == [p["pred"] for p in pairs[::-1]]

        concerts = str(db_dir / "concerts" / "concerts.sqlite")
        other = str(db_dir / "other.db")
        # A failing gold runs no pred; a pred equal to its gold adds no run.
        assert sorted(runs) == sorted([
            (g1, concerts), (p1, concerts), (p2, concerts), (g2, concerts),
            (g1, other), (p1, other),
            (g2, concerts), (g1, concerts),
            (bad, concerts),
        ])
        assert sorted(sql for sql, _ in parses) == sorted([
            g1, p1, p2, g2,
            g1, p1,
            g2, g1,
            bad, g1, p1,
        ])
        assert [item.ex for item in report.items[::-1]] == [
            True, False, False, False, True, False,
            False, True,
            True, True, False,
            None, None, None,
        ]

    def test_jsonl_and_summary_output(self, db_dir, tmp_path):
        report = evaluate_suite([pair("SELECT name FROM singer")], db_dir)
        out = tmp_path / "report.jsonl"
        report.write_jsonl(out)
        [line] = out.read_text(encoding="utf-8").splitlines()
        record = json.loads(line)
        assert record["em"] is True and record["ex"] is True
        text = report.format_summary()
        assert "easy" in text and "all" in text


class TestFileLoading:
    def test_load_pairs(self, tmp_path):
        gold = tmp_path / "gold.sql"
        pred = tmp_path / "pred.sql"
        gold.write_text(
            "SELECT name FROM singer\tconcerts\n"
            "SELECT count(*) FROM stadium\tconcerts\n",
            encoding="utf-8",
        )
        pred.write_text(
            "SELECT name FROM singer\nSELECT count(*) FROM stadium\n",
            encoding="utf-8",
        )
        pairs = load_pairs(gold, pred)
        assert len(pairs) == 2
        assert pairs[0]["db_id"] == "concerts"
        assert pairs[1]["gold"] == "SELECT count(*) FROM stadium"

    def test_length_mismatch(self, tmp_path):
        gold = tmp_path / "gold.sql"
        pred = tmp_path / "pred.sql"
        gold.write_text("SELECT 1\tdb\n", encoding="utf-8")
        pred.write_text("SELECT 1\nSELECT 2\n", encoding="utf-8")
        with pytest.raises(InvalidInput):
            load_pairs(gold, pred)

    def test_gold_missing_db_id(self, tmp_path):
        gold = tmp_path / "gold.sql"
        pred = tmp_path / "pred.sql"
        gold.write_text("SELECT 1\n", encoding="utf-8")
        pred.write_text("SELECT 1\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="db_id"):
            load_pairs(gold, pred)
