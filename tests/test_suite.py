import json
from dataclasses import asdict

import pytest

from gtr.errors import InvalidInput
from gtr.sqleval import (
    SqlEvalReport, evaluate_suite, exact_match, execution, load_pairs, suite,
)

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

    def test_missing_database_recorded(self, db_dir):
        pairs = [{"question": "", "gold": "SELECT 1", "pred": "SELECT 1", "db_id": "ghost"}]
        report = evaluate_suite(pairs, db_dir)
        assert report.items[0].ex is None
        assert "database not found" in report.items[0].error

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
        assert item.error == f"database not found for db_id {db_id!r}"

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
