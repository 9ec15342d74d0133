import json
import sqlite3

import pytest

from gtr import pipeline, tables
from gtr.cli import main
from gtr.embedding import EmbedderConfig, embed
from gtr.llm import LlmConfig
from gtr.pipeline import Query
from gtr.sqleval import suite
from gtr.store import VectorStore

from fixtures_sql import TABULAR_QUESTIONS


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.txt"
    path.write_text(" ".join(f"w{i}" for i in range(10)), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_creates_store(self, capsys, tmp_path, doc_file):
        store = tmp_path / "s.jsonl"
        code, out, err = run(
            capsys, "ingest", "--input", str(doc_file), "--store", str(store),
            "--chunk-size", "4", "--overlap", "1", "--dim", "32",
        )
        assert code == 0
        assert store.is_file()
        assert "3 chunk(s)" in out and "dim 32" in out

    def test_missing_input_names_path(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "ingest", "--input", str(tmp_path / "nope.txt"),
            "--store", str(tmp_path / "s.jsonl"),
        )
        assert code == 1
        assert "nope.txt" in err
        assert out == ""

    def test_overlap_equal_to_chunk_size_fails(self, capsys, tmp_path, doc_file):
        code, _, err = run(
            capsys, "ingest", "--input", str(doc_file),
            "--store", str(tmp_path / "s.jsonl"),
            "--chunk-size", "512", "--overlap", "512",
        )
        assert code == 1
        assert "overlap" in err

    def test_store_env_fallback(self, capsys, tmp_path, doc_file, monkeypatch):
        store = tmp_path / "env.jsonl"
        monkeypatch.setenv("GTR_STORE", str(store))
        code, _, _ = run(capsys, "ingest", "--input", str(doc_file), "--dim", "16")
        assert code == 0
        assert store.is_file()


class TestAsk:
    def _ingest(self, capsys, tmp_path, text, **chunking):
        doc = tmp_path / "doc.txt"
        doc.write_text(text, encoding="utf-8")
        store = tmp_path / "s.jsonl"
        argv = ["ingest", "--input", str(doc), "--store", str(store), "--dim", "32"]
        for flag, value in chunking.items():
            argv += [f"--{flag.replace('_', '-')}", str(value)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        return store

    def test_echo_prints_rank_one_chunk(self, capsys, tmp_path):
        store = self._ingest(capsys, tmp_path, "the only chunk")
        code, out, _ = run(
            capsys, "ask", "anything?", "--store", str(store),
            "--llm", "echo",
        )
        assert code == 0
        assert out == "the only chunk\n"

    def test_k_three_trace_lists_three_ids(self, capsys, tmp_path):
        text = " ".join(f"w{i}" for i in range(30))
        store = self._ingest(capsys, tmp_path, text, chunk_size=4, overlap=1)
        trace_path = tmp_path / "trace.jsonl"
        code, _, _ = run(
            capsys, "ask", "w1 w2", "--store", str(store), "--llm", "echo",
            "--k", "3", "--trace", str(trace_path),
        )
        assert code == 0
        record = json.loads(trace_path.read_text(encoding="utf-8").splitlines()[0])
        assert len(record["retrieved"]) == 3

    def test_missing_store(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "ask", "q", "--store", str(tmp_path / "none.jsonl"), "--llm", "echo"
        )
        assert code == 1
        assert err

    def test_idempotent_output(self, capsys, tmp_path):
        store = self._ingest(capsys, tmp_path, "alpha beta gamma")
        t1 = tmp_path / "t1.jsonl"
        t2 = tmp_path / "t2.jsonl"
        for path in (t1, t2):
            code, out, _ = run(
                capsys, "ask", "alpha", "--store", str(store), "--llm", "echo",
                "--trace", str(path),
            )
            assert code == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_table_store_is_refused_naming_the_record(self, capsys, tmp_path, toy_db):
        # The table's embedding text would otherwise be printed as the answer.
        store = tmp_path / "t.gtr"
        run(capsys, "tables", "ingest", "--db", str(toy_db), "--store", str(store))
        [(top, _)] = tables.select_tables(Query("singer age"), VectorStore.load(store), 1)
        code, out, err = run(capsys, "ask", "singer age", "--store", str(store),
                             "--llm", "echo", "--k", "2")
        assert (code, out) == (1, "")
        assert err == (f"error: retrieved record {top!r} is a table record, not a chunk; "
                       "ask about tables with `gtr tables ask`\n")


class TestAskTakesTheStoresEmbedder:
    """ask and tables ask take no embedder flag. They embed with the one the
    store names, and print and trace what an answer given that config does."""

    @pytest.fixture(params=["hashed_bow", "http"])
    def embedder(self, request, json_server):
        if request.param == "hashed_bow":
            return ["--dim", "32"], EmbedderConfig(dim=32)
        server = json_server(lambda path, body: (200, {"embeddings": [
            embed(text, EmbedderConfig(dim=32)).tolist() for text in body["inputs"]]}))
        url = server.url + "embed"
        return (["--embedder", "http", "--embed-url", url, "--dim", "32"],
                EmbedderConfig(backend="http", dim=32, endpoint_url=url))

    def test_ask(self, capsys, tmp_path, embedder):
        flags, config = embedder
        doc = tmp_path / "doc.txt"
        doc.write_text(" ".join(f"w{i}" for i in range(30)), encoding="utf-8")
        store = tmp_path / "s.gtr"
        run(capsys, "ingest", "--input", str(doc), "--store", str(store),
            "--chunk-size", "4", "--overlap", "1", *flags)
        trace = tmp_path / "trace.jsonl"
        code, out, err = run(capsys, "ask", "w1 w2", "--store", str(store), "--k", "3",
                             "--llm", "echo", "--trace", str(trace))
        assert (code, err) == (0, "")
        expected = pipeline.answer(Query("w1 w2"), VectorStore.load(store), k=3,
                                   embedder_config=config,
                                   llm_config=LlmConfig(backend="echo_context"))
        assert out == expected.answer + "\n"
        pipeline.append_trace(expected, tmp_path / "expected.jsonl")
        assert trace.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

    def test_tables_ask(self, capsys, tmp_path, toy_db, embedder):
        flags, config = embedder
        store = tmp_path / "t.gtr"
        run(capsys, "tables", "ingest", "--db", str(toy_db), "--store", str(store), *flags)
        question = "How many singers are in the singer table?"
        sql = TABULAR_QUESTIONS[question][0]
        mapping = tmp_path / "fixtures.json"
        mapping.write_text(json.dumps({question: sql}), encoding="utf-8")
        trace = tmp_path / "trace.jsonl"
        code, out, err = run(capsys, "tables", "ask", question, "--db", str(toy_db),
                             "--store", str(store), "--llm", f"template:{mapping}",
                             "--trace", str(trace))
        assert (code, err) == (0, "")
        assert out == f"SQL: {sql}\ncount(*)\n6\n"
        expected = tables.answer_tabular(
            Query(question), toy_db, VectorStore.load(store), embedder_config=config,
            llm_config=LlmConfig(backend="template_sql", sql_templates={question: sql}),
        )
        pipeline.append_trace(expected.trace, tmp_path / "expected.jsonl")
        assert trace.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()

    @pytest.mark.parametrize("command", [["ask"], ["tables", "ask", "--db", "x.sqlite"]])
    @pytest.mark.parametrize("flag", [["--dim", "32"], ["--embedder", "hashed_bow"],
                                      ["--embed-url", "http://localhost:1/"]])
    def test_embedder_flag_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "q?", "--store", "s.gtr", *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestTables:
    def test_ingest_then_ask(self, capsys, tmp_path, toy_db):
        store = tmp_path / "t.jsonl"
        code, out, _ = run(
            capsys, "tables", "ingest", "--db", str(toy_db),
            "--store", str(store), "--dim", "64",
        )
        assert code == 0
        assert "3 table(s)" in out

        question = "How many singers are in the singer table?"
        mapping = tmp_path / "fixtures.json"
        mapping.write_text(
            json.dumps({question: TABULAR_QUESTIONS[question][0]}), encoding="utf-8"
        )
        code, out, _ = run(
            capsys, "tables", "ask", question, "--db", str(toy_db),
            "--store", str(store), "--llm", f"template:{mapping}",
        )
        assert code == 0
        assert "SQL: SELECT count(*) FROM singer" in out
        assert out.splitlines()[-1] == "6"

    def test_ingest_of_text_that_is_not_utf8_exits_one(self, capsys, tmp_path):
        db = tmp_path / "bad.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("CREATE TABLE t (x TEXT)")
        conn.execute("INSERT INTO t VALUES (CAST(x'ff' AS TEXT))")
        conn.commit()
        conn.close()
        code, _, err = run(capsys, "tables", "ingest", "--db", str(db),
                           "--store", str(tmp_path / "s.gtr"))
        assert code == 1
        assert err.startswith("error: cannot profile table 't': ")
        assert not (tmp_path / "s.gtr").exists()

    def test_write_statement_exits_one(self, capsys, tmp_path, toy_db):
        store = tmp_path / "t.jsonl"
        run(capsys, "tables", "ingest", "--db", str(toy_db),
            "--store", str(store), "--dim", "64")
        code, _, err = run(
            capsys, "tables", "ask", "zap it", "--db", str(toy_db),
            "--store", str(store), "--llm", "fixed:DELETE FROM singer",
        )
        assert code == 1
        assert "execute_sql" in err


    @pytest.mark.parametrize("text, message", [
        ("{oops", "malformed JSON"),
        pytest.param('{"q?":\n ' + "[" * 5000,
                     "malformed JSON: nested too deeply: line 2 column 5001", id="deep_nesting"),
        ('{"q?": null}', "question 'q?' must be a string, got None"),
        ('{"q?": 7}', "question 'q?' must be a string, got 7"),
    ])
    def test_bad_template_mapping_names_the_file(self, capsys, tmp_path, toy_db,
                                                 text, message):
        store = tmp_path / "t.jsonl"
        run(capsys, "tables", "ingest", "--db", str(toy_db),
            "--store", str(store), "--dim", "64")
        mapping = tmp_path / "fixtures.json"
        mapping.write_text(text, encoding="utf-8")
        code, out, err = run(
            capsys, "tables", "ask", "q?", "--db", str(toy_db),
            "--store", str(store), "--llm", f"template:{mapping}",
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {mapping}") and message in err

    def test_ask_uses_the_sample_taken_at_ingest(self, capsys, tmp_path, toy_db):
        store = tmp_path / "t.jsonl"
        trace = tmp_path / "trace.jsonl"
        run(capsys, "tables", "ingest", "--db", str(toy_db), "--store", str(store),
            "--dim", "64", "--sample-limit", "1")
        code, _, _ = run(
            capsys, "tables", "ask", "q?", "--db", str(toy_db), "--store", str(store),
            "--llm", "fixed:SELECT 1", "--trace", str(trace),
        )
        assert code == 0
        prompt = json.loads(trace.read_text(encoding="utf-8"))["prompt"]
        assert "singer_id,name,age,country\n1,Joe Sharp,52,Netherlands\n\n" in prompt

    def test_schema_change_after_ingest_exits_one(self, capsys, tmp_path, toy_db):
        import sqlite3

        store = tmp_path / "t.jsonl"
        run(capsys, "tables", "ingest", "--db", str(toy_db),
            "--store", str(store), "--dim", "64")
        conn = sqlite3.connect(toy_db)
        conn.execute("ALTER TABLE stadium ADD COLUMN z")
        conn.commit()
        conn.close()
        code, out, err = run(
            capsys, "tables", "ask", "q?", "--db", str(toy_db),
            "--store", str(store), "--llm", "fixed:SELECT 1",
        )
        assert (code, out) == (1, "")
        assert "'stadium'" in err and "re-run `gtr tables ingest`" in err

    def test_row_limit_below_one_exits_one(self, capsys, tmp_path, toy_db):
        store = tmp_path / "t.jsonl"
        run(capsys, "tables", "ingest", "--db", str(toy_db),
            "--store", str(store), "--dim", "64")
        code, out, err = run(
            capsys, "tables", "ask", "q?", "--db", str(toy_db), "--store", str(store),
            "--llm", "fixed:SELECT name FROM singer", "--row-limit", "0",
        )
        assert (code, out) == (1, "")
        assert err == "error: row_limit must be positive or None, got 0\n"

    def test_timeout_below_one_ms_exits_one(self, capsys, tmp_path, toy_db):
        # A zero budget used to answer this short query normally.
        store = tmp_path / "t.jsonl"
        run(capsys, "tables", "ingest", "--db", str(toy_db),
            "--store", str(store), "--dim", "64")
        code, out, err = run(
            capsys, "tables", "ask", "q?", "--db", str(toy_db), "--store", str(store),
            "--llm", "fixed:SELECT count(*) FROM singer", "--timeout-ms", "0",
        )
        assert (code, out) == (1, "")
        assert err == "error: timeout_ms must be positive, got 0\n"


class TestNonUtf8Input:
    """Each text input file is read as strict UTF-8: a bad byte exits 1
    naming the file and its line, counting "\\r\\n" and a lone "\\r" as
    line ends, where it used to escape as a UnicodeDecodeError."""

    GOOD_ITEM = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                            "truthful": 1, "response_time_ms": 1.0}).encode()

    @pytest.mark.parametrize("command, name, data", [
        ("ingest", "docs.jsonl", b'{"id": "a", "text": "x"}\n{"id": "b", "text": "\xff"}\n'),
        ("ingest", "doc.txt", b"first line\r\nsecond \xff line\n"),
        ("eval text", "items.jsonl", GOOD_ITEM + b"\r" + GOOD_ITEM.replace(b"c", b"\xe9")),
        ("eval sql", "gold.sql", b"SELECT 1\tconcerts\rSELECT \xc3\tconcerts\n"),
        ("tables ask", "fixtures.json", b'{"q?":\r\n "SELECT \xed\xa0\x80"}'),
    ], ids=["documents jsonl", "plain-text document", "eval items", "sql lines",
            "template mapping"])
    def test_bad_byte_names_file_and_line(self, capsys, tmp_path, toy_db, command, name,
                                          data):
        path = tmp_path / name
        path.write_bytes(data)
        store = tmp_path / "t.jsonl"
        argv = {
            "ingest": ["ingest", "--input", str(path), "--store", str(store)],
            "eval text": ["eval", "text", "--items", str(path)],
            "eval sql": ["eval", "sql", "--gold", str(path), "--pred", str(path),
                         "--db-dir", str(tmp_path)],
            "tables ask": ["tables", "ask", "q?", "--db", str(toy_db), "--store", str(store),
                           "--llm", f"template:{path}"],
        }[command]
        if command == "tables ask":
            run(capsys, "tables", "ingest", "--db", str(toy_db), "--store", str(store),
                "--dim", "64")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: line 2: not UTF-8: ")


class TestEval:
    def test_eval_sql_perfect(self, capsys, tmp_path, toy_db):
        db_dir = tmp_path / "dbs"
        (db_dir / "concerts").mkdir(parents=True)
        import shutil

        shutil.copy(toy_db, db_dir / "concerts" / "concerts.sqlite")
        gold = tmp_path / "gold.sql"
        pred = tmp_path / "pred.sql"
        gold.write_text("SELECT name FROM singer\tconcerts\n", encoding="utf-8")
        pred.write_text("SELECT name FROM singer\n", encoding="utf-8")
        out_path = tmp_path / "report.jsonl"
        code, out, _ = run(
            capsys, "eval", "sql", "--gold", str(gold), "--pred", str(pred),
            "--db-dir", str(db_dir), "--out", str(out_path),
        )
        assert code == 0
        assert "1.000" in out
        assert out_path.is_file()

    def test_eval_sql_starts_no_thread_pool_by_default(self, capsys, tmp_path, toy_db,
                                                       monkeypatch):
        monkeypatch.setattr(suite, "ThreadPoolExecutor",
                            lambda *a, **k: pytest.fail("a thread pool was started"))
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT name FROM singer\tconcerts\n" * 3, encoding="utf-8")
        code, out, _ = run(capsys, "eval", "sql", "--gold", str(sql), "--pred", str(sql),
                           "--db-dir", str(toy_db.parent))
        assert code == 0 and "1.000" in out

    def test_eval_sql_goes_on_past_a_pred_nested_too_deeply(self, capsys, tmp_path, toy_db):
        gold, pred, report = tmp_path / "gold.sql", tmp_path / "pred.sql", tmp_path / "r.jsonl"
        gold.write_text("SELECT name FROM singer\tconcerts\n" * 2, encoding="utf-8")
        deep = "SELECT name FROM singer WHERE age = " + "(" * 1200 + "1" + ")" * 1200
        pred.write_text(f"{deep}\nSELECT name FROM singer\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "sql", "--gold", str(gold), "--pred", str(pred),
                             "--db-dir", str(toy_db.parent), "--out", str(report))
        assert (code, err) == (0, "")
        first, second = map(json.loads, report.read_text(encoding="utf-8").splitlines())
        assert first["error"] == f"pred parse error: nested too deeply at byte {deep.rindex('(')}"
        assert (second["em"], second["ex"], second["error"]) == (True, True, None)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_eval_sql_jobs_below_one_exits_one(self, capsys, tmp_path, toy_db, jobs):
        # -1 used to end in a ValueError traceback from the thread pool, and
        # 0 silently meant the CPU count.
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT name FROM singer\tconcerts\n", encoding="utf-8")
        code, out, err = run(
            capsys, "eval", "sql", "--gold", str(sql), "--pred", str(sql),
            "--db-dir", str(toy_db.parent), "--jobs", jobs,
        )
        assert (code, out) == (1, "")
        assert err == f"error: jobs must be positive, got {jobs}\n"

    def test_eval_text_summary_has_eight_columns(self, capsys, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text(
            json.dumps({"question": "q", "reference": "a b", "candidate": "a b",
                        "truthful": 1, "response_time_ms": 10.0}) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "eval", "text", "--items", str(items), "--dim", "32")
        assert code == 0
        header = out.splitlines()[0].split()
        assert header == [
            "truthful_pct", "rouge1_p", "rouge2_p", "rougeL_p", "rougeL_f1", "sas",
            "resp_ms", "tokens",
        ]

    def test_eval_text_with_an_empty_candidate_completes(self, capsys, tmp_path):
        items = tmp_path / "items.jsonl"
        rows = [{"question": "q", "reference": "a b", "candidate": c,
                 "truthful": 1, "response_time_ms": 1.0} for c in ("a b", "")]
        items.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        code, out, err = run(capsys, "eval", "text", "--items", str(items), "--dim", "32")
        assert (code, err) == (0, "")
        assert out.splitlines()[1].split()[4] == "0.5000"

    def test_malformed_items_line_number_in_error(self, capsys, tmp_path):
        items = tmp_path / "items.jsonl"
        good = json.dumps({"question": "q", "reference": "r", "candidate": "c",
                           "truthful": 1, "response_time_ms": 1.0})
        items.write_text(good + "\n" + good + "\n{oops\n", encoding="utf-8")
        code, _, err = run(capsys, "eval", "text", "--items", str(items))
        assert code == 1
        assert "line 3" in err

    @pytest.mark.parametrize("field, value", [("truthful", 0.9),
                                              ("response_time_ms", "NaN")])
    def test_lossy_item_value_is_refused(self, capsys, tmp_path, field, value):
        items = tmp_path / "items.jsonl"
        row = {"question": "q", "reference": "r", "candidate": "c",
               "truthful": 1, "response_time_ms": 1.0, field: value}
        items.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", "text", "--items", str(items))
        assert code == 1
        assert "line 1" in err and field in err
        assert out == ""


class TestLogLevel:
    @pytest.fixture
    def ingest(self, tmp_path, doc_file):
        return ("ingest", "--input", str(doc_file), "--store", str(tmp_path / "s.gtr"),
                "--dim", "32")

    def test_debug_shows_a_whole_file_save(self, capsys, ingest):
        assert run(capsys, *ingest)[0] == 0
        code, _, err = run(capsys, "--log-level", "debug", *ingest)
        assert code == 0
        assert "writing the whole file: the store has saved or loaded no file" in err

    def test_default_shows_no_debug_record(self, capsys, ingest):
        assert run(capsys, *ingest)[0] == 0
        assert run(capsys, *ingest)[::2] == (0, "")

    def test_a_tail_warning_prints_as_before(self, capsys, tmp_path, ingest):
        assert run(capsys, *ingest)[0] == 0
        with open(tmp_path / "s.gtr", "ab") as f:
            f.write(b"xy")
        code, _, err = run(capsys, "ask", "w1", "--store", str(tmp_path / "s.gtr"))
        assert code == 0
        assert err == (f"store {tmp_path / 's.gtr'}: ignoring 2 bytes after the last of its "
                       "1 records, left by an interrupted save\n")

    def test_info_shows_each_sql_item_left_out_of_ex(self, capsys, tmp_path, toy_db):
        sql = tmp_path / "q.sql"
        sql.write_text("SELECT name FROM singer\tconcerts\nSELECT nope FROM nowhere\tconcerts\n"
                       "SELECT 1\tghost\n", encoding="utf-8")
        argv = ("eval", "sql", "--gold", str(sql), "--pred", str(sql),
                "--db-dir", str(toy_db.parent))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        code, info_out, err = run(capsys, "--log-level", "info", *argv)
        assert (code, info_out) == (0, out)
        first, second = err.splitlines()
        assert first.startswith("sql eval: EX skips pair 1 on db_id 'concerts': "
                                "gold query failed: ")
        assert second == ("sql eval: EX skips pair 2 on db_id 'ghost': "
                          "gold parse error: unexpected '1' at byte 7 (expected column name); "
                          "database not found for db_id 'ghost'")

    def test_an_unknown_level_is_refused(self, capsys, ingest):
        with pytest.raises(SystemExit) as exit_:
            main(["--log-level", "loud", *ingest])
        assert exit_.value.code == 2
        assert "invalid choice: 'loud'" in capsys.readouterr().err
