import dataclasses
import hashlib
import sqlite3
from pathlib import Path

import pytest

import gtr.tables as tables
from gtr.embedding import EmbedderConfig, embed, fingerprint
from gtr.errors import (
    EmptyGeneration,
    EmptySelection,
    InvalidInput,
    NonReadStatement,
    QueryTimeout,
    SqlError,
    StageError,
)
from gtr.llm import LlmConfig
from gtr.pipeline import Query
from gtr.store import VectorRecord, VectorStore
from gtr.tables import (
    answer_tabular,
    compose_sql_prompt,
    embedding_text,
    execute_sql,
    extract_sql,
    index_tables,
    profile_tables,
    prompt_block,
    select_tables,
    serialize_table_csv,
)

import tables_oracles
from conftest import build_toy_db
from fixtures_sql import TABULAR_QUESTIONS
from test_store import brute_force_top_k

CONFIG = EmbedderConfig(dim=64)


class TestProfiles:
    def test_toy_db_has_three_profiles_in_schema_order(self, toy_db):
        profiles = profile_tables(toy_db)
        assert [p.name for p in profiles] == ["singer", "stadium", "concert"]
        singer = profiles[0]
        assert singer.db_id == "concerts"
        assert [c[0] for c in singer.columns] == ["singer_id", "name", "age", "country"]
        assert singer.create_sql.startswith("CREATE TABLE singer (\n    singer_id INTEGER")
        assert len(singer.sample_rows) == 5  # default sample limit

    def test_empty_db(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        sqlite3.connect(path).close()
        assert profile_tables(path) == []

    def test_sample_limit_truncates_csv(self, tmp_path):
        path = tmp_path / "big.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x INTEGER)")
        conn.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(1000)])
        conn.commit()
        conn.close()
        [profile] = profile_tables(path, sample_limit=5)
        assert profile.create_sql == "CREATE TABLE t (x INTEGER)"
        assert profile.csv.splitlines() == ["x", "0", "1", "2", "3", "4"]

    def test_text_that_is_not_utf8_is_a_sql_error_naming_the_table(self, tmp_path):
        path = tmp_path / "bad.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE fine (x TEXT)")
        conn.execute("CREATE TABLE garbled (x TEXT)")
        conn.execute("INSERT INTO garbled VALUES (CAST(x'ff' AS TEXT))")
        conn.commit()
        conn.close()
        with pytest.raises(SqlError, match="^cannot profile table 'garbled': .*UTF-8"):
            profile_tables(path)


class TestCsv:
    def test_simple_table(self):
        assert serialize_table_csv([("a", "int"), ("b", "int")], [(1, 2)]) == "a,b\n1,2\n"

    def test_rfc_4180_quoting(self):
        out = serialize_table_csv([("v", "text")], [('say "hi", bye',)])
        assert out == 'v\n"say ""hi"", bye"\n'

    def test_header_only(self):
        assert serialize_table_csv([("a", ""), ("b", "")], []) == "a,b\n"

    def test_null_renders_empty(self):
        assert serialize_table_csv([("a", ""), ("b", "")], [(None, 1)]) == "a,b\n,1\n"

    def test_no_columns_rejected(self):
        with pytest.raises(InvalidInput):
            serialize_table_csv([], [])


class TestIndexAndSelect:
    def test_one_record_per_table(self, toy_db, tmp_path):
        profiles = profile_tables(toy_db)[:2]
        store = index_tables(profiles, CONFIG, tmp_path / "t.jsonl")
        assert len(store) == 2
        assert sorted(r.id for r in store.records) == [
            "concerts.singer",
            "concerts.stadium",
        ]
        assert all(r.kind == "table" for r in store.records)

    def test_record_text_begins_with_table_name(self, toy_db):
        profiles = profile_tables(toy_db)
        store = index_tables(profiles, CONFIG)
        for record in store.records:
            assert record.text.startswith(f"table: {record.metadata['name']}")

    def test_query_equal_to_embedding_text_scores_one(self, toy_db):
        profiles = profile_tables(toy_db)
        store = index_tables(profiles, CONFIG)
        text = embedding_text(profiles[0])
        [(rid, score), *_] = select_tables(Query(text), store, 1, embedder_config=CONFIG)
        assert rid == "concerts.singer"
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_k_equal_to_table_count_returns_all(self, toy_db):
        store = index_tables(profile_tables(toy_db), CONFIG)
        result = select_tables(Query("anything"), store, 3, embedder_config=CONFIG)
        assert len(result) == 3

    def test_rank_one_matches_embedding_oracle(self, toy_db):
        store = index_tables(profile_tables(toy_db), CONFIG)
        query = Query("how many singer names are there")
        qvec = embed(query.text, CONFIG)
        oracle = brute_force_top_k(store, qvec, 1)
        got = select_tables(query, store, 1, embedder_config=CONFIG)
        assert got[0][0] == oracle[0][0]

    def test_two_table_db_singer_wins_by_tie_break(self, tmp_path):
        # With the default dimension the query shares no token (and no hash
        # bucket) with either table text, so both score 0.0 and the
        # ascending-id tie break puts singer first; the full-scan oracle
        # agrees.
        path = tmp_path / "demo.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE singer (name TEXT, age INTEGER);"
            "CREATE TABLE stadium (capacity INTEGER);"
            "INSERT INTO singer VALUES ('Joe', 52);"
            "INSERT INTO stadium VALUES (19200);"
        )
        conn.commit()
        conn.close()
        config = EmbedderConfig()  # default dim
        store = index_tables(profile_tables(path), config)
        query = Query("how many singers are older than 30")
        got = select_tables(query, store, 1, embedder_config=config)
        oracle = brute_force_top_k(store, embed(query.text, config), 1)
        assert got[0][0] == oracle[0][0] == "demo.singer"

    def test_non_table_record_rejected(self, toy_db):
        store = index_tables(profile_tables(toy_db), CONFIG)
        store.insert(
            VectorRecord("stray", embed("stray", CONFIG), "chunk", "stray")
        )
        with pytest.raises(InvalidInput):
            select_tables(Query("q"), store, 1, embedder_config=CONFIG)

    def test_empty_profiles_rejected(self):
        with pytest.raises(InvalidInput):
            index_tables([], CONFIG)

    def test_http_embeds_one_request_per_batch(self, toy_db, tmp_path, json_server):
        server = json_server(lambda path, body: (200, {"embeddings": [
            embed(text, CONFIG).tolist() for text in body["inputs"]]}))
        config = EmbedderConfig(backend="http", dim=CONFIG.dim, endpoint_url=server.url,
                                batch_size=2)
        profiles = profile_tables(toy_db)
        index_tables(profiles, config, tmp_path / "batched.gtr")
        assert len(server.requests) == 2  # 3 tables, 2 per request; one per table sent 3
        # The bytes equal a store made the old way, one embed call per table.
        one_by_one = VectorStore(config.dim, fingerprint(config))
        for profile, record in zip(profiles, index_tables(profiles, config).records):
            text = embedding_text(profile)
            one_by_one.insert(VectorRecord(record.id, embed(text, config), "table", text,
                                           record.metadata))
        one_by_one.save(tmp_path / "one_by_one.gtr")
        assert (tmp_path / "batched.gtr").read_bytes() == (tmp_path / "one_by_one.gtr").read_bytes()


class TestSqlPrompt:
    def test_single_table_block(self, toy_db):
        [singer, *_] = profile_tables(toy_db, sample_limit=1)
        prompt = compose_sql_prompt([prompt_block(singer)], Query("how many?"))
        assert prompt.startswith(
            "Table singer(singer_id INTEGER, name TEXT, age INTEGER, country TEXT)\n"
        )
        assert prompt.count("Table ") == 1
        assert prompt.endswith("Question: how many?\nSQL:")
        assert "singer_id,name,age,country\n1,Joe Sharp,52,Netherlands\n" in prompt

    def test_blocks_in_given_order(self, toy_db):
        blocks = [prompt_block(p) for p in profile_tables(toy_db, sample_limit=0)]
        prompt = compose_sql_prompt([blocks[1], blocks[0]], Query("q"))
        assert prompt.index("Table stadium") < prompt.index("Table singer")

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            compose_sql_prompt([], Query("q"))


class TestExtractSql:
    def test_fenced_block(self):
        assert extract_sql("```sql\nSELECT 1;\n```") == "SELECT 1"

    def test_plain_fence(self):
        assert extract_sql("```\nSELECT a FROM t\n```") == "SELECT a FROM t"

    @pytest.mark.parametrize("completion", ["```SELECT 1```", "```SELECT 1;``` done"])
    def test_one_line_fence(self, completion):
        assert extract_sql(completion) == "SELECT 1"

    def test_one_line_fence_before_the_sql_fence_is_not_the_sql(self):
        completion = "The table ```singer``` holds it:\n```sql\nSELECT name FROM singer\n```"
        assert extract_sql(completion) == "SELECT name FROM singer"

    def test_first_statement_only(self):
        assert extract_sql("SELECT a FROM t; DROP TABLE t;") == "SELECT a FROM t"

    @pytest.mark.parametrize(
        "completion",
        [
            "SELECT name FROM singer WHERE name = 'a;b';",
            "```sql\nSELECT name FROM singer WHERE name = 'a;b';\n```",
        ],
    )
    def test_semicolon_inside_string(self, completion):
        assert extract_sql(completion) == "SELECT name FROM singer WHERE name = 'a;b'"

    def test_semicolon_inside_identifier_or_comment(self):
        sql = 'SELECT "a;b", [c;d] FROM t -- e;f\nWHERE x = 1 /* ; */; DROP TABLE t'
        assert extract_sql(sql) == sql.split("; DROP")[0]

    def test_whitespace_only(self):
        with pytest.raises(EmptyGeneration):
            extract_sql("   ")


@pytest.fixture
def guard_db(tmp_path, monkeypatch):
    """The toy database plus a column named like a write keyword and a
    view, alone in the working directory, so that a file a statement names
    by a relative path would appear beside it."""
    path = tmp_path / "concerts.sqlite"
    build_toy_db(path)
    conn = sqlite3.connect(path)
    conn.executescript(
        "CREATE TABLE albums (title TEXT, release INTEGER);"
        "INSERT INTO albums VALUES ('Shadows', 2014), ('Encore', 2017);"
        "CREATE VIEW adults AS SELECT name FROM singer WHERE age >= 30;"
    )
    conn.close()
    monkeypatch.chdir(tmp_path)
    return path


class TestReadOnlyGuard:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT 1",
            "select name from singer where country = 'x'",
            "WITH t AS (SELECT 1 AS x) SELECT x FROM t",
            "SELECT 'insert' FROM singer",  # keyword inside a string is data
            "SELECT replace(name, 'a', 'b') FROM singer",  # string function
            "SELECT title, release FROM albums",  # a column named like a write verb
            "SELECT key, value FROM json_each('[10, 20]')",
            "SELECT name, type FROM pragma_table_info('albums')",
            "WITH RECURSIVE n(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM n WHERE x < 4) "
            "SELECT x FROM n",
            "SELECT name, rank() OVER (ORDER BY age DESC) FROM singer",
            "SELECT name FROM adults",
            "VALUES (1, 'a'), (2, 'b')",
            "PRAGMA table_info(singer)",
            "PRAGMA TABLE_INFO(albums)",
        ],
    )
    def test_reads_allowed(self, guard_db, sql):
        conn = sqlite3.connect(guard_db)
        try:
            cursor = conn.execute(sql)
            expected = ([d[0] for d in cursor.description], cursor.fetchall())
        finally:
            conn.close()
        result = execute_sql(sql, guard_db)
        assert (result.columns, result.rows) == expected

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM singer",
            "INSERT INTO singer VALUES (1)",
            "UPDATE singer SET age = 1",
            "DROP TABLE singer",
            "WITH t AS (SELECT 1) INSERT INTO singer SELECT * FROM t",
            "REPLACE INTO singer VALUES (1)",
            "WITH t AS (SELECT 1) REPLACE INTO singer SELECT * FROM t",
            "INSERT OR REPLACE INTO singer VALUES (1)",
            "PRAGMA journal_mode = DELETE",
            "VACUUM",
            "ATTACH 'file:x.db?mode=rwc' AS x",
            "VACUUM INTO 'copy.db'",
            "CREATE TEMP TABLE t(a)",
            "PRAGMA user_version = 5",
            "PRAGMA user_version",
            "BEGIN",
            "EXPLAIN DELETE FROM singer",
            "REINDEX",
            "UPDATE sqlite_master SET sql = ''",
            "UPDATE adults SET name = 'x'",
            "",
            "-- c",
        ],
    )
    def test_writes_rejected(self, guard_db, sql):
        before = hashlib.sha256(guard_db.read_bytes()).hexdigest()
        files = sorted(guard_db.parent.iterdir())
        with pytest.raises(NonReadStatement):
            execute_sql(sql, guard_db)
        assert hashlib.sha256(guard_db.read_bytes()).hexdigest() == before
        assert sorted(guard_db.parent.iterdir()) == files

    @pytest.mark.parametrize("sql", ["", "-- c", "/* c */"])
    def test_empty_statement_says_so(self, toy_db, sql):
        with pytest.raises(NonReadStatement, match="statement is empty"):
            execute_sql(sql, toy_db)


class TestExecuteSql:
    def test_count(self, toy_db):
        result = execute_sql("SELECT COUNT(*) FROM singer", toy_db)
        assert result.rows == [(6,)]
        assert result.columns == ["COUNT(*)"]
        assert result.truncated is False

    @pytest.mark.parametrize("sql", ["SELEC name FROM singer", "1e5",
                                     "SELECT 1; DROP TABLE singer"])
    def test_syntax_error(self, toy_db, sql):
        with pytest.raises(SqlError):
            execute_sql(sql, toy_db)

    @pytest.mark.parametrize("sql", ["SELECT [may not be modified] FROM singer",
                                     "SELECT [not authorized] FROM singer",
                                     "SELECT * FROM [because it is a view]"])
    def test_read_error_quoting_a_refusal_is_sql_error(self, toy_db, sql):
        # The engine's message quotes the name; only SQLite's whole refusal
        # message marks a statement as more than a read.
        with pytest.raises(SqlError, match="^no such"):
            execute_sql(sql, toy_db)

    def test_write_rejected(self, toy_db):
        with pytest.raises(NonReadStatement, match="statement may only read"):
            execute_sql("DELETE FROM singer", toy_db)

    def test_lone_surrogate_is_sql_error(self, toy_db):
        # sqlite3 cannot encode it and used to raise UnicodeEncodeError.
        with pytest.raises(SqlError, match="not valid Unicode"):
            execute_sql("SELECT 'a\ud800'", toy_db)

    def test_row_limit_truncates(self, toy_db):
        result = execute_sql("SELECT name FROM singer", toy_db, row_limit=2)
        assert len(result.rows) == 2
        assert result.truncated is True

    @pytest.mark.parametrize("limit", [0, -1])
    def test_row_limit_below_one_is_refused(self, toy_db, limit):
        # fetchmany(0) fetches every row: a limit of 0 used to return all
        # six, with truncated False.
        with pytest.raises(InvalidInput, match=f"row_limit must be positive or None, got {limit}"):
            execute_sql("SELECT name FROM singer", toy_db, row_limit=limit)

    @pytest.mark.parametrize("timeout_ms", [0, -1])
    def test_timeout_below_one_ms_is_refused(self, toy_db, timeout_ms):
        # The deadline is checked every 5,000 SQLite steps, so a budget of
        # 0 used to answer any statement shorter than that.
        with pytest.raises(InvalidInput, match=f"timeout_ms must be positive, got {timeout_ms}"):
            execute_sql("SELECT count(*) FROM singer", toy_db, timeout_ms=timeout_ms)

    def test_no_row_limit_fetches_every_row(self, toy_db):
        result = execute_sql("SELECT name FROM singer", toy_db, row_limit=None)
        assert (len(result.rows), result.truncated) == (6, False)

    @pytest.mark.parametrize("name", ["a#b.sqlite", "c?d.sqlite", "e%20f.sqlite"])
    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    def test_path_with_uri_characters_opens_read_only(self, tmp_path, monkeypatch, name,
                                                      relative):
        # Unquoted, "#" and "?" cut the URI short, dropping mode=ro and
        # creating an empty file named by the text before them; "%20"
        # named a file with a space.
        db = tmp_path / name
        build_toy_db(db)
        before = hashlib.sha256(db.read_bytes()).hexdigest()
        files = sorted(tmp_path.iterdir())
        if relative:
            monkeypatch.chdir(tmp_path)
            db = Path(name)
        assert execute_sql("SELECT count(*) FROM singer", db).rows == [(6,)]
        # The connection is this thread's shared one: it stays open.
        conn = tables._connect_readonly(db)
        conn.set_authorizer(None)  # so that mode=ro alone must refuse the write
        try:
            with pytest.raises(sqlite3.OperationalError, match="readonly"):
                conn.execute("CREATE TABLE t (x)")
        finally:
            conn.set_authorizer(tables._authorize_read)
        assert sorted(tmp_path.iterdir()) == files
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == before

    def test_timeout(self, toy_db):
        heavy = (
            "SELECT count(*) FROM singer a, singer b, singer c, singer d, "
            "singer e, singer f, singer g, singer h, singer i"
        )
        with pytest.raises(QueryTimeout):
            execute_sql(heavy, toy_db, timeout_ms=5)

    def test_database_file_never_mutates(self, toy_db):
        before = hashlib.sha256(toy_db.read_bytes()).hexdigest()
        execute_sql("SELECT * FROM concert", toy_db)
        for bad in ("DELETE FROM singer", "DROP TABLE concert"):
            with pytest.raises(NonReadStatement):
                execute_sql(bad, toy_db)
        assert hashlib.sha256(toy_db.read_bytes()).hexdigest() == before


class TestAnswerTabular:
    def _store(self, toy_db):
        return index_tables(profile_tables(toy_db), CONFIG)

    def test_template_mock_end_to_end(self, toy_db):
        question = "how many singers?"
        llm = LlmConfig(
            backend="template_sql",
            sql_templates={question: "SELECT count(*) FROM singer"},
        )
        result = answer_tabular(
            Query(question), toy_db, self._store(toy_db),
            embedder_config=CONFIG, llm_config=llm,
        )
        assert result.trace.answer == "SELECT count(*) FROM singer"
        assert result.result.rows == [(6,)]
        assert result.trace.error is None
        assert len(result.trace.retrieved) == 3

    def test_invalid_sql_is_stage_labeled(self, toy_db):
        llm = LlmConfig(backend="fixed", fixed_text="SELEC nope FROM singer")
        with pytest.raises(StageError) as exc_info:
            answer_tabular(Query("q?"), toy_db, self._store(toy_db),
                           embedder_config=CONFIG, llm_config=llm)
        err = exc_info.value
        assert err.stage == "execute_sql"
        assert err.trace.error[0] == "execute_sql"
        assert isinstance(err.__cause__, SqlError)

    def test_lone_surrogate_fails_the_select_stage(self, toy_db):
        # Query refuses such text; one that holds it anyway fails in a stage.
        query = Query("q?")
        object.__setattr__(query, "text", "q \udcff?")
        llm = LlmConfig(backend="fixed", fixed_text="SELECT name FROM singer")
        with pytest.raises(StageError) as exc_info:
            answer_tabular(query, toy_db, self._store(toy_db),
                           embedder_config=CONFIG, llm_config=llm)
        assert exc_info.value.stage == "select_tables"
        assert isinstance(exc_info.value.__cause__, InvalidInput)

    def test_row_limit_below_one_is_refused_before_any_stage(self, toy_db):
        llm = LlmConfig(backend="fixed", fixed_text="SELECT name FROM singer")
        with pytest.raises(InvalidInput, match="row_limit must be positive"):
            answer_tabular(Query("q?"), toy_db, self._store(toy_db),
                           embedder_config=CONFIG, llm_config=llm, row_limit=0)

    def test_timeout_below_one_ms_is_refused_before_any_stage(self, toy_db, monkeypatch):
        monkeypatch.setattr(tables, "select_tables", lambda *a, **k: pytest.fail("ran"))
        llm = LlmConfig(backend="fixed", fixed_text="SELECT name FROM singer")
        with pytest.raises(InvalidInput, match="timeout_ms must be positive, got 0"):
            answer_tabular(Query("q?"), toy_db, self._store(toy_db),
                           embedder_config=CONFIG, llm_config=llm, timeout_ms=0)

    def test_write_generation_is_rejected(self, toy_db):
        llm = LlmConfig(backend="fixed", fixed_text="DELETE FROM singer")
        with pytest.raises(StageError) as exc_info:
            answer_tabular(Query("q?"), toy_db, self._store(toy_db),
                           embedder_config=CONFIG, llm_config=llm)
        assert isinstance(exc_info.value.__cause__, NonReadStatement)

    def test_trace_composes_from_stage_outputs(self, toy_db):
        question = "What is the maximum capacity of any stadium?"
        llm = LlmConfig(
            backend="template_sql",
            sql_templates={question: "SELECT max(capacity) FROM stadium"},
        )
        store = self._store(toy_db)
        result = answer_tabular(Query(question), toy_db, store,
                                embedder_config=CONFIG, llm_config=llm)
        # Re-run every stage by hand with the same inputs.
        selected = select_tables(Query(question), store, 3, embedder_config=CONFIG)
        assert result.trace.retrieved == selected
        blocks = [store.get(tid).metadata["prompt_block"] for tid, _ in selected]
        prompt = compose_sql_prompt(blocks, Query(question))
        assert result.trace.prompt == prompt
        assert result.trace.answer == "SELECT max(capacity) FROM stadium"
        assert result.result.rows == [(32609,)]

    @pytest.mark.parametrize("change", [
        "ALTER TABLE singer RENAME TO performer",
        "DROP TABLE singer",
    ])
    def test_stale_index_names_the_missing_table(self, toy_db, change):
        store = self._store(toy_db)
        conn = sqlite3.connect(toy_db)
        conn.execute(change)
        conn.commit()
        conn.close()
        llm = LlmConfig(backend="template_sql")
        with pytest.raises(InvalidInput, match="'singer'.*re-run `gtr tables ingest`"):
            answer_tabular(Query("how many singers?"), toy_db, store,
                           embedder_config=CONFIG, llm_config=llm)

    def test_store_from_other_db_rejected(self, toy_db, tmp_path):
        other = tmp_path / "other.sqlite"
        conn = sqlite3.connect(other)
        conn.execute("CREATE TABLE alone (x INTEGER)")
        conn.commit()
        conn.close()
        store = index_tables(profile_tables(other), CONFIG)
        with pytest.raises(InvalidInput):
            answer_tabular(Query("q"), toy_db, store,
                           embedder_config=CONFIG,
                           llm_config=LlmConfig(backend="template_sql"))


class TestProfileTakenAtIngest:
    """answer_tabular reads the profile index_tables stored; it profiles
    nothing per question."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_prompt_bytes_equal_the_per_question_oracle(self, toy_db, tmp_path, k):
        path = tmp_path / "t.jsonl"
        index_tables(profile_tables(toy_db), CONFIG, path)
        store = VectorStore.load(path)  # the blocks survive save and load
        llm = LlmConfig(backend="template_sql",
                        sql_templates={q: sql for q, (sql, _) in TABULAR_QUESTIONS.items()})
        for question in TABULAR_QUESTIONS:
            trace = answer_tabular(Query(question), toy_db, store, k=k,
                                   embedder_config=CONFIG, llm_config=llm).trace
            oracle = tables_oracles.ask_time_prompt(toy_db, store, trace.retrieved,
                                                    Query(question))
            assert trace.prompt == oracle, question

    def test_makes_no_profile_call(self, toy_db, monkeypatch):
        import gtr.tables as tables_module

        store = index_tables(profile_tables(toy_db), CONFIG)
        monkeypatch.setattr(tables_module, "profile_tables", None)
        result = answer_tabular(Query("q?"), toy_db, store, embedder_config=CONFIG,
                                llm_config=LlmConfig(backend="fixed", fixed_text="SELECT 1"))
        assert result.result.rows == [(1,)]

    def test_prompt_shows_the_sample_limit_of_ingest(self, toy_db):
        store = index_tables(profile_tables(toy_db, sample_limit=1), CONFIG)
        trace = answer_tabular(Query("q?"), toy_db, store, k=3, embedder_config=CONFIG,
                               llm_config=LlmConfig(backend="fixed", fixed_text="SELECT 1")).trace
        *blocks, question = trace.prompt.split("\n\n")
        # Each toy table has at least three rows; each block shows one.
        assert [len(block.splitlines()) for block in blocks] == [3, 3, 3]
        assert "1,Joe Sharp,52,Netherlands" in trace.prompt
        assert "2,Timbaland" not in trace.prompt
        assert question == "Question: q?\nSQL:"

    def test_rows_added_after_ingest_are_not_refused(self, toy_db):
        store = index_tables(profile_tables(toy_db), CONFIG)
        conn = sqlite3.connect(toy_db)
        conn.execute("INSERT INTO stadium VALUES (4, 'New Arena', 1000, 'Lima')")
        conn.commit()
        conn.close()
        llm = LlmConfig(backend="fixed", fixed_text="SELECT count(*) FROM stadium")
        result = answer_tabular(Query("q?"), toy_db, store, embedder_config=CONFIG,
                                llm_config=llm)
        assert result.result.rows == [(4,)]
        assert "Ricoh Arena" in result.trace.prompt
        assert "New Arena" not in result.trace.prompt

    @pytest.mark.parametrize("change", [
        "ALTER TABLE stadium ADD COLUMN z",
        "ALTER TABLE stadium RENAME COLUMN location TO city",
    ])
    def test_schema_change_after_ingest_names_the_table(self, toy_db, change):
        store = index_tables(profile_tables(toy_db), CONFIG)
        conn = sqlite3.connect(toy_db)
        conn.execute(change)
        conn.commit()
        conn.close()
        with pytest.raises(InvalidInput, match="'stadium'.*re-run `gtr tables ingest`"):
            answer_tabular(Query("q?"), toy_db, store, embedder_config=CONFIG,
                           llm_config=LlmConfig(backend="template_sql"))

    @pytest.mark.parametrize("dropped", [
        ("prompt_block", "create_sql"),  # a store written before schemas were stored
        ("create_sql",),
        ("prompt_block",),
    ])
    def test_store_without_stored_profile_is_refused(self, toy_db, tmp_path, dropped):
        path = tmp_path / "t.jsonl"
        fresh = index_tables(profile_tables(toy_db), CONFIG)
        stale = VectorStore(fresh.dim, fresh.embedder_fingerprint)
        for record in fresh.records:
            kept = {k: v for k, v in record.metadata.items() if k not in dropped}
            stale.insert(dataclasses.replace(record, metadata=kept))
        stale.save(path)
        with pytest.raises(InvalidInput, match="'singer'.*re-run `gtr tables ingest`"):
            answer_tabular(Query("q?"), toy_db, VectorStore.load(path),
                           embedder_config=CONFIG,
                           llm_config=LlmConfig(backend="template_sql"))
