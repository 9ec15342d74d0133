"""One trace type for documents and tables: its JSONL lines against the
serialisers it replaced (``tests/trace_oracles.py``)."""

import json

import pytest

from gtr.chunking import Document
from gtr.cli import main
from gtr.embedding import EmbedderConfig
from gtr.errors import StageError
from gtr.llm import LlmConfig
from gtr.pipeline import AnswerTrace, Query, answer, append_trace, ingest
from gtr.tables import answer_tabular, index_tables, profile_tables

from trace_oracles import answer_to_dict, tabular_to_dict

CONFIG = EmbedderConfig(dim=64)
FIELDS = ["query", "retrieved", "prompt", "answer", "completion", "truthful", "error"]
RENAMED = {"selected": "retrieved", "sql": "answer"}

DOCS = [
    Document("mars", "Mars is red because iron oxide dust covers its surface."),
    Document("venus", "Venus is hot: a thick CO₂ atmosphere traps heat — «effet de serre»."),
    Document("moon", "The Moon has no atmosphere, so its sky is black by day."),
]


def ask_line(trace: AnswerTrace) -> str:
    """The seed's ask line with the one field it gains."""
    old = json.dumps(answer_to_dict(trace), ensure_ascii=False)
    assert old.endswith('"truthful": null}')
    return old[:-1] + ', "error": null}\n'


def tables_line(trace: AnswerTrace) -> str:
    """The seed's tables line with its keys renamed and ``truthful`` added."""
    old = {RENAMED.get(key, key): value for key, value in tabular_to_dict(trace).items()}
    assert set(old) | {"truthful"} == set(FIELDS)
    return json.dumps({name: old.get(name) for name in FIELDS}, ensure_ascii=False) + "\n"


def test_fields_in_order_with_empty_defaults():
    trace = AnswerTrace("q")
    assert list(vars(trace)) == FIELDS
    assert trace.retrieved == []
    assert all(getattr(trace, name) is None for name in FIELDS[2:])


class TestAskLines:
    @pytest.mark.parametrize("question, k", [
        ("why is mars red?", 1),
        ("why is mars red?", 3),
        ("CO₂ «effet de serre»?", 2),
    ])
    def test_bytes_equal_oracle_plus_error_null(self, tmp_path, question, k):
        store = ingest(DOCS, chunk_size=6, overlap=2, embedder_config=CONFIG,
                       store_path=tmp_path / "s.jsonl")
        trace = answer(Query(question), store, k=k, embedder_config=CONFIG,
                       llm_config=LlmConfig(backend="echo_context"))
        out = tmp_path / "trace.jsonl"
        append_trace(trace, out)
        append_trace(trace, out)
        assert out.read_text(encoding="utf-8") == ask_line(trace) * 2

    def test_cli_line_equals_oracle(self, capsys, tmp_path):
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(
            json.dumps({"id": d.id, "text": d.text}, ensure_ascii=False) + "\n" for d in DOCS
        ), encoding="utf-8")
        store_path = tmp_path / "s.jsonl"
        assert main(["ingest", "--input", str(docs), "--store", str(store_path),
                     "--chunk-size", "6", "--overlap", "2", "--dim", "64"]) == 0
        out = tmp_path / "trace.jsonl"
        assert main(["ask", "why is mars red?", "--store", str(store_path), "--k", "2",
                     "--llm", "echo", "--dim", "64", "--trace", str(out)]) == 0
        capsys.readouterr()
        trace = answer(Query("why is mars red?"), ingest(
            DOCS, chunk_size=6, overlap=2, embedder_config=CONFIG,
            store_path=tmp_path / "again.jsonl",
        ), k=2, embedder_config=CONFIG, llm_config=LlmConfig(backend="echo_context"))
        assert out.read_text(encoding="utf-8") == ask_line(trace)


TEMPLATE = LlmConfig(backend="template_sql",
                     sql_templates={"how many singers?": "SELECT count(*) FROM singer"})
BAD_SQL = LlmConfig(backend="fixed", fixed_text="SELEC nope FROM singer")
TABLE_CASES = {
    "success": (TEMPLATE, None),
    "execute_sql": (BAD_SQL, "execute_sql"),
    "generate_sql": (LlmConfig(backend="fixed", fixed_text=""), "generate_sql"),
}


def _tabular_trace(llm, toy_db, config=CONFIG) -> AnswerTrace:
    store = index_tables(profile_tables(toy_db), CONFIG)
    try:
        return answer_tabular(Query("how many singers?"), toy_db, store,
                              embedder_config=config, llm_config=llm).trace
    except StageError as e:
        return e.trace


class TestTablesLines:
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_bytes_equal_renamed_oracle(self, tmp_path, toy_db, case):
        llm, stage = TABLE_CASES[case]
        trace = _tabular_trace(llm, toy_db)
        assert (trace.error or (None,))[0] == stage
        out = tmp_path / "trace.jsonl"
        append_trace(trace, out)
        assert out.read_text(encoding="utf-8") == tables_line(trace)

    def test_select_tables_failure_keeps_only_the_query(self, tmp_path, toy_db):
        trace = _tabular_trace(TEMPLATE, toy_db, EmbedderConfig(dim=32))
        assert trace.error[0] == "select_tables"
        assert (trace.retrieved, trace.prompt, trace.answer, trace.completion) == (
            [], None, None, None)
        out = tmp_path / "trace.jsonl"
        append_trace(trace, out)
        assert out.read_text(encoding="utf-8") == tables_line(trace)

    def test_cli_success_line_equals_oracle(self, capsys, tmp_path, toy_db):
        store_path = tmp_path / "t.jsonl"
        mapping = tmp_path / "m.json"
        mapping.write_text(json.dumps({"how many singers?": "SELECT count(*) FROM singer"}),
                           encoding="utf-8")
        out = tmp_path / "trace.jsonl"
        assert main(["tables", "ingest", "--db", str(toy_db), "--store", str(store_path),
                     "--dim", "64"]) == 0
        assert main(["tables", "ask", "how many singers?", "--db", str(toy_db),
                     "--store", str(store_path), "--dim", "64",
                     "--llm", f"template:{mapping}", "--trace", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == tables_line(_tabular_trace(TEMPLATE, toy_db))


class TestTablesAskFailure:
    def test_partial_trace_appended_and_stage_printed_once(self, capsys, tmp_path, toy_db):
        store_path = tmp_path / "t.jsonl"
        out = tmp_path / "trace.jsonl"
        main(["tables", "ingest", "--db", str(toy_db), "--store", str(store_path),
              "--dim", "64"])
        capsys.readouterr()
        code = main(["tables", "ask", "how many singers?", "--db", str(toy_db),
                     "--store", str(store_path), "--dim", "64",
                     "--llm", "fixed:SELEC nope FROM singer", "--trace", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith('error in stage execute_sql: near "SELEC"')
        assert err.count("execute_sql") == 1
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["error"][0] == "execute_sql"
        assert record["answer"] == "SELEC nope FROM singer"
        assert out.read_text(encoding="utf-8") == tables_line(_tabular_trace(BAD_SQL, toy_db))

    def test_no_trace_flag_writes_nothing(self, capsys, tmp_path, toy_db):
        store_path = tmp_path / "t.jsonl"
        main(["tables", "ingest", "--db", str(toy_db), "--store", str(store_path),
              "--dim", "64"])
        code = main(["tables", "ask", "q?", "--db", str(toy_db), "--store", str(store_path),
                     "--dim", "64", "--llm", "fixed:SELEC nope"])
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["concerts.sqlite", "t.jsonl"]
