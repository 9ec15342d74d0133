import json

import pytest

from gtr.embedding import EmbedderConfig, embed
from gtr.errors import (
    DuplicateId,
    EmptyContext,
    FingerprintMismatch,
    InvalidInput,
)
from gtr.chunking import Document
from gtr.llm import LlmConfig
from gtr.pipeline import Query, answer, append_trace, compose_prompt, ingest
from gtr.store import VectorStore
from gtr.tables import index_tables, profile_tables, select_tables

from test_store import brute_force_top_k

CONFIG = EmbedderConfig(dim=48)
ECHO = LlmConfig(backend="echo_context")


def ten_token_doc():
    return Document("doc", " ".join(f"w{i}" for i in range(10)))


class TestComposePrompt:
    def test_single_chunk_template(self):
        assert (
            compose_prompt(Query("Q?"), ["C."])
            == "Context:\nC.\n\nQuestion: Q?\nAnswer:"
        )

    def test_two_chunks_in_given_order(self):
        prompt = compose_prompt(Query("Q?"), ["first", "second"])
        assert prompt == "Context:\nfirst\n\nsecond\n\nQuestion: Q?\nAnswer:"

    def test_zero_chunks(self):
        with pytest.raises(EmptyContext):
            compose_prompt(Query("Q?"), [])

    def test_byte_identical_for_identical_inputs(self):
        a = compose_prompt(Query("Q?"), ["x", "y"])
        b = compose_prompt(Query("Q?"), ["x", "y"])
        assert a == b


class TestIngest:
    def test_window_count(self, tmp_path):
        store = ingest(
            [ten_token_doc()],
            chunk_size=4,
            overlap=1,
            embedder_config=CONFIG,
            store_path=tmp_path / "s.jsonl",
        )
        assert len(store) == 3
        assert sorted(r.id for r in store.records) == ["doc:0", "doc:1", "doc:2"]
        assert all(r.kind == "chunk" for r in store.records)
        assert (tmp_path / "s.jsonl").is_file()

    def test_store_round_trips(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ingest([ten_token_doc()], chunk_size=4, overlap=1,
                       embedder_config=CONFIG, store_path=path)
        loaded = VectorStore.load(path)
        assert len(loaded) == len(store)
        assert loaded.embedder_fingerprint == store.embedder_fingerprint

    def test_empty_doc_list(self, tmp_path):
        with pytest.raises(InvalidInput):
            ingest([], embedder_config=CONFIG, store_path=tmp_path / "s.jsonl")

    def test_duplicate_doc_ids(self, tmp_path):
        doc = ten_token_doc()
        with pytest.raises(DuplicateId):
            ingest([doc, doc], chunk_size=4, overlap=1,
                   embedder_config=CONFIG, store_path=tmp_path / "s.jsonl")


class TestAnswer:
    def _store(self, tmp_path, texts, **chunk_kwargs):
        docs = [Document(f"d{i}", text) for i, text in enumerate(texts)]
        return ingest(docs, embedder_config=CONFIG,
                      store_path=tmp_path / "s.jsonl", **chunk_kwargs)

    def test_echo_returns_single_chunk(self, tmp_path):
        store = self._store(tmp_path, ["C."])
        trace = answer(Query("anything?"), store, k=1,
                       embedder_config=CONFIG, llm_config=ECHO)
        assert trace.answer == "C."
        assert trace.completion.text == "C."

    def test_query_identical_to_chunk_is_rank_one(self, tmp_path):
        store = self._store(tmp_path, ["cats purr", "dogs bark"])
        trace = answer(Query("cats purr"), store, k=2,
                       embedder_config=CONFIG, llm_config=ECHO)
        rank1_id, rank1_score = trace.retrieved[0]
        assert store.get(rank1_id).text == "cats purr"
        assert rank1_score == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_matches_brute_force(self, tmp_path):
        store = self._store(tmp_path, ["cats purr", "dogs bark", "fish swim"])
        query = Query("do fish swim in water")
        trace = answer(query, store, k=1, embedder_config=CONFIG, llm_config=ECHO)
        oracle = brute_force_top_k(store, embed(query.text, CONFIG), 1)
        assert trace.retrieved[0][0] == oracle[0][0]

    def test_retrieval_fidelity_full_k(self, tmp_path):
        store = self._store(
            tmp_path,
            ["alpha beta", "beta gamma", "gamma delta", "delta epsilon"],
        )
        query = Query("beta delta")
        trace = answer(query, store, k=4, embedder_config=CONFIG, llm_config=ECHO)
        oracle = brute_force_top_k(store, embed(query.text, CONFIG), 4)
        assert [rid for rid, _ in trace.retrieved] == [rid for rid, _ in oracle]
        for (_, a), (_, b) in zip(trace.retrieved, oracle):
            assert abs(a - b) <= 1e-12

    def test_prompt_records_retrieved_texts_in_order(self, tmp_path):
        store = self._store(tmp_path, ["one fish", "two fish"])
        trace = answer(Query("fish"), store, k=2,
                       embedder_config=CONFIG, llm_config=ECHO)
        texts = [store.get(rid).text for rid, _ in trace.retrieved]
        assert trace.prompt == compose_prompt(Query("fish"), texts)

    def test_empty_store_rejected(self, tmp_path):
        store = VectorStore(CONFIG.dim, "wrong")
        with pytest.raises(InvalidInput, match="empty store"):
            answer(Query("q"), store, embedder_config=CONFIG, llm_config=ECHO)

    def test_fingerprint_mismatch(self, tmp_path):
        store = self._store(tmp_path, ["C."])
        other = EmbedderConfig(dim=CONFIG.dim + 1)
        with pytest.raises(FingerprintMismatch, match="!= configured"):
            answer(Query("q"), store, embedder_config=other, llm_config=ECHO)

    def test_no_config_embeds_with_the_one_the_store_names(self, tmp_path):
        store = self._store(tmp_path, ["cats purr", "dogs bark", "fish swim"])
        assert store.dim == 48
        query = Query("do fish swim in water")
        assert answer(query, store, k=3) == answer(query, store, k=3, embedder_config=CONFIG)
        assert answer(query, store).answer == "fish swim"

    @pytest.mark.parametrize("fp, message", [
        ("hashed_bow:48:0000000000000000", "names no known embedder"),
        ("hashed_bow:49:cbf29ce484222325", "vs store dim 48"),
    ])
    def test_store_naming_no_usable_embedder_is_refused(self, tmp_path, fp, message):
        store = self._store(tmp_path, ["C."])
        store.embedder_fingerprint = fp
        with pytest.raises(FingerprintMismatch, match=message):
            answer(Query("q"), store, llm_config=ECHO)

    def test_tables_share_the_store_guard(self, toy_db):
        with pytest.raises(InvalidInput, match="empty store"):
            select_tables(Query("q"), VectorStore(CONFIG.dim, "wrong"),
                          embedder_config=CONFIG)
        with pytest.raises(FingerprintMismatch, match="!= configured"):
            select_tables(Query("q"), index_tables(profile_tables(toy_db), CONFIG),
                          embedder_config=EmbedderConfig(dim=CONFIG.dim + 1))

    def test_query_validation(self):
        with pytest.raises(InvalidInput):
            Query("   ")


class TestTraceExport:
    def test_append_trace_jsonl(self, tmp_path):
        store = ingest([Document("d", "C.")], embedder_config=CONFIG,
                       store_path=tmp_path / "s.jsonl")
        trace = answer(Query("q?"), store, embedder_config=CONFIG, llm_config=ECHO)
        out = tmp_path / "trace.jsonl"
        append_trace(trace, out)
        append_trace(trace, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["query"] == "q?"
        assert record["answer"] == "C."
        assert record["truthful"] is None
        assert record["retrieved"][0][0] == "d:0"
