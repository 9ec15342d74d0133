"""Integration tests driving the pipelines through the HTTP wire protocols
with local servers standing in for remote embedding and completion services."""

import math

import numpy as np
import pytest

import metrics_oracles as oracle
from gtr import metrics
from gtr.chunking import Document
from gtr.embedding import EmbedderConfig, embed
from gtr.llm import LlmConfig
from gtr.metrics import GtrEvalItem, aggregate
from gtr.pipeline import Query, answer, ingest
from gtr.tables import answer_tabular, index_tables, profile_tables

DIM = 48
LOCAL = EmbedderConfig(dim=DIM)  # the server-side stand-in math


def embedding_responder(path, body):
    vectors = [embed(text, LOCAL).tolist() for text in body["inputs"]]
    return 200, {"embeddings": vectors}


class TestRemoteEmbedder:
    def test_ingest_and_answer_through_the_wire(self, json_server, tmp_path):
        server = json_server(embedding_responder)
        config = EmbedderConfig(
            backend="http", dim=DIM, endpoint_url=server.url + "embed", batch_size=2
        )
        docs = [Document("d", "alpha beta gamma delta epsilon zeta")]
        store = ingest(
            docs, chunk_size=2, overlap=0,
            embedder_config=config, store_path=tmp_path / "s.jsonl",
        )
        assert len(store) == 3
        assert len(server.requests) == 2  # ceil(3 chunks / batch 2)

        trace = answer(
            Query("gamma delta"), store, k=1,
            embedder_config=config, llm_config=LlmConfig(backend="echo_context"),
        )
        assert trace.answer == "gamma delta"
        # Wire vectors agree with the local reference computation up to the
        # client's re-normalization.
        local = embed("gamma delta", LOCAL)
        stored = store.get(trace.retrieved[0][0]).vector
        assert np.allclose(stored, local, atol=1e-12)


class TestRemoteSas:
    @pytest.mark.parametrize("slice_items", [5, metrics.SAS_SLICE_ITEMS])
    def test_one_request_per_batch_of_distinct_texts(self, json_server, monkeypatch,
                                                     tmp_path, slice_items):
        monkeypatch.setattr(metrics, "SAS_SLICE_ITEMS", slice_items)
        server = json_server(embedding_responder)
        config = EmbedderConfig(
            backend="http", dim=DIM, endpoint_url=server.url + "embed", batch_size=3
        )
        answers = ["titan orbits saturn", "Titan orbits Saturn.", "europa", "no idea", ""]
        items = [GtrEvalItem(f"q{i}", answers[i % 3], answers[i % 5], 1, float(i))
                 for i in range(17)]
        report = aggregate(items, config)
        expected_requests = 0
        for first in range(0, len(items), slice_items):
            texts = {t for i in items[first : first + slice_items] if i.candidate
                     for t in (i.candidate, i.reference)}
            expected_requests += math.ceil(len(texts) / config.batch_size)
        assert len(server.requests) == expected_requests
        assert all(len(body["inputs"]) <= 3 for _, body in server.requests)

        per_item = oracle.aggregate(items, config)  # two requests per scored item
        assert len(server.requests) == expected_requests + 2 * sum(
            1 for i in items if i.candidate)
        report.write_jsonl(tmp_path / "batched.jsonl")
        per_item.write_jsonl(tmp_path / "per_item.jsonl")
        assert ((tmp_path / "batched.jsonl").read_bytes()
                == (tmp_path / "per_item.jsonl").read_bytes())


class TestRemoteCompletions:
    def test_answer_with_remote_llm(self, json_server, tmp_path):
        def responder(path, body):
            assert body["prompt"].startswith("Context:\n")
            return 200, {"choices": [{"text": "a remote answer"}]}

        server = json_server(responder)
        config = EmbedderConfig(dim=DIM)
        store = ingest(
            [Document("d", "some context text")],
            embedder_config=config, store_path=tmp_path / "s.jsonl",
        )
        trace = answer(
            Query("what?"), store, k=1, embedder_config=config,
            llm_config=LlmConfig(backend="http", endpoint_url=server.url),
        )
        assert trace.answer == "a remote answer"
        assert trace.completion.latency_ms > 0.0

    def test_tabular_with_remote_llm_strips_fences(self, json_server, toy_db):
        def responder(path, body):
            assert body["prompt"].endswith("\nSQL:")
            return 200, {"choices": [{"text": "```sql\nSELECT count(*) FROM singer;\n```"}]}

        server = json_server(responder)
        config = EmbedderConfig(dim=DIM)
        store = index_tables(profile_tables(toy_db), config)
        result = answer_tabular(
            Query("how many singers?"), toy_db, store,
            embedder_config=config,
            llm_config=LlmConfig(backend="http", endpoint_url=server.url),
        )
        assert result.trace.answer == "SELECT count(*) FROM singer"
        assert result.result.rows == [(6,)]
