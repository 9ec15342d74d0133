"""The one JSON POST path (``gtr._http.post_json``) and its retry policy,
as both the completion and the embedding backends see it."""

import logging
from types import SimpleNamespace

import pytest

from gtr import _http
from gtr.embedding import EmbedderConfig, embed
from gtr.errors import BackendUnavailable
from gtr.llm import LlmConfig, complete

OK = {"choices": [{"text": "ok"}]}


def scripted(*replies):
    """Responder that plays the given (status, payload) replies in order."""
    queue = list(replies)
    return lambda path, body: queue.pop(0)


def llm(server) -> LlmConfig:
    return LlmConfig(backend="http", endpoint_url=server.url)


@pytest.mark.usefixtures("fast_retries")
class TestLlmRetries:
    def test_503_then_200_succeeds(self, json_server):
        server = json_server(scripted((503, {}), (200, OK)))
        assert complete("x", llm(server)).text == "ok"
        assert len(server.requests) == 2

    @pytest.mark.parametrize("reply", [(503, {}), (500, OK), (200, b"not json")],
                             ids=["503", "500", "non-json"])
    def test_three_failures_raise_after_three_requests(self, json_server, reply):
        server = json_server(lambda path, body: reply)
        with pytest.raises(BackendUnavailable, match="llm backend failed after 3 attempts"):
            complete("x", llm(server))
        assert len(server.requests) == 3

    def test_non_json_body_is_retried(self, json_server):
        server = json_server(scripted((200, b"<html>busy</html>"), (200, OK)))
        assert complete("x", llm(server)).text == "ok"
        assert len(server.requests) == 2

    def test_deeply_nested_json_is_retried_then_unavailable(self, json_server, monkeypatch):
        monkeypatch.setattr(_http, "BACKOFF_S", 0)
        server = json_server(lambda path, body: (200, b"[" * 5000))
        with pytest.raises(BackendUnavailable,
                           match="after 3 attempts: returned a body that is not JSON: "
                                 "nested too deeply"):
            complete("x", llm(server))
        assert len(server.requests) == 3

    def test_malformed_json_is_not_retried(self, json_server):
        server = json_server(lambda path, body: (200, {"nope": 1}))
        with pytest.raises(BackendUnavailable, match="malformed body"):
            complete("x", llm(server))
        assert len(server.requests) == 1

    def test_unreachable_endpoint(self):
        config = LlmConfig(backend="http", endpoint_url="http://127.0.0.1:1/", timeout_s=0.2)
        with pytest.raises(BackendUnavailable, match="llm backend .*unreachable"):
            complete("x", config)


@pytest.mark.usefixtures("fast_retries")
class TestWarnings:
    def test_one_warning_per_retry(self, json_server, caplog):
        server = json_server(scripted((503, {}), (502, {}), (200, OK)))
        with caplog.at_level(logging.WARNING, logger="gtr"):
            complete("x", llm(server))
        assert [(r.name, r.levelno) for r in caplog.records] == [("gtr", logging.WARNING)] * 2
        assert "attempt 1 of 3" in caplog.records[0].getMessage()
        assert "HTTP 503" in caplog.records[0].getMessage()
        assert "HTTP 502" in caplog.records[1].getMessage()

    def test_no_warning_without_a_retry(self, json_server, caplog):
        server = json_server(lambda path, body: (200, OK))
        with caplog.at_level(logging.DEBUG, logger="gtr"):
            complete("x", llm(server))
        assert caplog.records == []

    def test_embedding_retries_warn_and_name_the_backend(self, json_server, caplog):
        server = json_server(lambda path, body: (500, {}))
        config = EmbedderConfig(backend="http", dim=4, endpoint_url=server.url)
        with caplog.at_level(logging.WARNING, logger="gtr"):
            with pytest.raises(BackendUnavailable, match="embedding backend failed"):
                embed("hello", config)
        assert len(server.requests) == 3
        assert len(caplog.records) == 2
        assert all(r.getMessage().startswith("embedding backend") for r in caplog.records)


def test_waits_half_a_second_then_one(json_server, monkeypatch):
    waits = []
    monkeypatch.setattr(_http, "time", SimpleNamespace(sleep=waits.append))
    server = json_server(lambda path, body: (503, {}))
    with pytest.raises(BackendUnavailable):
        _http.post_json(server.url, {}, 5.0, "llm")
    assert waits == [0.5, 1.0]


class TestMalformedBodies:
    """A body that is JSON but not the shape a backend sends is refused at
    once, naming the backend, and not retried."""

    @pytest.mark.parametrize("entry", [
        [1.0, [2.0], 3.0, 4.0], [1.0, 2.0, 3.0, "4.0"], ["1.0", 2.0, 3.0, 4.0],
        [True, 0.0, 0.0, 1.0], [1.0, 0.0, False, 1.0], [1.0, 2.0, None, 4.0],
        {"0": 1.0}, "1234", 1.0, None,
    ], ids=["ragged", "string", "leading string", "true", "false", "null",
            "object", "text", "number", "entry null"])
    def test_embedding_entry_not_a_list_of_numbers(self, json_server, entry):
        server = json_server(lambda path, body: (200, {"embeddings": [entry]}))
        config = EmbedderConfig(backend="http", dim=4, endpoint_url=server.url)
        with pytest.raises(BackendUnavailable,
                           match="embedding backend returned an entry that is not a list"):
            embed("hello", config)
        assert len(server.requests) == 1

    def test_embedding_integer_beyond_the_float_range(self, json_server):
        server = json_server(lambda path, body: (200, {"embeddings": [[10 ** 400, 0, 0, 1]]}))
        config = EmbedderConfig(backend="http", dim=4, endpoint_url=server.url)
        with pytest.raises(BackendUnavailable, match="embedding backend .*float range"):
            embed("hello", config)

    @pytest.mark.parametrize("text", [None, 5, ["ok"], {"t": "ok"}, True],
                             ids=["null", "number", "list", "object", "true"])
    def test_completion_text_not_a_string(self, json_server, text):
        server = json_server(lambda path, body: (200, {"choices": [{"text": text}]}))
        with pytest.raises(BackendUnavailable, match="llm backend returned a text that is not"):
            complete("x", llm(server))
        assert len(server.requests) == 1
