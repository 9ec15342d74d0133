import random

import pytest

from gtr.chunking import token_count
from gtr.errors import BackendUnavailable, InvalidConfig, InvalidInput, MalformedPrompt
from gtr.llm import Completion, LlmConfig, complete, extract_context, extract_question
from gtr.pipeline import Query, compose_prompt

PROMPT = "Context:\nC.\n\nQuestion: Q?\nAnswer:"


class TestEchoContext:
    def test_returns_context_verbatim(self):
        completion = complete(PROMPT, LlmConfig(backend="echo_context"))
        assert completion.text == "C."

    def test_multi_chunk_context(self):
        prompt = "Context:\nfirst\n\nsecond\n\nQuestion: Q?\nAnswer:"
        assert extract_context(prompt) == "first\n\nsecond"

    def test_malformed_prompt(self):
        with pytest.raises(MalformedPrompt):
            complete("no delimiters here", LlmConfig(backend="echo_context"))
        with pytest.raises(MalformedPrompt):
            complete("Context:\nonly context", LlmConfig(backend="echo_context"))


class TestFixed:
    def test_returns_fixed_text_regardless_of_prompt(self):
        config = LlmConfig(backend="fixed", fixed_text="42")
        assert complete(PROMPT, config).text == "42"
        assert complete("anything", config).text == "42"


class TestTemplateSql:
    def test_registered_question(self):
        config = LlmConfig(
            backend="template_sql",
            sql_templates={"how many singers?": "SELECT count(*) FROM singer"},
        )
        prompt = "Table singer(name text)\nname\n\nQuestion: how many singers?\nSQL:"
        assert complete(prompt, config).text == "SELECT count(*) FROM singer"

    def test_unregistered_question_gives_null_select(self):
        config = LlmConfig(backend="template_sql")
        prompt = "Question: anything?\nSQL:"
        assert complete(prompt, config).text == "SELECT NULL;"

    def test_no_question_line(self):
        with pytest.raises(MalformedPrompt):
            complete("just text", LlmConfig(backend="template_sql"))

    def test_extract_question(self):
        assert extract_question("a\nQuestion: who?\nSQL:") == "who?"

    # Every line boundary of str.splitlines other than \n, \r and \r\n.
    @pytest.mark.parametrize("boundary", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                          "\x1c", "\x1d", "\x1e"])
    def test_a_question_holding_another_line_boundary_is_read_whole(self, boundary):
        question = f"how many singers{boundary}are there"
        config = LlmConfig(backend="template_sql",
                           sql_templates={question: "SELECT count(*) FROM singer"})
        prompt = f"Table singer(name text)\nname\n\nQuestion: {question}\nSQL:"
        assert extract_question(prompt) == question
        assert complete(prompt, config).text == "SELECT count(*) FROM singer"


class TestContract:
    def test_mock_determinism_and_zero_latency(self):
        config = LlmConfig(backend="echo_context")
        a = complete(PROMPT, config)
        b = complete(PROMPT, config)
        assert a == b
        assert a.latency_ms == 0.0

    def test_token_accounting(self):
        completion = complete(PROMPT, LlmConfig(backend="echo_context"))
        assert completion.prompt_tokens == token_count(PROMPT)
        assert completion.completion_tokens == token_count("C.")

    def test_echo_token_accounting_over_random_prompts(self):
        # The echo backend counts the context once and adds the rest of the
        # prompt's tokens; the sum must equal a count of the whole prompt.
        alphabet = ["a", "Zz", "é", "中", "_", "7", ".", ":", "?", "😀", "\u0301", " ",
                    "\n", "\t", "\xa0", "\u2028", "\x85", "\u3000", "Question", "Context"]
        rng = random.Random(23)

        def text():
            return "".join(rng.choices(alphabet, k=rng.randint(0, 12)))

        config = LlmConfig(backend="echo_context")
        for i in range(1000):
            question = "q" + text()
            if i % 4 == 0:
                question += "\n\nQuestion: " + text()
            chunks = [text() for _ in range(rng.randint(1, 3))]
            prompt = compose_prompt(Query(question), chunks)
            completion = complete(prompt, config)
            assert completion.prompt_tokens == token_count(prompt), repr(prompt)
            assert completion.completion_tokens == token_count(completion.text)
            assert completion.text == extract_context(prompt)

    def test_empty_prompt_rejected(self):
        with pytest.raises(InvalidInput):
            complete("", LlmConfig(backend="echo_context"))

    def test_config_invariants(self):
        with pytest.raises(InvalidConfig):
            LlmConfig(backend="fixed")  # missing fixed_text
        with pytest.raises(InvalidConfig):
            LlmConfig(backend="echo_context", fixed_text="x")
        with pytest.raises(InvalidConfig):
            LlmConfig(backend="echo_context", endpoint_url="http://x/")
        # The environment is the CLI's to read; the http backend needs its URL.
        with pytest.raises(InvalidConfig, match="^endpoint_url must be set iff backend is 'http'$"):
            LlmConfig(backend="http")
        with pytest.raises(InvalidConfig):
            LlmConfig(backend="made_up")


@pytest.mark.usefixtures("fast_retries")
class TestHttp:
    def test_wire_protocol(self, json_server):
        def responder(path, body):
            assert set(body) == {"prompt", "max_tokens", "temperature"}
            return 200, {"choices": [{"text": f"len={len(body['prompt'])}"}]}

        server = json_server(responder)
        config = LlmConfig(
            backend="http", endpoint_url=server.url + "v1/completions",
            max_new_tokens=9, temperature=0.0,
        )
        completion = complete("hello", config)
        assert completion.text == "len=5"
        assert server.requests[0][1]["max_tokens"] == 9
        assert completion.latency_ms >= 0.0
        assert isinstance(completion, Completion)

    def test_non_200_is_backend_unavailable(self, json_server):
        server = json_server(lambda p, b: (503, {}))
        config = LlmConfig(backend="http", endpoint_url=server.url)
        with pytest.raises(BackendUnavailable):
            complete("x", config)

    def test_malformed_body(self, json_server):
        server = json_server(lambda p, b: (200, {"nope": 1}))
        config = LlmConfig(backend="http", endpoint_url=server.url)
        with pytest.raises(BackendUnavailable):
            complete("x", config)
