"""Uniform completion interface over mock and remote LLM backends.

Mock backends (``echo_context``, ``template_sql``, ``fixed``) are pure
functions of the prompt and config and report zero latency, so runs with
identical inputs produce byte-identical traces. The ``http`` backend speaks
the OpenAI-compatible completions protocol::

    POST endpoint_url {"prompt": ..., "max_tokens": ..., "temperature": ...}
    -> {"choices": [{"text": ...}]}

through the retrying POST it shares with the embedding backend
(:mod:`gtr._http`); its latency covers the whole exchange, retries included.
``GTR_LLM_URL`` supplies the endpoint when the config leaves it unset; an
explicitly configured URL wins so that command-line flags keep precedence
over the environment.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from ._http import post_json
from .chunking import token_count
from .errors import BackendUnavailable, InvalidConfig, InvalidInput, MalformedPrompt

ENV_LLM_URL = "GTR_LLM_URL"

# The prompt templates (pipeline.compose_prompt, tables.compose_sql_prompt)
# are built from these delimiters, and the mock backends parse them back.
CONTEXT_PREFIX = "Context:\n"
_CONTEXT_PREFIX_TOKENS = token_count(CONTEXT_PREFIX)
QUESTION_DELIMITER = "\n\nQuestion: "
QUESTION_LINE_PREFIX = "Question: "

_BACKENDS = ("echo_context", "template_sql", "fixed", "http")


@dataclass
class LlmConfig:
    backend: str = "echo_context"
    endpoint_url: str | None = None
    max_new_tokens: int = 256
    temperature: float = 0.0
    fixed_text: str | None = None
    sql_templates: dict[str, str] = field(default_factory=dict)
    timeout_s: float = 30.0

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise InvalidConfig(f"unknown llm backend: {self.backend!r}")
        if self.max_new_tokens < 1:
            raise InvalidConfig("max_new_tokens must be positive")
        if self.temperature < 0:
            raise InvalidConfig("temperature must be nonnegative")
        if self.backend == "fixed" and self.fixed_text is None:
            raise InvalidConfig("fixed backend requires fixed_text")
        if self.backend != "fixed" and self.fixed_text is not None:
            raise InvalidConfig("fixed_text is only valid with the fixed backend")
        if self.backend != "http" and self.endpoint_url is not None:
            raise InvalidConfig("endpoint_url is only valid with the http backend")


@dataclass
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: float


def extract_context(prompt: str) -> str:
    """Return the context section of a retrieval prompt, verbatim."""
    if not prompt.startswith(CONTEXT_PREFIX):
        raise MalformedPrompt("prompt does not start with the context delimiter")
    # The template appends the question after the context, so the last
    # occurrence of the delimiter is the template's own.
    cut = prompt.rfind(QUESTION_DELIMITER)
    if cut < len(CONTEXT_PREFIX):
        raise MalformedPrompt("prompt has no question delimiter after the context")
    return prompt[len(CONTEXT_PREFIX) : cut]


def extract_question(prompt: str) -> str:
    """Return the text of the prompt's 'Question: ' line.

    Templates place the question after the context blocks, so the last
    matching line is the template's own even if quoted data contains one.
    Lines end at ``\n`` only, as the templates end them, so a question
    holding another line boundary of str.splitlines is read whole.
    """
    for line in reversed(prompt.split("\n")):
        if line.startswith(QUESTION_LINE_PREFIX):
            return line[len(QUESTION_LINE_PREFIX) :]
    raise MalformedPrompt("prompt has no 'Question: ' line")


def complete(prompt: str, config: LlmConfig | None = None) -> Completion:
    """Run one completion; token counts use the shared tokenizer.

    Raises:
        InvalidInput: empty prompt.
        MalformedPrompt: a mock backend cannot find its prompt structure.
        InvalidConfig: http backend with no endpoint configured.
        BackendUnavailable: http failures after retries, or a malformed body.
    """
    config = config or LlmConfig()
    if not prompt:
        raise InvalidInput("prompt must be nonempty")

    if config.backend == "echo_context":
        text = extract_context(prompt)
        completion_tokens = token_count(text)
        # The context lies between a "\n" and a "\n\n", and no token spans
        # whitespace, so the prompt's count is the sum of its three parts'.
        after = prompt[len(CONTEXT_PREFIX) + len(text) :]
        return Completion(text, _CONTEXT_PREFIX_TOKENS + completion_tokens + token_count(after),
                          completion_tokens, 0.0)
    if config.backend == "template_sql":
        question = extract_question(prompt)
        text, latency_ms = config.sql_templates.get(question, "SELECT NULL;"), 0.0
    elif config.backend == "fixed":
        text, latency_ms = config.fixed_text, 0.0
    else:
        url = config.endpoint_url or os.environ.get(ENV_LLM_URL)
        if not url:
            raise InvalidConfig(
                f"http backend needs endpoint_url or the {ENV_LLM_URL} environment variable"
            )
        payload = {"prompt": prompt, "max_tokens": config.max_new_tokens,
                   "temperature": config.temperature}
        started = time.perf_counter()
        body = post_json(url, payload, config.timeout_s, "llm")
        latency_ms = (time.perf_counter() - started) * 1000.0
        try:
            text = body["choices"][0]["text"]
        except (KeyError, IndexError, TypeError) as e:
            raise BackendUnavailable(f"llm backend returned a malformed body: {e}")
        if type(text) is not str:
            raise BackendUnavailable(f"llm backend returned a text that is not a string: "
                                     f"{text!r}")

    return Completion(
        text=text,
        prompt_tokens=token_count(prompt),
        completion_tokens=token_count(text),
        latency_ms=latency_ms,
    )
