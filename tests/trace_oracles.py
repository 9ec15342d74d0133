"""Trace serialisers from before documents and tables shared one trace type.

These are the bodies of the two hand-written ``to_dict`` methods, kept as
oracles for the JSONL lines that ``append_trace`` now writes with
``dataclasses.asdict``. ``answer_to_dict`` is the old ``AnswerTrace.to_dict``.
``tabular_to_dict`` is the old ``TabularTrace.to_dict``: that class named the
selected tables ``selected`` and the extracted SQL ``sql``, which the shared
trace holds in ``retrieved`` and ``answer``.
"""

from __future__ import annotations


def answer_to_dict(self) -> dict:
    return {
        "query": self.query,
        "retrieved": [[rid, score] for rid, score in self.retrieved],
        "prompt": self.prompt,
        "answer": self.answer,
        "completion": {
            "text": self.completion.text,
            "prompt_tokens": self.completion.prompt_tokens,
            "completion_tokens": self.completion.completion_tokens,
            "latency_ms": self.completion.latency_ms,
        },
        "truthful": self.truthful,
    }


def tabular_to_dict(self) -> dict:
    return {
        "query": self.query,
        "selected": [[tid, score] for tid, score in self.retrieved],
        "prompt": self.prompt,
        "sql": self.answer,
        "completion": None
        if self.completion is None
        else {
            "text": self.completion.text,
            "prompt_tokens": self.completion.prompt_tokens,
            "completion_tokens": self.completion.completion_tokens,
            "latency_ms": self.completion.latency_ms,
        },
        "error": None if self.error is None else list(self.error),
    }
