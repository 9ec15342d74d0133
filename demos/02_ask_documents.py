#!/usr/bin/env python3
"""End-to-end document answering: ingest, retrieve, prompt, complete.

The echo mock stands in for a language model: it returns the retrieved
context verbatim, which makes the whole retrieval path visible. Point an
LlmConfig(backend="http", endpoint_url=...) at any OpenAI-compatible
completions endpoint to use a real model instead.
"""

import tempfile
from pathlib import Path

from gtr import Document, EmbedderConfig, LlmConfig, Query, answer, append_trace, ingest

DOCS = [
    Document("planets", (
        "Mercury is the closest planet to the sun. Venus is the hottest "
        "planet. Mars is called the red planet because iron oxide covers "
        "its surface."
    )),
    Document("moons", (
        "Titan orbits Saturn and has a dense atmosphere. Europa orbits "
        "Jupiter and hides an ocean beneath its ice."
    )),
]

workdir = Path(tempfile.mkdtemp(prefix="gtr-demo-"))
config = EmbedderConfig(dim=256)

# Ingest chunks both documents, embeds every chunk, and saves the store.
store = ingest(
    DOCS,
    chunk_size=16,
    overlap=4,
    embedder_config=config,
    store_path=workdir / "store.gtr",
)
print(f"store holds {len(store)} chunks at {workdir / 'store.gtr'}")

# Ask with the echo mock: the answer is the best-matching chunk itself.
trace = answer(
    Query("why is mars red?"),
    store,
    k=1,
    embedder_config=config,
    llm_config=LlmConfig(backend="echo_context"),
)
print("retrieved:", trace.retrieved)
print("prompt sent to the model:")
print(trace.prompt)
print("answer:", trace.answer)

# Traces append as JSONL for later scoring.
append_trace(trace, workdir / "traces.jsonl")
print(f"trace appended to {workdir / 'traces.jsonl'}")
