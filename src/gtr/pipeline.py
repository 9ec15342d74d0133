"""End-to-end retrieval pipeline for unstructured text.

Ingestion chunks documents, embeds every chunk, and persists the vectors;
answering embeds the query, retrieves the top-k chunks by exact cosine
search, composes a fixed-template prompt, and runs the completion backend.

Prompt template (bit-exact, UTF-8, "\\n" newlines)::

    Context:\\n{chunk1}\\n\\n{chunk2}...\\n\\nQuestion: {query}\\nAnswer:

Traces export as JSONL, one answer per line.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from itertools import islice
from typing import Iterable, Sequence

from .chunking import Chunk, Document, chunk_text, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP
from .embedding import EmbedderConfig, config_from_fingerprint, embed, embed_batch, fingerprint
from .errors import DuplicateId, EmptyContext, FingerprintMismatch, InvalidInput
from .llm import Completion, LlmConfig, complete
from .store import VectorRecord, VectorStore


@dataclass(frozen=True)
class Query:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise InvalidInput("query must be nonempty")


@dataclass
class AnswerTrace:
    """One answer over documents or tables. For tables, ``retrieved`` holds
    table ids and ``answer`` the SQL taken from the completion; ``error`` is
    ``(stage, message)`` and later stages' fields stay empty."""

    query: str
    retrieved: list[tuple[str, float]] = field(default_factory=list)
    prompt: str | None = None
    answer: str | None = None
    completion: Completion | None = None
    truthful: int | None = None
    error: tuple[str, str] | None = None


def chunk_record_id(doc_id: str, index: int) -> str:
    return f"{doc_id}:{index}"


def ingest(
    docs: Sequence[Document],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
    embedder_config: EmbedderConfig | None = None,
    store_path: str | Path,
) -> VectorStore:
    """Chunk and embed documents into a new store saved at store_path.

    One record per chunk, id ``<doc_id>:<index>``, kind ``chunk``.

    Raises:
        InvalidInput: empty document list.
        DuplicateId: the same document id appears twice.
    """
    if not docs:
        raise InvalidInput("need at least one document to ingest")

    seen: set[str] = set()
    chunks: list[Chunk] = []
    for doc in docs:
        if doc.id in seen:
            raise DuplicateId(f"document id {doc.id!r} ingested twice")
        seen.add(doc.id)
        chunks.extend(chunk_text(doc, chunk_size, overlap))

    items = (
        (chunk_record_id(c.doc_id, c.index), c.text,
         {"doc_id": c.doc_id, "index": str(c.index),
          "token_start": str(c.token_start), "token_end": str(c.token_end)})
        for c in chunks
    )
    return build_store(items, "chunk", embedder_config, store_path)


def build_store(
    items: Iterable[tuple[str, str, dict[str, str]]], kind: str,
    embedder_config: EmbedderConfig | None, store_path: str | Path | None = None,
) -> VectorStore:
    """A new store of ``kind`` records from ``(id, text, metadata)`` items,
    saved at store_path if given. Items are drawn and embedded one batch of
    ``batch_size`` at a time, so one batch's own arrays are alive at once."""
    embedder_config = embedder_config or EmbedderConfig()
    store = VectorStore(embedder_config.dim, fingerprint(embedder_config))
    items = iter(items)
    while batch := list(islice(items, embedder_config.batch_size)):
        vectors = embed_batch([text for _, text, _ in batch], embedder_config)
        for (id_, text, metadata), vector in zip(batch, vectors):
            store.insert(VectorRecord(id_, vector, kind, text, metadata))
    if store_path is not None:
        store.save(store_path)
    return store


def check_store(store: VectorStore,
                embedder_config: EmbedderConfig | None = None) -> EmbedderConfig:
    """The config to embed queries to ``store`` with: the one its header
    names, or embedder_config after checking it is that one.

    Raises:
        InvalidInput: empty store.
        FingerprintMismatch: store built with a different embedder, or its
            header names no known embedder or one of another dim.
    """
    if len(store) == 0:
        raise InvalidInput("cannot search an empty store")
    named = store.embedder_fingerprint
    if embedder_config is None:
        embedder_config = config_from_fingerprint(named)
    elif named != (configured := fingerprint(embedder_config)):
        raise FingerprintMismatch(f"store embedder {named!r} != configured {configured!r}")
    if embedder_config.dim != store.dim:
        raise FingerprintMismatch(f"store embedder {named!r} vs store dim {store.dim}")
    return embedder_config


def compose_prompt(query: Query, chunk_texts: Sequence[str]) -> str:
    """Instantiate the prompt template; byte-identical for identical inputs."""
    if not chunk_texts:
        raise EmptyContext("prompt composition needs at least one chunk")
    return (
        "Context:\n"
        + "\n\n".join(chunk_texts)
        + "\n\nQuestion: "
        + query.text
        + "\nAnswer:"
    )


def answer(
    query: Query,
    store: VectorStore,
    *,
    k: int = 1,
    embedder_config: EmbedderConfig | None = None,
    llm_config: LlmConfig | None = None,
) -> AnswerTrace:
    """Retrieve, prompt, and complete; the trace records every stage. With
    no embedder_config the query is embedded as the store's header names.

    Raises:
        InvalidInput: empty store.
        FingerprintMismatch: store built with a different embedder.
    """
    embedder_config = check_store(store, embedder_config)
    retrieved = store.query_top_k(embed(query.text, embedder_config), k)
    prompt = compose_prompt(query, [store.get(rid).text for rid, _ in retrieved])
    completion = complete(prompt, llm_config)
    return AnswerTrace(
        query=query.text,
        retrieved=retrieved,
        prompt=prompt,
        answer=completion.text,
        completion=completion,
    )


def append_trace(trace: AnswerTrace, path: str | Path) -> None:
    """Append one trace, documents' or tables', as a JSONL line."""
    with open(path, "a", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(asdict(trace), ensure_ascii=False) + "\n")
