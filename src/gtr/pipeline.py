"""End-to-end retrieval pipeline for unstructured text.

Ingestion chunks each document when a call embedding 256 chunks reaches it,
and persists the vectors; answering embeds the query, retrieves the top-k
chunks by exact cosine search, composes a fixed-template prompt, and runs the
completion backend.

Prompt template (bit-exact, UTF-8, "\\n" newlines)::

    Context:\\n{chunk1}\\n\\n{chunk2}...\\n\\nQuestion: {query}\\nAnswer:

Traces export as JSONL, one answer per line; a lone surrogate, which an http
completion can hold, is written as its JSON escape.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from itertools import islice
from typing import Iterable, Sequence

from .chunking import Document, chunk_text, DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP
from .embedding import EmbedderConfig, config_from_fingerprint, embed, embed_batch, fingerprint
from .errors import (DuplicateId, EmptyContext, FingerprintMismatch, InvalidInput, check_unicode,
                     write_json_lines)
from .llm import CONTEXT_PREFIX, QUESTION_DELIMITER, Completion, LlmConfig, complete
from .store import VectorRecord, VectorStore

# Fixed: build_store embeds about this many items per embed_batch call, a
# whole number of http requests of batch_size.
INGEST_DRAW_ITEMS = 256


@dataclass(frozen=True)
class Query:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise InvalidInput("query must be nonempty")
        try:
            check_unicode(self.text)
        except InvalidInput as e:
            raise InvalidInput(f"query: {e}") from None


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

    One record per chunk, id ``<doc_id>:<index>``, kind ``chunk``. Each
    document is chunked only when the embed_batch call that needs its first
    chunk is filled, so one call's and one document's chunks are alive.

    Raises:
        InvalidInput: empty document list.
        DuplicateId: the same document id appears twice; nothing is
            chunked or embedded.
    """
    if not docs:
        raise InvalidInput("need at least one document to ingest")

    seen: set[str] = set()
    for doc in docs:
        if doc.id in seen:
            raise DuplicateId(f"document id {doc.id!r} ingested twice")
        seen.add(doc.id)

    items = (
        (chunk_record_id(c.doc_id, c.index), c.text,
         {"doc_id": c.doc_id, "index": str(c.index),
          "token_start": str(c.token_start), "token_end": str(c.token_end)},
         c.tokens)
        for doc in docs for c in chunk_text(doc, chunk_size, overlap)
    )
    return build_store(items, "chunk", embedder_config, store_path)


def build_store(
    items: Iterable[tuple[str, str, dict[str, str], Sequence[str] | None]], kind: str,
    embedder_config: EmbedderConfig | None, store_path: str | Path | None = None,
) -> VectorStore:
    """A new store of ``kind`` records from ``(id, text, metadata, tokens)``
    items, saved at store_path if given. ``tokens`` is the text's token
    texts, as a chunk carries them, or None for every item. Items are drawn
    and embedded about INGEST_DRAW_ITEMS per call, a whole number of http
    requests of ``batch_size``, so one call's own arrays are alive at once."""
    embedder_config = embedder_config or EmbedderConfig()
    store = VectorStore(embedder_config.dim, fingerprint(embedder_config))
    items, size = iter(items), embedder_config.batch_size
    while batch := list(islice(items, size * max(1, INGEST_DRAW_ITEMS // size))):
        texts = [text for _, text, _, _ in batch]
        tokens = [text_tokens for *_, text_tokens in batch]
        vectors = embed_batch(texts, embedder_config,
                              tokens=None if tokens[0] is None else tokens)
        store.insert_many([VectorRecord(id_, vector, kind, text, metadata)
                           for (id_, text, metadata, _), vector in zip(batch, vectors)])
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
    context = "\n\n".join(chunk_texts)
    return CONTEXT_PREFIX + context + QUESTION_DELIMITER + query.text + "\nAnswer:"


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
        InvalidInput: empty store, or a retrieved record that is not a chunk.
        FingerprintMismatch: store built with a different embedder.
    """
    embedder_config = check_store(store, embedder_config)
    retrieved = store.query_top_k(embed(query.text, embedder_config), k)
    rows = [store.row(rid) for rid, _ in retrieved]
    for row in rows:
        if store.kinds[row] != "chunk":
            raise InvalidInput(f"retrieved record {store.ids[row]!r} is a {store.kinds[row]} "
                               "record, not a chunk; ask about tables with `gtr tables ask`")
    prompt = compose_prompt(query, [store.texts[row] for row in rows])
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
    write_json_lines(path, [asdict(trace)], "a")
