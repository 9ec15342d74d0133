"""Reference implementations of the ingest hot path, kept as test oracles.

These are the tokenizer, chunker, hashed bag-of-words embedder and record
serialisation that ``gtr.chunking``, ``gtr.embedding`` and ``gtr.store`` used
before chunking switched to character spans, bucket hashing was memoised and
``VectorStore.save`` switched to ``ndarray.tolist``. They are slow on purpose:
one ``Token`` per token, UTF-8 offsets for every gap, and one FNV-1a loop per
token occurrence. ``tests/test_ingest_equivalence.py`` checks the production
code against them.
"""

from __future__ import annotations

import json

import numpy as np

from gtr.chunking import (
    _TOKEN_RE,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_OVERLAP,
    Chunk,
    Document,
    Token,
    token_texts,
)
from gtr.embedding import FNV_SEED
from gtr.errors import InvalidConfig, ZeroVector
from gtr.store import STORE_FORMAT, VectorStore

STORE_VERSION = 1

_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def tokenize(text: str) -> list[Token]:
    """Split text into tokens with byte offsets. Empty text gives []."""
    tokens: list[Token] = []
    byte_pos = 0
    char_pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = byte_pos + len(text[char_pos : m.start()].encode("utf-8"))
        end = start + len(m.group().encode("utf-8"))
        tokens.append(Token(m.group(), start, end))
        byte_pos = end
        char_pos = m.end()
    return tokens


def chunk_text(
    doc: Document,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
) -> list[Chunk]:
    """Split a document into overlapping token windows.

    Windows start at multiples of (chunk_size - overlap); every window except
    possibly the last holds exactly chunk_size tokens. The final partial
    window is kept so that every token is covered. A window that would add no
    new tokens is never emitted.

    Raises:
        InvalidConfig: if chunk_size < 1, overlap < 0, or overlap >= chunk_size.
    """
    if chunk_size < 1:
        raise InvalidConfig(f"chunk_size must be positive, got {chunk_size}")
    if overlap < 0:
        raise InvalidConfig(f"overlap must be nonnegative, got {overlap}")
    if overlap >= chunk_size:
        raise InvalidConfig(
            f"overlap ({overlap}) must be smaller than chunk_size ({chunk_size})"
        )

    tokens = tokenize(doc.text)
    if not tokens:
        return []

    raw = doc.text.encode("utf-8")
    stride = chunk_size - overlap
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + chunk_size, len(tokens))
        text = raw[tokens[start].start : tokens[end - 1].end].decode("utf-8")
        chunks.append(Chunk(doc.id, len(chunks), text, start, end))
        if end == len(tokens):
            break
        start += stride
    return chunks


def _fnv1a(data: bytes) -> int:
    h = FNV_SEED
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def bucket_index(token: str, dim: int) -> int:
    return _fnv1a(token.encode("utf-8")) % dim


def embed_hashed_bow(text: str, dim: int) -> np.ndarray:
    counts = np.zeros(dim, dtype=np.float64)
    for tok in token_texts(text):
        counts[bucket_index(tok.lower(), dim)] += 1.0
    norm = np.linalg.norm(counts)
    if norm == 0.0:
        raise ZeroVector("text produced no tokens")
    return counts / norm


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def store_bytes(store: VectorStore) -> bytes:
    """The bytes the original ``VectorStore.save`` wrote for ``store``."""
    header = {
        "format": STORE_FORMAT,
        "version": STORE_VERSION,
        "dim": store.dim,
        "embedder": store.embedder_fingerprint,
    }
    lines = [_dumps(header)]
    for r in store.records:
        lines.append(
            _dumps(
                {
                    "id": r.id,
                    "vector": [float(x) for x in r.vector],
                    "kind": r.kind,
                    "text": r.text,
                    "metadata": r.metadata,
                }
            )
        )
    return "".join(line + "\n" for line in lines).encode("utf-8")
