"""Text-to-vector embedding with pluggable backends.

Two backends share one contract (unit-norm float64 vectors of a fixed
dimension):

* ``hashed_bow`` — offline reference backend. Lowercased tokens are hashed
  with 64-bit FNV-1a into ``dim`` buckets, counts accumulated, and the count
  vector L2-normalized. Fully deterministic, so retrieval behavior is
  computable by hand in tests. Token frequencies are Zipf-like, so bucket
  indices are memoised in a bounded LRU cache of ``BUCKET_CACHE_SIZE``
  entries: the frequent tokens stay cached and memory stays flat however
  large the vocabulary.
* ``http`` — remote embedding service speaking a small JSON protocol:
  ``POST endpoint_url {"inputs": [...]}`` returning
  ``{"embeddings": [[...], ...]}``. Requests are batched and sent through
  the retrying POST shared with the completion backend (:mod:`gtr._http`),
  so a terminal failure raises :class:`~gtr.errors.BackendUnavailable`.

The FNV-1a seed below is fixed so stores written by one process can be
queried by another; it is part of the embedder fingerprint recorded in every
store file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._http import post_json
from .chunking import token_texts
from .errors import (BackendUnavailable, EmptyText, FingerprintMismatch, InvalidConfig,
                     ZeroVector)

DEFAULT_DIM = 384

# 64-bit FNV-1a parameters; the offset basis doubles as the hash seed.
FNV_SEED = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Fixed: holds the frequent head of a Zipf vocabulary in about half a megabyte.
BUCKET_CACHE_SIZE = 2048


@dataclass
class EmbedderConfig:
    backend: str = "hashed_bow"
    dim: int = DEFAULT_DIM
    endpoint_url: str | None = None
    batch_size: int = 32
    timeout_s: float = 30.0

    def __post_init__(self):
        if self.backend not in ("hashed_bow", "http"):
            raise InvalidConfig(f"unknown embedder backend: {self.backend!r}")
        if self.dim < 1:
            raise InvalidConfig(f"dim must be positive, got {self.dim}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be positive, got {self.batch_size}")
        if (self.endpoint_url is not None) != (self.backend == "http"):
            raise InvalidConfig("endpoint_url must be set iff backend is 'http'")


def fingerprint(config: EmbedderConfig) -> str:
    """Identify (backend, dim, seed) so stores reject mismatched embedders."""
    if config.backend == "hashed_bow":
        return f"hashed_bow:{config.dim}:{FNV_SEED:016x}"
    return f"http:{config.dim}:{config.endpoint_url}"


def config_from_fingerprint(fp: str) -> EmbedderConfig:
    """The config, with default batch size and timeout, whose fingerprint is
    ``fp``; FingerprintMismatch if none has it (an unknown backend, another
    hash seed, a malformed dim)."""
    try:
        backend, dim, tail = fp.split(":", 2)
        config = EmbedderConfig(backend, int(dim), tail if backend == "http" else None)
        if fingerprint(config) == fp:
            return config
    except (InvalidConfig, ValueError):  # too few fields, or a bad backend or dim
        pass
    raise FingerprintMismatch(f"store embedder {fp!r} names no known embedder")


def _fnv1a(data: bytes) -> int:
    h = FNV_SEED
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


@lru_cache(maxsize=BUCKET_CACHE_SIZE)
def bucket_index(token: str, dim: int) -> int:
    """Hash bucket of one lowercased token; exposed for hand-check tests."""
    return _fnv1a(token.encode("utf-8")) % dim


def _embed_hashed_bow(text: str, dim: int) -> np.ndarray:
    # Counts are small exact integers, so the float64 vector equals the one
    # accumulated by adding 1.0 per token.
    buckets = [bucket_index(tok.lower(), dim) for tok in token_texts(text)]
    counts = np.bincount(buckets, minlength=dim).astype(np.float64)
    norm = np.linalg.norm(counts)
    if norm == 0.0:
        # Unreachable for nonempty trimmed text: every non-space character
        # produces a token and every token lands in some bucket.
        raise ZeroVector("text produced no tokens")
    return counts / norm


def _embed_http_batch(texts: list[str], config: EmbedderConfig) -> list[np.ndarray]:
    body = post_json(config.endpoint_url, {"inputs": texts}, config.timeout_s, "embedding")
    embeddings = body.get("embeddings") if isinstance(body, dict) else None
    if not isinstance(embeddings, list) or len(embeddings) != len(texts):
        raise BackendUnavailable(
            "embedding backend response missing or mis-sized 'embeddings'"
        )
    out = []
    for values in embeddings:
        # JSON numbers only: NumPy would also read "1.0" and true as numbers.
        if type(values) is not list or not all(type(x) in (int, float) for x in values):
            raise BackendUnavailable(
                "embedding backend returned an entry that is not a list of numbers"
            )
        try:
            vec = np.array(values, dtype=np.float64)
        except OverflowError:
            raise BackendUnavailable(
                "embedding backend returned an integer beyond the float range"
            ) from None
        if vec.shape[0] != config.dim:
            raise BackendUnavailable(
                f"embedding backend returned dim {vec.shape}, expected {config.dim}"
            )
        norm = np.linalg.norm(vec)
        if norm == 0.0 or not np.isfinite(norm):
            raise ZeroVector("embedding backend returned a non-normalizable vector")
        out.append(vec / norm)
    return out


def embed(text: str, config: EmbedderConfig | None = None) -> np.ndarray:
    """Embed one text into a unit-norm float64 vector of config.dim entries.

    Raises:
        EmptyText: if the text is empty after trimming whitespace.
        BackendUnavailable: http backend failures after retries.
    """
    config = config or EmbedderConfig()
    if not text.strip():
        raise EmptyText("cannot embed empty or whitespace-only text")
    if config.backend == "hashed_bow":
        return _embed_hashed_bow(text, config.dim)
    return _embed_http_batch([text], config)[0]


def embed_batch(
    texts: list[str], config: EmbedderConfig | None = None
) -> list[np.ndarray]:
    """Embed many texts; element i equals embed(texts[i], config).

    The http backend sends ceil(len/batch_size) wire requests. The first
    invalid element fails the whole batch with its index in the message.
    """
    config = config or EmbedderConfig()
    for i, text in enumerate(texts):
        if not text.strip():
            raise EmptyText(f"cannot embed empty text at index {i}")
    if config.backend == "hashed_bow":
        return [_embed_hashed_bow(t, config.dim) for t in texts]
    out: list[np.ndarray] = []
    for start in range(0, len(texts), config.batch_size):
        out.extend(_embed_http_batch(texts[start : start + config.batch_size], config))
    return out
