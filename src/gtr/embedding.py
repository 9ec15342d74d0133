"""Text-to-vector embedding with pluggable backends.

Two backends share one contract (unit-norm float64 vectors of a fixed
dimension):

* ``hashed_bow`` — offline reference backend. Lowercased tokens are hashed
  with 64-bit FNV-1a into ``dim`` buckets, counts accumulated, and the count
  vector L2-normalized. Fully deterministic, so retrieval behavior is
  computable by hand in tests. A call with several texts hashes each
  distinct token of them once, however often they repeat it, all together
  in NumPy: one ``uint64`` xor and multiply per byte position over the
  tokens still that long, which a token past ``_KERNEL_MAX_BYTES`` bytes
  leaves to the scalar loop. One ``bincount`` counts the call into a
  matrix, a row per text. Ingest hands over 256 chunks a call with the
  token texts the chunker split, so no chunk is tokenized twice. A single
  text, such as a query, is bucketed token by token through a bounded LRU
  cache of ``BUCKET_CACHE_SIZE`` entries, which keeps the buckets of the
  frequent head of a Zipf vocabulary across calls; batches leave it alone,
  so memory stays flat however large the vocabulary.
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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

from ._http import post_json
from .chunking import token_texts
from .errors import (BackendUnavailable, EmptyText, FingerprintMismatch, InvalidConfig,
                     InvalidInput, ZeroVector)

DEFAULT_DIM = 384

# 64-bit FNV-1a parameters; the offset basis doubles as the hash seed.
FNV_SEED = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
# NumPy 1.x promotes uint64 with a Python int to float64, so every array
# operand is a uint64 scalar.
_FNV_PRIME64 = np.uint64(_FNV_PRIME)

# Fixed: the batch kernel makes a few NumPy calls per byte position, so a
# token longer than this (a 100 KB hex blob, say) is hashed by ``_fnv1a``
# alone rather than costing a call per byte for the whole batch.
_KERNEL_MAX_BYTES = 64

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


def _fnv1a_buckets(tokens: list[str], dim: int) -> np.ndarray:
    """``bucket_index(t.lower(), dim)`` for each token, as uint64, from one
    FNV-1a pass over all of them: the hashes of the tokens still longer than
    each byte position are updated together. Touches no LRU."""
    lowered = list(map(str.lower, tokens))
    data = np.frombuffer("\n".join(lowered).encode("utf-8"), np.uint8)
    seps = np.flatnonzero(data == 10)
    if len(seps) != len(lowered) - 1:
        # No tokens, or a caller's token holds "\n": hash each on its own.
        return np.array([_fnv1a(t.encode("utf-8")) for t in lowered], np.uint64) % np.uint64(dim)
    starts = np.append(0, seps + 1)
    lengths = np.append(seps, data.size) - starts
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    n_long = int(np.count_nonzero(lengths > _KERNEL_MAX_BYTES))
    h = np.full(len(lowered), np.uint64(FNV_SEED))
    for i in range(n_long):
        h[i] = _fnv1a(lowered[order[i]].encode("utf-8"))
    data = data.astype(np.uint64)
    # Before byte position p, the tokens longer than p are the first active[p].
    active = np.searchsorted(-lengths, -np.arange(lengths[n_long:].max(initial=0)))
    for p, k in enumerate(active.tolist()):
        h[n_long:k] ^= data[starts[n_long:k] + p]
        h[n_long:k] *= _FNV_PRIME64
    out = np.empty_like(h)
    out[order] = h
    return out % np.uint64(dim)


def _hashed_bow(token_lists: Sequence[Sequence[str]], dim: int) -> np.ndarray:
    """A matrix whose row i is token list i's unit-norm count vector. Across
    several lists the distinct tokens are bucketed together by
    ``_fnv1a_buckets``; one list's tokens go through the LRU one by one.

    Raises:
        InvalidInput: a token holds a lone surrogate; the message names the
            index of the first list that holds one.
        ZeroVector: a list holds no tokens.
    """
    try:
        if len(token_lists) == 1:
            # The LRU keeps one text's tokens between their occurrences, and
            # a query's few tokens cost less through it than through the
            # NumPy calls of the batch kernel.
            ids = [bucket_index(tok.lower(), dim) for tok in token_lists[0]]
        else:
            distinct = dict.fromkeys(chain.from_iterable(token_lists))
            buckets = dict(zip(distinct, _fnv1a_buckets(list(distinct), dim).tolist()))
            ids = np.fromiter(map(buckets.__getitem__, chain.from_iterable(token_lists)),
                              np.intp)
            # Row r counts its buckets at r * dim onward: one bincount for all.
            ids += np.repeat(np.arange(0, len(token_lists) * dim, dim),
                             list(map(len, token_lists)))
    except UnicodeEncodeError as e:
        # A lone surrogate is the one character UTF-8 cannot encode, and
        # lowercasing keeps it.
        i = next(i for i, tokens in enumerate(token_lists)
                 if any("\ud800" <= c <= "\udfff" for c in "".join(tokens)))
        raise InvalidInput(f"cannot embed text at index {i}: not valid Unicode: "
                           f"{e.reason}") from None
    if not all(token_lists):
        # Unreachable for the tokens of nonempty trimmed text: every
        # non-space character is in some token.
        raise ZeroVector("text produced no tokens")
    # Counts are small exact integers, so a row's sum of squares is exact
    # below 2**53, and its square root is np.linalg.norm's bit for bit.
    counts = np.bincount(ids, minlength=len(token_lists) * dim).astype(np.float64).reshape(-1, dim)
    counts /= np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]
    return counts


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
        InvalidInput: hashed backend, text holding a lone surrogate.
        BackendUnavailable: http backend failures after retries.
    """
    config = config or EmbedderConfig()
    if not text.strip():
        raise EmptyText("cannot embed empty or whitespace-only text")
    if config.backend == "hashed_bow":
        return _hashed_bow([token_texts(text)], config.dim)[0]
    return _embed_http_batch([text], config)[0]


def embed_batch(
    texts: list[str], config: EmbedderConfig | None = None,
    tokens: Sequence[Sequence[str]] | None = None,
) -> list[np.ndarray]:
    """Embed many texts; element i equals embed(texts[i], config).

    tokens, if given, holds ``token_texts(texts[i])`` for each i, as the
    chunks of ``chunk_text`` carry them, or those tokens lowercased, as
    ``metrics`` memoizes them: the hashed backend lowercases every token,
    and ``str.lower`` is idempotent, so the buckets are the same. That
    backend then buckets them instead of tokenizing the texts again, and
    one call's vectors are rows of one matrix, sharing one buffer. The http
    backend sends ceil(len/batch_size) wire requests. The first invalid
    element fails the whole batch with its index in the message.

    Raises:
        InvalidInput: tokens and texts differ in length, or (hashed
            backend) a text holds a lone surrogate.
    """
    config = config or EmbedderConfig()
    if tokens is not None and len(tokens) != len(texts):
        raise InvalidInput(f"{len(tokens)} token lists for {len(texts)} texts")
    for i, text in enumerate(texts):
        if not text.strip():
            raise EmptyText(f"cannot embed empty text at index {i}")
    if config.backend == "hashed_bow":
        if tokens is None:
            tokens = [token_texts(text) for text in texts]
        return list(_hashed_bow(tokens, config.dim))
    out: list[np.ndarray] = []
    for start in range(0, len(texts), config.batch_size):
        out.extend(_embed_http_batch(texts[start : start + config.batch_size], config))
    return out
