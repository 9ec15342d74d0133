"""Persistent vector store with exact cosine top-k search.

Search is an exhaustive scan — no approximate index. Every vector lives in
one contiguous float64 matrix, one row per record, grown by doubling; a
record's ``vector`` is a read-only view of its row. Scores are computed in
double precision as a single matrix-vector product over the filled rows,
ties broken by ascending record id, so results are bit-reproducible and
equal to a naive per-record scan. An insert writes one row; the next query
computes the norms of the rows added since the last one.

File format (one store per file, UTF-8, "\\n" separators, finite floats in
their shortest round-trip representation):

    line 1:  {"format":"gtr-store","version":1,"dim":N,"embedder":FINGERPRINT}
    line 2+: {"id":...,"vector":[...],"kind":...,"text":...,"metadata":{...}}

``load(save(store))`` reproduces every record bit for bit; stored vectors are
kept exactly as written (never re-normalized on load).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    CorruptStore,
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ZeroVector,
    check_unicode,
)

STORE_FORMAT = "gtr-store"
STORE_VERSION = 1
RECORD_KINDS = ("chunk", "table")


def cosine(u, v) -> float:
    """Cosine similarity of two equal-dimension nonzero vectors, in [-1, 1].

    Bitwise-identical inputs short-circuit to exactly 1.0; disjoint-support
    inputs yield exactly 0.0 because every product term is a true zero.
    Both vectors are first scaled by a power of two that brings their
    largest entry into [0.5, 1), so no square, product or norm overflows or
    underflows and huge and tiny vectors score like any others. The scaling
    is exact, so a pair whose arithmetic stays in the normal float range
    keeps the bits of the unscaled formula.

    Raises:
        DimensionMismatch: different lengths.
        ZeroVector: either argument has zero norm.
        InvalidInput: an entry is NaN or infinite.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise InvalidInput("cosine expects 1-D vectors")
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"dim {u.shape[0]} vs {v.shape[0]}")
    su, nu = _rescaled(u)
    sv, nv = _rescaled(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine is undefined for a zero vector")
    if np.array_equal(u, v):
        return 1.0
    return float(min(1.0, max(-1.0, float(su @ sv) / (nu * nv))))


def _rescaled(x: np.ndarray) -> tuple[np.ndarray, float]:
    """x times the power of two that puts its largest magnitude in
    [0.5, 1), and the norm of that; a zero vector comes back as it is."""
    peak = float(np.abs(x).max(initial=0.0))
    if not math.isfinite(peak):
        raise InvalidInput("cosine is undefined for a non-finite vector")
    if peak == 0.0:
        return x, 0.0
    x = np.ldexp(x, -math.frexp(peak)[1])
    return x, np.linalg.norm(x)


@dataclass
class VectorRecord:
    """One stored item. Once inserted, ``vector`` is a read-only view of the
    record's row in the store's matrix."""

    id: str
    vector: np.ndarray
    kind: str
    text: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise InvalidInput("record id must be nonempty")
        if self.kind not in RECORD_KINDS:
            raise InvalidInput(f"record kind must be one of {RECORD_KINDS}")
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise InvalidInput("record vector must be 1-D")
        if not np.isfinite(self.vector).all():
            raise InvalidInput("record vector must be finite (no NaN or infinity)")
        # String-only metadata keeps the file format round-trip exact.
        self.metadata = {str(k): str(v) for k, v in self.metadata.items()}


class VectorStore:
    """Ordered collection of vector records over one embedding space.

    Concurrency contract: any number of concurrent readers (query_top_k,
    get) OR a single writer (insert, save); no internal locking.
    """

    def __init__(self, dim: int, embedder_fingerprint: str):
        if dim < 1:
            raise InvalidInput(f"dim must be positive, got {dim}")
        self.dim = dim
        self.embedder_fingerprint = embedder_fingerprint
        self.records: list[VectorRecord] = []
        self._by_id: dict[str, VectorRecord] = {}
        # Rows [:len(self)] hold the vectors; the rest is spare capacity.
        self._matrix = np.empty((0, dim), dtype=np.float64)
        # _norms[:_normed] are the norms of the first _normed rows.
        self._norms = np.empty(0, dtype=np.float64)
        self._normed = 0

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_id

    def get(self, record_id: str) -> VectorRecord:
        try:
            return self._by_id[record_id]
        except KeyError:
            raise InvalidInput(f"no record with id {record_id!r}") from None

    def insert(self, record: VectorRecord) -> None:
        """Add one record; it becomes visible to get() and query_top_k().
        Its vector is copied into the store's matrix and ``record.vector``
        becomes a read-only view of that row.

        Raises:
            DuplicateId: the id is already present.
            DimensionMismatch: record vector dim differs from the store's.
        """
        if record.vector.shape[0] != self.dim:
            raise DimensionMismatch(
                f"record dim {record.vector.shape[0]} vs store dim {self.dim}"
            )
        if record.id in self._by_id:
            raise DuplicateId(f"record id {record.id!r} already present")
        row = self._next_row()
        row[...] = record.vector  # load has already parsed the vector into this row
        row.flags.writeable = False
        record.vector = row
        self.records.append(record)
        self._by_id[record.id] = record

    def _next_row(self) -> np.ndarray:
        """The row the next record's vector goes in. A full matrix is copied
        into one of twice the rows, and every record's view re-pointed, so
        the old buffer is freed."""
        n = len(self.records)
        if n == self._matrix.shape[0]:
            matrix = np.empty((max(16, 2 * n), self.dim), dtype=np.float64)
            matrix[:n] = self._matrix[:n]
            norms = np.empty(matrix.shape[0], dtype=np.float64)
            norms[: self._normed] = self._norms[: self._normed]
            for i, record in enumerate(self.records):
                record.vector = matrix[i]
                record.vector.flags.writeable = False
            self._matrix, self._norms = matrix, norms
        return self._matrix[n]

    def query_top_k(self, query, k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine score, descending; ties by ascending id.

        Returns min(k, len(store)) pairs. Records whose stored vector has
        zero norm score 0.0 rather than erroring, so one bad record cannot
        poison every query.

        Raises:
            DimensionMismatch: query dim differs from the store's.
            ZeroVector: the query has zero norm.
            InvalidInput: k < 1.
        """
        if k < 1:
            raise InvalidInput(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise DimensionMismatch(
                f"query dim {query.shape} vs store dim {self.dim}"
            )
        qnorm = np.linalg.norm(query)
        if qnorm == 0.0:
            raise ZeroVector("query vector has zero norm")
        n = len(self.records)
        if n == 0:
            return []
        matrix = self._matrix[:n]
        normed = self._normed
        if normed < n:
            # Concurrent readers may each norm the same new rows: they write
            # equal values, and _normed moves only after the values are in.
            self._norms[normed:n] = np.linalg.norm(matrix[normed:], axis=1)
            self._normed = n
        dots = matrix @ query
        denom = self._norms[:n] * qnorm
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
        np.clip(scores, -1.0, 1.0, out=scores)

        if k >= n:
            candidates = np.arange(n)
        else:
            # Every index scoring at least the k-th largest value survives,
            # so boundary ties are still broken by id, never by position.
            threshold = np.partition(scores, n - k)[n - k]
            candidates = np.flatnonzero(scores >= threshold)
        records = self.records
        by_id = sorted(candidates.tolist(), key=lambda i: records[i].id)
        # A stable sort by descending score keeps id order among equal
        # scores and puts NaN scores (from norms that overflow) last.
        ranked = [by_id[j] for j in np.argsort(-scores[by_id], kind="stable")[:k]]
        return [(records[i].id, float(scores[i])) for i in ranked]

    def save(self, path: str | Path) -> None:
        """Write to a temporary file beside ``path``, then rename it over
        ``path``: a save that fails part way leaves the old file intact."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as f:
                header = {
                    "format": STORE_FORMAT,
                    "version": STORE_VERSION,
                    "dim": self.dim,
                    "embedder": self.embedder_fingerprint,
                }
                f.write(_dumps(header) + "\n")
                for r in self.records:
                    # The line _dumps of {"id", "vector", "kind", "text",
                    # "metadata"} writes, with the vector formatted apart.
                    rest = _dumps({"kind": r.kind, "text": r.text, "metadata": r.metadata})
                    f.write(
                        f'{{"id":{_dumps(r.id)},"vector":[{_vector_json(r.vector)}],{rest[1:]}\n'
                    )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a store file; validation failures name the offending line.

        Raises:
            CorruptStore: bad header, wrong dim, duplicate id, malformed line,
                or a text holding a lone surrogate.
            OSError: unreadable path.
        """
        path = Path(path)
        with open(path, encoding="utf-8") as f:
            header_line = f.readline()
            if not header_line:
                raise CorruptStore(f"{path}: line 1: empty file, missing header")
            try:
                header = json.loads(header_line)
            except ValueError as e:  # JSONDecodeError, or an over-long integer
                raise CorruptStore(f"{path}: line 1: malformed header: {e}")
            if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
                raise CorruptStore(f"{path}: line 1: not a {STORE_FORMAT} file")
            if header.get("version") != STORE_VERSION:
                raise CorruptStore(
                    f"{path}: line 1: unsupported version {header.get('version')!r}"
                )
            dim = header.get("dim")
            if not isinstance(dim, int) or dim < 1:
                raise CorruptStore(f"{path}: line 1: bad dim {dim!r}")
            store = cls(dim, str(header.get("embedder", "")))
            for lineno, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as e:  # JSONDecodeError, or an over-long integer
                    raise CorruptStore(f"{path}: line {lineno}: malformed JSON: {e}")
                try:
                    store.insert(_parse_record(obj, store._next_row()))
                except KeyError as e:
                    raise CorruptStore(f"{path}: line {lineno}: missing field {e}")
                except (InvalidInput, DuplicateId, DimensionMismatch, ValueError) as e:
                    raise CorruptStore(f"{path}: line {lineno}: {e}")
            return store


def _parse_record(obj, row: np.ndarray) -> VectorRecord:
    """The record of one store-file line, its vector parsed into ``row``.
    The vector must hold exactly the floats ``save`` writes: a JSON ``true``
    or ``1`` would load as 1.0 and save back as different text."""
    if not isinstance(obj, dict):
        raise InvalidInput("record must be a JSON object")
    vector = obj["vector"]
    if not isinstance(vector, list) or list(map(type, vector)).count(float) != len(vector):
        raise InvalidInput("record vector must be a list of floats")
    if len(vector) != row.shape[0]:
        raise DimensionMismatch(f"record dim {len(vector)} vs store dim {row.shape[0]}")
    row[...] = np.fromiter(vector, np.float64, len(vector))
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InvalidInput("record metadata must be a JSON object")
    record = VectorRecord(str(obj["id"]), row, str(obj["kind"]), str(obj["text"]), metadata)
    check_unicode(record.id, record.text, *record.metadata, *record.metadata.values())
    return record


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _vector_json(vector: np.ndarray) -> str:
    """``_dumps(vector.tolist())`` without its brackets, formatting each
    distinct value once (a hashed bag-of-words vector holds a few dozen).
    Values are told apart by their bits, so -0.0 keeps its own text."""
    bits, where = np.unique(vector.view(np.uint64), return_inverse=True)
    texts = [repr(x) for x in bits.view(np.float64).tolist()]
    return ",".join([texts[i] for i in where.tolist()])

