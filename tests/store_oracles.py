"""The vector store that ``gtr.store`` replaced, kept verbatim as a test
oracle: every record owns its vector, and the first query after any insert
copies them all into a cached matrix (``_ensure_caches``). Its ``save`` and
the serialisation helpers it calls are copied with it: they write and read
store format version 1, one JSON line per record with the vector inline.
``tests/test_store_equivalence.py`` compares the production store against
this one for search results, and checks that the version-1 files it
writes load into the production store unchanged. ``cosine`` is the
function as it was before it learned to scale vectors by a power of two;
``tests/test_store.py`` checks that every pair whose arithmetic stays in
the normal float range still gets the same bits.

``v2_bytes`` spells out store format version 2 one entry at a time, apart
from the production writer, so the tests can pin that layout byte for byte.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from gtr.errors import (
    CorruptStore,
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ZeroVector,
)
from gtr.store import STORE_FORMAT, VectorRecord

STORE_VERSION = 1


def cosine(u, v) -> float:
    """Cosine similarity of two equal-dimension nonzero vectors, in [-1, 1].

    Bitwise-identical inputs short-circuit to exactly 1.0; disjoint-support
    inputs yield exactly 0.0 because every product term is a true zero.

    Raises:
        DimensionMismatch: different lengths.
        ZeroVector: either argument has zero norm.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise InvalidInput("cosine expects 1-D vectors")
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"dim {u.shape[0]} vs {v.shape[0]}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine is undefined for a zero vector")
    if np.array_equal(u, v):
        return 1.0
    return float(min(1.0, max(-1.0, float(u @ v) / (nu * nv))))


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
        self._matrix: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._ids: np.ndarray | None = None

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
        self.records.append(record)
        self._by_id[record.id] = record
        self._matrix = None
        self._norms = None
        self._ids = None

    def _ensure_caches(self):
        if self._matrix is None:
            n = len(self.records)
            matrix = np.empty((n, self.dim), dtype=np.float64)
            for i, r in enumerate(self.records):
                matrix[i] = r.vector
            self._norms = np.linalg.norm(matrix, axis=1)
            self._ids = np.array([r.id for r in self.records])
            # Assigned last: a concurrent reader that sees the matrix also
            # sees the norms and ids (multi-reader contract).
            self._matrix = matrix

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
        if not self.records:
            return []
        self._ensure_caches()
        dots = self._matrix @ query
        denom = self._norms * qnorm
        scores = np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0.0)
        np.clip(scores, -1.0, 1.0, out=scores)

        n = scores.shape[0]
        if k >= n:
            candidates = np.arange(n)
        else:
            # Every index scoring at least the k-th largest value survives,
            # so boundary ties are still broken by id, never by position.
            threshold = np.partition(scores, n - k)[n - k]
            candidates = np.flatnonzero(scores >= threshold)
        order = candidates[np.lexsort((self._ids[candidates], -scores[candidates]))]
        return [(str(self._ids[i]), float(scores[i])) for i in order[:k]]

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
            CorruptStore: bad header, wrong dim, duplicate id, malformed line.
            OSError: unreadable path.
        """
        path = Path(path)
        with open(path, encoding="utf-8") as f:
            header_line = f.readline()
            if not header_line:
                raise CorruptStore(f"{path}: line 1: empty file, missing header")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as e:
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
                except json.JSONDecodeError as e:
                    raise CorruptStore(f"{path}: line {lineno}: malformed JSON: {e}")
                try:
                    record = VectorRecord(
                        id=str(obj["id"]),
                        vector=np.asarray(obj["vector"], dtype=np.float64),
                        kind=str(obj["kind"]),
                        text=str(obj["text"]),
                        metadata={str(k): str(v) for k, v in obj.get("metadata", {}).items()},
                    )
                    store.insert(record)
                except KeyError as e:
                    raise CorruptStore(f"{path}: line {lineno}: missing field {e}")
                except (InvalidInput, DuplicateId, DimensionMismatch, ValueError) as e:
                    raise CorruptStore(f"{path}: line {lineno}: {e}")
            return store


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _vector_json(vector: np.ndarray) -> str:
    """``_dumps(vector.tolist())`` without its brackets, formatting each
    distinct value once (a hashed bag-of-words vector holds a few dozen).
    Values are told apart by their bits, so -0.0 keeps its own text."""
    bits, where = np.unique(vector.view(np.uint64), return_inverse=True)
    texts = [repr(x) for x in bits.view(np.float64).tolist()]
    return ",".join([texts[i] for i in where.tolist()])


def v2_bytes(dim: int, fingerprint: str, records) -> bytes:
    """A version-2 store file: the header line, one metadata line per
    record, each row's bitmap (bit j, most significant first, set when entry
    j is not all zero bits), then every set entry as little-endian float64."""
    header = {"format": STORE_FORMAT, "version": 2, "dim": dim,
              "embedder": fingerprint, "count": len(records)}
    lines = [_dumps(header)] + [
        _dumps({"id": r.id, "kind": r.kind, "text": r.text, "metadata": r.metadata})
        for r in records
    ]
    out = bytearray("".join(line + "\n" for line in lines).encode("utf-8"))
    entries = [[struct.pack("<d", x) for x in r.vector.tolist()] for r in records]
    for row in entries:
        for j in range(0, dim, 8):
            byte = 0
            for bit, entry in enumerate(row[j:j + 8]):
                if entry != bytes(8):
                    byte |= 0x80 >> bit
            out.append(byte)
    for row in entries:
        for entry in row:
            if entry != bytes(8):
                out += entry
    return bytes(out)
