"""Persistent vector store with exact cosine top-k search.

Search is an exhaustive scan — no approximate index. Every vector lives in
one contiguous float64 matrix, one row per record, grown by doubling; a
record's ``vector`` is a read-only view of its row. Scores are computed in
double precision as a single matrix-vector product over the filled rows,
ties broken by ascending record id, so results are bit-reproducible and
equal to a naive per-record scan. An insert writes one row; the next query
computes the norms of the rows added since the last one.

File format, version 2 (one store per file, "\\n" after each JSON line):

    line 1:         {"format":"gtr-store","version":2,"dim":N,"embedder":FINGERPRINT,"count":n}
    lines 2..n+1:   {"id":...,"kind":...,"text":...,"metadata":{...}}   (UTF-8)
    vector block:   n row bitmaps of ceil(N/8) bytes, then the set entries
                    as little-endian float64, row by row; nothing follows

A row's bitmap has bit j (most significant first) set when entry j's bits
are not all zero, so -0.0 is stored and +0.0 is not. As in FAISS's
``IndexFlatIP`` the vectors are read straight into the matrix, with no
per-value parsing. A version-2 load refuses a header or record line with a
field beyond those shown, and a record whose id, kind, text or metadata
value is not a string. Version 1 files, one JSON line per record with the
vector inline, still load as they always have; every save writes version 2.

``load(save(store))`` reproduces every record bit for bit and saving it
again writes the same bytes; stored vectors are kept exactly as written
(never re-normalized on load).
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
STORE_VERSION = 2
RECORD_KINDS = ("chunk", "table")
_HEADER_FIELDS = ("format", "version", "dim", "embedder", "count")
_RECORD_FIELDS = ("id", "kind", "text", "metadata")
# Rows per write or read of the vector block: a fixed buffer, so neither a
# save nor a load holds a second copy of the vectors.
_BLOCK_ROWS = 1024
# A row norm below this had its square fall out of the normal float range.
_TINY_NORM = 2.0 ** -511


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
    su, sv = _scaled(u), _scaled(v)
    nu, nv = np.linalg.norm(su), np.linalg.norm(sv)
    if not math.isfinite(nu * nv):
        raise InvalidInput("cosine is undefined for a non-finite vector")
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine is undefined for a zero vector")
    if np.array_equal(u, v):
        return 1.0
    return float(min(1.0, max(-1.0, float(su @ sv) / (nu * nv))))


def _scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that puts its largest magnitude in [0.5, 1),
    row by row for a matrix. A zero or non-finite row comes back as it is.
    The scaling is exact, so no square or product of the result overflows
    and scores keep the bits of the unscaled arithmetic where that stays in
    the normal float range."""
    return np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True, initial=0.0))[1])


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
        # _norms[:_normed] are the norms of the first _normed rows; the rows
        # whose indices _scaled_rows lists, in order, are normed and scored
        # as _scaled returns them.
        self._norms = np.empty(0, dtype=np.float64)
        self._normed = 0
        self._scaled_rows = np.empty(0, dtype=np.intp)

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
        row = self._next_row()
        self._add(record)
        row[...] = record.vector  # a version-1 load has already parsed it into this row
        row.flags.writeable = False
        record.vector = row

    def _add(self, record: VectorRecord) -> None:
        """Append a record as the owner of the next row of the matrix.

        Raises:
            DuplicateId: the id is already present.
        """
        if record.id in self._by_id:
            raise DuplicateId(f"record id {record.id!r} already present")
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
        poison every query. The query, and each row whose norm would
        overflow or underflow, is scaled by a power of two first, as in
        ``cosine``, so huge and tiny vectors score like any others.

        Raises:
            DimensionMismatch: query dim differs from the store's.
            ZeroVector: the query has zero norm.
            InvalidInput: k < 1, or the query has a NaN or infinite entry.
        """
        if k < 1:
            raise InvalidInput(f"k must be positive, got {k}")
        query = np.asarray(query, dtype=np.float64)
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise DimensionMismatch(
                f"query dim {query.shape} vs store dim {self.dim}"
            )
        query = _scaled(query)
        qnorm = np.linalg.norm(query)
        if not math.isfinite(qnorm):
            raise InvalidInput("query vector must be finite (no NaN or infinity)")
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
            self._norm_rows(normed, n)
            self._normed = n
        rows = self._scaled_rows
        if rows.size:
            with np.errstate(over="ignore"):
                dots = matrix @ query
            dots[rows] = _scaled(matrix[rows]) @ query
        else:
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
        # A stable sort by descending score keeps id order among equal scores.
        ranked = [by_id[j] for j in np.argsort(-scores[by_id], kind="stable")[:k]]
        return [(records[i].id, float(scores[i])) for i in ranked]

    def _norm_rows(self, start: int, stop: int) -> None:
        """Fill _norms[start:stop]. A row whose norm overflows, or whose
        squares fall below the normal float range, is normed as _scaled
        returns it and joins _scaled_rows."""
        rows = self._matrix[start:stop]
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(rows, axis=1)
        odd = np.flatnonzero((norms < _TINY_NORM) | (norms == np.inf))
        if odd.size:
            norms[odd] = np.linalg.norm(_scaled(rows[odd]), axis=1)
            odd = odd[norms[odd] != 0.0]  # zero rows stay as they are
            # A new array, not an update: a concurrent reader keeps the one
            # it read, and racing readers assign equal arrays.
            self._scaled_rows = np.union1d(self._scaled_rows, odd + start)
        self._norms[start:stop] = norms

    def save(self, path: str | Path) -> None:
        """Write to a temporary file beside ``path``, then rename it over
        ``path``: a save that fails part way leaves the old file intact.
        The vector block is written a fixed number of rows at a time."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        n = len(self.records)
        matrix = self._matrix[:n]
        blocks = [matrix[i:i + _BLOCK_ROWS] for i in range(0, n, _BLOCK_ROWS)]
        try:
            with open(tmp, "wb") as f:
                header = {
                    "format": STORE_FORMAT,
                    "version": STORE_VERSION,
                    "dim": self.dim,
                    "embedder": self.embedder_fingerprint,
                    "count": n,
                }
                f.write(_dumps(header).encode("utf-8") + b"\n")
                for r in self.records:
                    line = _dumps({"id": r.id, "kind": r.kind, "text": r.text,
                                   "metadata": r.metadata})
                    f.write(line.encode("utf-8") + b"\n")
                for block in blocks:
                    f.write(np.packbits(block.view(np.uint64) != 0, axis=1))
                for block in blocks:
                    f.write(block[block.view(np.uint64) != 0].astype("<f8", copy=False))
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a store file, version 2 or 1; validation failures name the
        offending line or the vector block.

        Raises:
            CorruptStore: bad header, wrong dim, duplicate id, malformed line,
                a text holding a lone surrogate, or a vector block that is
                short, too long, or holds a value ``save`` never writes.
            OSError: unreadable path.
        """
        path = Path(path)
        with open(path, "rb") as f:
            header_line = f.readline()
            if not header_line:
                raise CorruptStore(f"{path}: line 1: empty file, missing header")
            try:
                header = _json_line(header_line)
            except InvalidInput as e:
                raise CorruptStore(f"{path}: line 1: {e}") from None
            if not isinstance(header, dict) or header.get("format") != STORE_FORMAT:
                raise CorruptStore(f"{path}: line 1: not a {STORE_FORMAT} file")
            version = header.get("version")
            if type(version) is not int or version not in (1, STORE_VERSION):
                raise CorruptStore(f"{path}: line 1: unsupported version {version!r}")
            dim = header.get("dim")
            if type(dim) is not int or dim < 1:
                raise CorruptStore(f"{path}: line 1: bad dim {dim!r}")
            store = cls(dim, str(header.get("embedder", "")))
            if version == 1:
                store._read_v1(f, path)
            else:
                store._read_v2(f, path, header)
            return store

    def _read_v1(self, f, path: Path) -> None:
        """The records of a version-1 file: one line each, vector inline."""
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                self.insert(_parse_v1_record(_json_line(line), self._next_row()))
            except KeyError as e:
                raise CorruptStore(f"{path}: line {lineno}: missing field {e}")
            except (InvalidInput, DuplicateId, DimensionMismatch, ValueError) as e:
                raise CorruptStore(f"{path}: line {lineno}: {e}")

    def _read_v2(self, f, path: Path, header: dict) -> None:
        """The records of a version-2 file. The matrix is made once, at
        ``count`` rows; each record's vector is a view of its row as soon as
        its line is read, and the vector block then fills the rows."""
        # Each record takes at least a line break and its bitmap, so a
        # count the file cannot hold is refused before any allocation.
        count = header.get("count")
        most = os.fstat(f.fileno()).st_size // ((self.dim + 7) // 8 + 1)
        if type(count) is not int or not 0 <= count <= most:
            raise CorruptStore(f"{path}: line 1: bad count {count!r}")
        if type(header.get("embedder")) is not str:
            raise CorruptStore(f"{path}: line 1: bad embedder {header.get('embedder')!r}")
        if len(header) != len(_HEADER_FIELDS):
            unknown = next(k for k in header if k not in _HEADER_FIELDS)
            raise CorruptStore(f"{path}: line 1: unknown field {unknown!r}")
        matrix = np.zeros((count, self.dim), dtype=np.float64)
        rows = matrix.view()
        rows.flags.writeable = False
        for lineno, row in enumerate(rows, start=2):
            line = f.readline()
            if not line.endswith(b"\n"):
                raise CorruptStore(f"{path}: line {lineno}: file ends before record "
                                   f"{lineno - 1} of {count}")
            try:
                self._add(_parse_record(_json_line(line), row))
            except KeyError as e:
                raise CorruptStore(f"{path}: line {lineno}: missing field {e}")
            except (InvalidInput, DuplicateId) as e:
                raise CorruptStore(f"{path}: line {lineno}: {e}")
        self._matrix = matrix
        self._norms = np.empty(count, dtype=np.float64)
        self._read_vectors(f, f"{path}: vector block")

    def _read_vectors(self, f, where: str) -> None:
        """Fill the matrix from a version-2 vector block, a fixed number of
        rows at a time. Pad bits and stored +0.0 entries are refused: they
        would load, but not save back to the same bytes."""
        n, dim = self._matrix.shape
        width = (dim + 7) // 8
        bitmaps = np.frombuffer(_read_exactly(f, n * width, where), np.uint8).reshape(n, width)
        padded = np.flatnonzero(bitmaps[:, -1] & (0xFF >> dim % 8)) if dim % 8 else []
        if len(padded):
            raise CorruptStore(f"{where}: {self._row_name(padded[0])}: bits set past dim {dim}")
        for start in range(0, n, _BLOCK_ROWS):
            mask = np.unpackbits(bitmaps[start:start + _BLOCK_ROWS], axis=1, count=dim)
            mask = mask.view(bool)
            size = 8 * int(np.count_nonzero(mask))
            values = np.frombuffer(_read_exactly(f, size, where), "<f8")
            for bad, what in ((~np.isfinite(values), "a NaN or infinite value"),
                              (values.view("<u8") == 0, "a stored +0.0")):
                if bad.any():
                    counts = np.cumsum(np.count_nonzero(mask, axis=1))
                    row = start + int(np.searchsorted(counts, np.argmax(bad), side="right"))
                    raise CorruptStore(f"{where}: {self._row_name(row)}: {what}")
            self._matrix[start:start + _BLOCK_ROWS][mask] = values
        if f.read(1):
            raise CorruptStore(f"{where}: trailing bytes after the last row")

    def _row_name(self, row: int) -> str:
        return f"row {row} (id {self.records[row].id!r})"


def _json_line(line: bytes):
    """The JSON value of one store-file line, decoded as strict UTF-8 (the
    bytes form of ``json.loads`` would let an encoded lone surrogate pass).

    Raises:
        InvalidInput: not UTF-8, or not JSON.
    """
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InvalidInput(f"not UTF-8: {e.reason} at byte {e.start}") from None
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an over-long integer
        raise InvalidInput(f"malformed JSON: {e}") from None


def _read_exactly(f, size: int, where: str) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise CorruptStore(f"{where}: truncated, {size - len(data)} of {size} bytes missing")
    return data


def _parse_record(obj, row: np.ndarray) -> VectorRecord:
    """The record of one version-2 line, with ``row`` as its vector. Only
    what a save writes is accepted: the four fields and no other, each a
    string, and metadata mapping strings to strings, so the record saves
    back to the same line."""
    if not isinstance(obj, dict):
        raise InvalidInput("record must be a JSON object")
    id_, kind, text, metadata = map(obj.__getitem__, _RECORD_FIELDS)
    if len(obj) != len(_RECORD_FIELDS):
        raise InvalidInput(f"unknown field {next(k for k in obj if k not in _RECORD_FIELDS)!r}")
    if not isinstance(metadata, dict):
        raise InvalidInput("record metadata must be a JSON object")
    if {type(id_), type(kind), type(text), *map(type, metadata.values())} != {str}:
        named = [("id", id_), ("kind", kind), ("text", text),
                 *((f"metadata {k!r}", v) for k, v in metadata.items())]
        name, value = next((n, v) for n, v in named if type(v) is not str)
        raise InvalidInput(f"record {name} must be a string, got {value!r}")
    record = VectorRecord(id_, row, kind, text, metadata)
    check_unicode(record.id, record.text, *record.metadata, *record.metadata.values())
    return record


def _parse_v1_record(obj, row: np.ndarray) -> VectorRecord:
    """The record of one version-1 line, its vector parsed into ``row``.
    The vector must hold exactly the floats a version-1 save wrote: a JSON
    ``true`` or ``1`` would load as 1.0 and not as the value written."""
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
    # Version-1 loads have always read a non-string field as its str().
    return _parse_record({name: str(obj[name]) for name in ("id", "kind", "text")}
                         | {"metadata": {k: str(v) for k, v in metadata.items()}}, row)


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
