"""Persistent vector store with exact cosine top-k search.

Search is an exhaustive scan — no approximate index. As in FAISS's flat
index, records are kept as columns: lists of ids, kinds, texts and metadata
beside one contiguous float64 matrix, one row per record, grown by doubling.
Scores are one matrix-vector product in double precision, and equal scores
are ordered by ascending id; equal dense vectors can still score an ulp
apart, as BLAS sums a row in an order that depends on its position. An
insert writes one row; the next query norms the rows added since the last.

File format, version 2 (one store per file, "\\n" after each JSON line):

    line 1:         {"format":"gtr-store","version":2,"dim":N,"embedder":FINGERPRINT,"count":n}
    lines 2..n+1:   {"id":...,"kind":...,"text":...,"metadata":{...}}   (UTF-8)
    vector block:   n row bitmaps of ceil(N/8) bytes, then the set entries
                    as little-endian float64, row by row; nothing follows

A row's bitmap has bit j (most significant first) set when entry j's bits
are not all zero, so -0.0 is stored and +0.0 is not. As in FAISS's
``IndexFlatIP`` the vectors are read straight into the matrix, with no
per-value parsing. A load reads only what a save writes: it refuses any
other version, a header or record line with a field beyond those shown,
and a record whose id, kind, text or metadata value is not a string.

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


def _check_fields(id_, kind, text, metadata) -> None:
    """Raise InvalidInput, naming the field, unless the id is nonempty, the
    kind known, and every field a string (metadata a dict of them) that
    UTF-8 can encode: what the file format holds exactly."""
    if not isinstance(metadata, dict):
        raise InvalidInput("record metadata must be a JSON object")
    try:  # one pass over all the fields, as a record is checked per insert
        check_unicode("".join((id_, kind, text, *metadata, *metadata.values())))
    except TypeError:
        named = [("id", id_), ("kind", kind), ("text", text),
                 *((f"metadata {k!r}", x) for k, v in metadata.items() for x in (k, v))]
        name, value = next((n, v) for n, v in named if not isinstance(v, str))
        raise InvalidInput(f"record {name} must be a string, got {value!r}") from None
    if not id_:
        raise InvalidInput("record id must be nonempty")
    if kind not in RECORD_KINDS:
        raise InvalidInput(f"record kind must be one of {RECORD_KINDS}")


@dataclass
class VectorRecord:
    """One item, as given to ``insert`` or handed out by ``get`` and
    ``records``. The store keeps no record: it copies one in, and builds a
    new one each time it hands one out. ``insert`` checks it as it is then."""

    id: str
    vector: np.ndarray
    kind: str
    text: str
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        self.metadata = dict(self.metadata)


class VectorStore:
    """Ordered vector records over one embedding space: record i is
    ``ids[i]``, ``kinds[i]``, ``texts[i]``, ``metadata[i]`` and matrix row i.

    Concurrency contract: any number of concurrent readers (query_top_k,
    get) OR a single writer (insert, save); no internal locking.
    """

    def __init__(self, dim: int, embedder_fingerprint: str):
        if dim < 1:
            raise InvalidInput(f"dim must be positive, got {dim}")
        self.dim = dim
        self.embedder_fingerprint = embedder_fingerprint
        self.ids: list[str] = []
        self.kinds: list[str] = []
        self.texts: list[str] = []
        self.metadata: list[dict[str, str]] = []
        self._rows: dict[str, int] = {}
        # Rows [:len(self)] hold the vectors; the rest is spare capacity.
        self._matrix = np.empty((0, dim), dtype=np.float64)
        # _norms[:_normed] are the norms of the first _normed rows; the rows
        # whose indices _scaled_rows lists, in order, are normed and scored
        # as _scaled returns them.
        self._norms = np.empty(0, dtype=np.float64)
        self._normed = 0
        self._scaled_rows = np.empty(0, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._rows

    def get(self, record_id: str) -> VectorRecord:
        """A new record of the stored fields; changing it changes no store."""
        if record_id not in self._rows:
            raise InvalidInput(f"no record with id {record_id!r}")
        return self._record(self._rows[record_id])

    @property
    def records(self) -> list[VectorRecord]:
        """A new record for every row, in insertion order; O(n)."""
        return [self._record(i) for i in range(len(self))]

    def _record(self, i: int) -> VectorRecord:
        vector = self._matrix[i]
        vector.flags.writeable = False
        return VectorRecord(self.ids[i], vector, self.kinds[i], self.texts[i], self.metadata[i])

    def insert(self, record: VectorRecord) -> None:
        """Add a copy of one record; it becomes visible to get() and
        query_top_k(). The record is left as it is; a refused one leaves
        the store as it was.

        Raises:
            InvalidInput: a NaN or infinite entry, or a field load refuses.
            DuplicateId: the id is already present.
            DimensionMismatch: the vector is not 1-D of the store's dim.
        """
        vector = np.asarray(record.vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise DimensionMismatch(f"record dim {vector.shape} vs store dim {self.dim}")
        if not np.isfinite(vector).all():
            raise InvalidInput("record vector must be finite (no NaN or infinity)")
        _check_fields(record.id, record.kind, record.text, record.metadata)
        n = len(self)
        if n == self._matrix.shape[0]:
            matrix = np.empty((max(16, 2 * n), self.dim), dtype=np.float64)
            matrix[:n] = self._matrix
            norms = np.empty(matrix.shape[0], dtype=np.float64)
            norms[: self._normed] = self._norms[: self._normed]
            self._matrix, self._norms = matrix, norms
        self._add(record.id, record.kind, record.text, dict(record.metadata))
        self._matrix[n] = vector

    def _add(self, id_: str, kind: str, text: str, metadata: dict[str, str]) -> None:
        """Append one record's fields, or raise DuplicateId for a known id."""
        if id_ in self._rows:
            raise DuplicateId(f"record id {id_!r} already present")
        self._rows[id_] = len(self.ids)
        self.ids.append(id_)
        self.kinds.append(kind)
        self.texts.append(text)
        self.metadata.append(metadata)

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
        n = len(self)
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
        ids = self.ids
        by_id = sorted(candidates.tolist(), key=ids.__getitem__)
        # A stable sort by descending score keeps id order among equal scores.
        ranked = [by_id[j] for j in np.argsort(-scores[by_id], kind="stable")[:k]]
        return [(ids[i], float(scores[i])) for i in ranked]

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
        n = len(self)
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
                for fields in zip(self.ids, self.kinds, self.texts, self.metadata):
                    f.write(_dumps(dict(zip(_RECORD_FIELDS, fields))).encode("utf-8") + b"\n")
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
        """Read a store file that ``save`` wrote; validation failures name
        the offending line or the vector block. The record lines fill the
        columns; the matrix is then made once, at ``count`` rows, and the
        vector block fills it.

        Raises:
            CorruptStore: bad header, another version, wrong dim, duplicate
                id, malformed line, a text holding a lone surrogate, or a
                vector block that is short, too long, or holds a value
                ``save`` never writes.
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
            if type(version) is not int or version != STORE_VERSION:
                raise CorruptStore(f"{path}: line 1: unsupported version {version!r}; "
                                   "re-run `gtr ingest` or `gtr tables ingest`")
            dim = header.get("dim")
            if type(dim) is not int or dim < 1:
                raise CorruptStore(f"{path}: line 1: bad dim {dim!r}")
            # Each record takes at least a line break and its bitmap, so a
            # count the file cannot hold is refused before any allocation.
            count = header.get("count")
            most = os.fstat(f.fileno()).st_size // ((dim + 7) // 8 + 1)
            if type(count) is not int or not 0 <= count <= most:
                raise CorruptStore(f"{path}: line 1: bad count {count!r}")
            if type(header.get("embedder")) is not str:
                raise CorruptStore(f"{path}: line 1: bad embedder {header.get('embedder')!r}")
            if len(header) != len(_HEADER_FIELDS):
                unknown = next(k for k in header if k not in _HEADER_FIELDS)
                raise CorruptStore(f"{path}: line 1: unknown field {unknown!r}")
            store = cls(dim, header["embedder"])
            for lineno in range(2, count + 2):
                line = f.readline()
                if not line.endswith(b"\n"):
                    raise CorruptStore(f"{path}: line {lineno}: file ends before record "
                                       f"{lineno - 1} of {count}")
                try:
                    store._add(*_parse_record(_json_line(line)))
                except KeyError as e:
                    raise CorruptStore(f"{path}: line {lineno}: missing field {e}")
                except (InvalidInput, DuplicateId) as e:
                    raise CorruptStore(f"{path}: line {lineno}: {e}")
            store._matrix = np.zeros((count, dim), dtype=np.float64)
            store._norms = np.empty(count, dtype=np.float64)
            store._read_vectors(f, f"{path}: vector block")
            return store

    def _read_vectors(self, f, where: str) -> None:
        """Fill the matrix from the vector block, a fixed number of
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
        return f"row {row} (id {self.ids[row]!r})"


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


def _parse_record(obj) -> tuple[str, str, str, dict[str, str]]:
    """The id, kind, text and metadata a line after the header holds. Only
    what a save writes is accepted: the four fields and no other, each a
    string, and metadata mapping strings to strings, so the record saves
    back to the same line."""
    if not isinstance(obj, dict):
        raise InvalidInput("record must be a JSON object")
    id_, kind, text, metadata = map(obj.__getitem__, _RECORD_FIELDS)
    if len(obj) != len(_RECORD_FIELDS):
        raise InvalidInput(f"unknown field {next(k for k in obj if k not in _RECORD_FIELDS)!r}")
    _check_fields(id_, kind, text, metadata)
    return id_, kind, text, metadata


def _dumps(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
