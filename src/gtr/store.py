"""Persistent vector store with exact cosine top-k search.

Search is an exhaustive scan — no approximate index. As in FAISS's flat
index, records are kept as columns: lists of ids, kinds, texts and metadata
beside one float64 matrix, one row per record, with spare rows for growth.
The matrix is column-major, so each of its columns is contiguous.

Every score is summed in one defined order, the same for every row: a
row's dot product with the query starts from +0.0 and adds the products
over the query's nonzero entries one column at a time, in ascending column
order. A row's norm folds its squares in half (see ``_norms``). Equal
vectors therefore score equally wherever they sit, and equal scores are
ordered by ascending id. A hashed query has a few nonzero entries, so a
query reads a few columns; a dense query reads them all, which at dim 384
took about 8 ms over 15,000 rows and 52 ms over 100,000 on one core of a
2-core x86-64 VM. An insert writes one row; the next query norms the rows
added since the last.

File format, version 3 (one store per file):

    line 1:   {"format":"gtr-store","version":3,"dim":N,"embedder":FINGERPRINT,"count":n}
              padded with spaces to the width a 20-digit count takes, then "\\n"
    n entries, one per record, in order:
              {"id":...,"kind":...,"text":...,"metadata":{...}}   (UTF-8), "\\n",
              the row's bitmap of ceil(N/8) bytes, then its set entries as
              little-endian float64

A row's bitmap has bit j (most significant first) set when entry j's bits
are not all zero, so -0.0 is stored and +0.0 is not. As in FAISS's
``IndexFlatIP`` the vectors are read straight into the matrix, with no
per-value parsing. A record line holding no backslash and no control
character is split at its quotes and taken when it is laid out exactly as
a save writes it; any other line (a text with a newline, tab, quote or
backslash, which a save writes as an escape, or a line laid out otherwise)
is parsed as JSON. A load reads only what a save writes: it refuses any
other version, a header not padded as shown, a header or record line with
a field beyond those shown, and a record whose id, kind, text or metadata
value is not a string. Bytes after the n-th entry are a tail left by an
interrupted append: a load ignores them and logs a warning.

A save appends when the file at its path is the one the store last saved
or loaded, unchanged since (the log-structured commit of Rosenblum and
Ousterhout, 1992): the new entries go past the committed end, and the
header, rewritten in place at the same width, commits them. Otherwise a
save writes the whole file beside the path and renames it over. Both write
the same bytes, so ``load(save(store))`` reproduces every record bit for
bit and saving it again writes the same bytes; stored vectors are kept
exactly as written (never re-normalized on load).
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import stat
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    CorruptStore,
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ZeroVector,
    check_unicode,
    loads_json,
)

log = logging.getLogger("gtr")

STORE_FORMAT = "gtr-store"
STORE_VERSION = 3
RECORD_KINDS = ("chunk", "table")
_HEADER_FIELDS = ("format", "version", "dim", "embedder", "count")
_RECORD_FIELDS = ("id", "kind", "text", "metadata")
# The header is padded to the width a count of this many digits takes, so
# that no count a file can hold changes its length.
_COUNT_DIGITS = 20
# Rows per encoded or decoded block of entries: a fixed buffer, so neither
# a save nor a load holds a second copy of the vectors.
_BLOCK_ROWS = 256
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
    keeps the bits of the unscaled formula. Each side is prepared alone
    (``_cosine_side``, after both are converted), so SAS prepares it once.

    Raises:
        DimensionMismatch: different lengths.
        ZeroVector: either argument has zero norm.
        InvalidInput: an entry is NaN, infinite or not a real number.
    """
    u, v = _vector(u, "cosine"), _vector(v, "cosine")
    return _cosine_pair(_cosine_side(u), _cosine_side(v))


def _cosine_side(x) -> tuple:
    """(x as a 1-D float64 array, its ``_scaled`` copy, that copy's norm)."""
    x = _vector(x, "cosine")
    if x.ndim != 1:
        raise InvalidInput("cosine expects 1-D vectors")
    scaled = _scaled(x)
    return x, scaled, np.linalg.norm(scaled)


def _cosine_pair(side_u: tuple, side_v: tuple) -> float:
    (u, su, nu), (v, sv, nv) = side_u, side_v
    if u.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"dim {u.shape[0]} vs {v.shape[0]}")
    if not (math.isfinite(nu) and math.isfinite(nv)):  # inf * 0 would warn
        raise InvalidInput("cosine is undefined for a non-finite vector")
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine is undefined for a zero vector")
    if np.array_equal(u, v):
        return 1.0
    return float(min(1.0, max(-1.0, float(su @ sv) / (nu * nv))))


def _vector(values, what: str) -> np.ndarray:
    """values as a float64 array.

    Raises:
        InvalidInput: an entry is not a real number (a string, a complex
            number, a bool, an int too large for a float), or the entries
            are ragged.
    """
    try:
        array = np.asarray(values)
    except ValueError:
        raise InvalidInput(f"{what} vector is ragged") from None
    if array.dtype.kind not in "fiu":
        raise InvalidInput(f"{what} vector entries must be real numbers, got {array.dtype}")
    return array.astype(np.float64, copy=False)


def _column_dots(matrix: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Each row's dot product with query, summed in the defined order: from
    +0.0, adding the products over the query's nonzero entries one column at
    a time, in ascending column order. A zero product adds nothing to a sum
    started from +0.0, so this is the sum over every column in that order."""
    dots = np.zeros(matrix.shape[0])
    products = np.empty_like(dots)
    columns = query.nonzero()[0]
    for j, q in zip(columns.tolist(), query[columns].tolist()):
        np.multiply(matrix[:, j], q, out=products)
        dots += products
    return dots


def _norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, summed in one order that is the same for
    every row: the squares, padded with zeros to a power-of-two width, are
    folded in half, adding entry j + w to entry j, until one is left. That
    is a fixed number of array operations however many rows there are."""
    width = 1 << (rows.shape[1] - 1).bit_length()
    squares = np.zeros((width, rows.shape[0]))  # row j: entry j of every row
    np.square(rows.T, out=squares[: rows.shape[1]])
    while width > 1:
        width //= 2
        np.add(squares[:width], squares[width:2 * width], out=squares[:width])
    return np.sqrt(squares[0])


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
        self.vector = _vector(self.vector, "record")
        self.metadata = dict(self.metadata)


class _Column(Sequence):
    """A read-only view of one of a store's record columns."""

    __slots__ = ("_values",)

    def __init__(self, values: list):
        self._values = values

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i):
        return self._values[i]

    def __iter__(self):
        return iter(self._values)


class VectorStore:
    """Ordered vector records over one embedding space: record i is
    ``ids[i]``, ``kinds[i]``, ``texts[i]``, ``metadata[i]`` and matrix row i.
    The columns are read-only views, ``metadata[i]`` a read-only mapping,
    and ``get`` and ``records`` hand out copies: a record, once added,
    changes no more, which a save that appends only the rows added since
    relies on.

    Concurrency contract: any number of concurrent readers (query_top_k,
    get) OR a single writer (insert, save); no internal locking.
    """

    def __init__(self, dim: int, embedder_fingerprint: str):
        if dim < 1:
            raise InvalidInput(f"dim must be positive, got {dim}")
        self.dim = dim
        self.embedder_fingerprint = embedder_fingerprint
        self._ids: list[str] = []
        self._kinds: list[str] = []
        self._texts: list[str] = []
        self._metadata: list[Mapping[str, str]] = []
        self._rows: dict[str, int] = {}
        # Rows [:len(self)] hold the vectors; the rest is spare capacity.
        # Column-major, so a query reads the columns it needs contiguously.
        self._matrix = np.empty((0, dim), dtype=np.float64, order="F")
        # _norms[:_normed] are the norms of the first _normed rows; the rows
        # whose indices _scaled_rows lists, in order, are normed and scored
        # as _scaled returns them.
        self._norms = np.empty(0, dtype=np.float64)
        self._normed = 0
        self._scaled_rows = np.empty(0, dtype=np.intp)
        # The file this store last saved or loaded, as it left it.
        self._file: _Committed | None = None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> Sequence[str]:
        return _Column(self._ids)

    @property
    def kinds(self) -> Sequence[str]:
        return _Column(self._kinds)

    @property
    def texts(self) -> Sequence[str]:
        return _Column(self._texts)

    @property
    def metadata(self) -> Sequence[Mapping[str, str]]:
        return _Column(self._metadata)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._rows

    def get(self, record_id: str) -> VectorRecord:
        """A new record of the stored fields; changing it changes no store."""
        return self._record(self.row(record_id))

    def row(self, record_id: str) -> int:
        """The record's row: its index into ids, kinds, texts and metadata."""
        try:
            return self._rows[record_id]
        except KeyError:
            raise InvalidInput(f"no record with id {record_id!r}") from None

    @property
    def records(self) -> list[VectorRecord]:
        """A new record for every row, in insertion order; O(n)."""
        return [self._record(i) for i in range(len(self))]

    def _record(self, i: int) -> VectorRecord:
        vector = self._matrix[i]
        vector.flags.writeable = False
        return VectorRecord(self._ids[i], vector, self._kinds[i], self._texts[i],
                            self._metadata[i])

    def insert(self, record: VectorRecord) -> None:
        """Add a copy of one record; it becomes visible to get() and
        query_top_k(). The record is left as it is; a refused one leaves
        the store as it was.

        Raises:
            InvalidInput: a NaN, infinite or non-real entry, or a field
                load refuses.
            DuplicateId: the id is already present.
            DimensionMismatch: the vector is not 1-D of the store's dim.
        """
        self.insert_many([record])

    def insert_many(self, records: list[VectorRecord]) -> None:
        """Add copies of records, in order, as ``insert`` adds one; their
        rows are written with one assignment, as a row of the column-major
        matrix is spread over all its columns. Every record is checked
        before any is added: a refused one leaves the store as it was.

        Raises:
            As ``insert``, also for an id repeated within records.
        """
        vectors = np.empty((len(records), self.dim), dtype=np.float64)
        new_ids = set()
        for i, record in enumerate(records):
            vector = _vector(record.vector, "record")
            if vector.shape != (self.dim,):
                raise DimensionMismatch(f"record dim {vector.shape} vs store dim {self.dim}")
            if not np.isfinite(vector).all():
                raise InvalidInput("record vector must be finite (no NaN or infinity)")
            _check_fields(record.id, record.kind, record.text, record.metadata)
            if record.id in self._rows or record.id in new_ids:
                raise DuplicateId(f"record id {record.id!r} already present")
            new_ids.add(record.id)
            vectors[i] = vector
        self._reserve((n := len(self)) + len(records))
        for record in records:
            self._add(record.id, record.kind, record.text, dict(record.metadata))
        self._matrix[n:n + len(records)] = vectors

    def _reserve(self, rows: int) -> None:
        """Grow the matrix, zeroed, and its norms to the smallest 2**k - 8 >= rows,
        k >= 5 (24, 56, 120, ...): never a multiple of 16 rows, so no column
        stride is a multiple of 4 KB, which maps a row's writes to one cache set."""
        if rows > self._matrix.shape[0]:
            capacity = (1 << max(5, (rows + 7).bit_length())) - 8
            matrix = np.zeros((capacity, self.dim), dtype=np.float64, order="F")
            matrix[:len(self)] = self._matrix[:len(self)]
            norms = np.empty(capacity, dtype=np.float64)
            norms[: self._normed] = self._norms[: self._normed]
            if self._matrix.shape[0]:
                log.debug("store matrix grows from %d to %d rows, copying %d",
                          self._matrix.shape[0], capacity, len(self))
            self._matrix, self._norms = matrix, norms

    def _add(self, id_: str, kind: str, text: str, metadata: dict[str, str]) -> None:
        """Append one record's fields, or raise DuplicateId for a known id."""
        if id_ in self._rows:
            raise DuplicateId(f"record id {id_!r} already present")
        self._rows[id_] = len(self._ids)
        self._ids.append(id_)
        self._kinds.append(kind)
        self._texts.append(text)
        self._metadata.append(MappingProxyType(metadata))

    def query_top_k(self, query, k: int) -> list[tuple[str, float]]:
        """Exact top-k by cosine score, descending; ties by ascending id.

        Returns min(k, len(store)) pairs. Records whose stored vector has
        zero norm score 0.0 rather than erroring, so one bad record cannot
        poison every query. The query, and each row whose norm would
        overflow or underflow, is scaled by a power of two first, as in
        ``cosine``, so huge and tiny vectors score like any others. A score
        is the row's dot product with the query, in the order the module
        docstring defines, over the row's norm times the query's; the
        query's norm is the root of its own dot product in that order.

        Raises:
            DimensionMismatch: query dim differs from the store's.
            ZeroVector: the query has zero norm.
            InvalidInput: k < 1, or the query has a NaN, infinite or
                non-real entry.
        """
        if k < 1:
            raise InvalidInput(f"k must be positive, got {k}")
        query = _vector(query, "query")
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise DimensionMismatch(
                f"query dim {query.shape} vs store dim {self.dim}"
            )
        query = _scaled(query)
        # The query's own dot product, summed in the same order.
        squares = np.square(query[query != 0.0])
        qnorm = math.sqrt(np.cumsum(squares)[-1]) if squares.size else 0.0
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
                dots = _column_dots(matrix, query)
            dots[rows] = _column_dots(_scaled(matrix[rows]), query)
        else:
            dots = _column_dots(matrix, query)
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
        ids = self._ids
        by_id = sorted(candidates.tolist(), key=ids.__getitem__)
        # A stable sort by descending score keeps id order among equal scores.
        ranked = [by_id[j] for j in np.argsort(-scores[by_id], kind="stable")[:k]]
        return [(ids[i], float(scores[i])) for i in ranked]

    def _norm_rows(self, start: int, stop: int) -> None:
        """Fill _norms[start:stop], a fixed number of rows at a time. A row
        whose norm overflows, or whose squares fall below the normal float
        range, is normed as _scaled returns it and joins _scaled_rows."""
        for begin in range(start, stop, _BLOCK_ROWS):
            end = min(begin + _BLOCK_ROWS, stop)
            rows = self._matrix[begin:end]
            with np.errstate(over="ignore"):
                norms = _norms(rows)
            odd = np.flatnonzero((norms < _TINY_NORM) | (norms == np.inf))
            if odd.size:
                norms[odd] = _norms(_scaled(rows[odd]))
                odd = odd[norms[odd] != 0.0]  # zero rows stay as they are
                # A new array, not an update: a concurrent reader keeps the
                # one it read, and racing readers assign equal arrays.
                self._scaled_rows = np.union1d(self._scaled_rows, odd + begin)
            self._norms[begin:end] = norms

    def save(self, path: str | Path) -> None:
        """Write the store to ``path``. When ``path`` is the file this store
        last saved or loaded, unchanged since, only the rows added since
        are written, past its committed end, and rewriting the header's
        count in place commits them. Otherwise the whole store goes to a
        temporary file beside ``path``, which is then renamed over it. Both
        ways write the same bytes, and a save that fails part way leaves a
        file that loads to the records it held before."""
        path = Path(path)
        header = _header(self.dim, self.embedder_fingerprint, len(self))
        reason = self._why_whole(path, header)
        if reason is None:
            self._append(path, header)
            return
        log.debug("store save %s: writing the whole file: %s", path, reason)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as f:
                f.write(header)
                end = self._write_entries(f, 0)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._file = _Committed(os.path.abspath(path), _stat_key(os.lstat(path)),
                                len(self), end, len(header))

    def _why_whole(self, path: Path, header: bytes) -> str | None:
        """None when a save to ``path`` can append; else why it cannot."""
        committed = self._file
        if committed is None:
            return "the store has saved or loaded no file"
        if committed.path != os.path.abspath(path):
            return f"the store last saved or loaded {committed.path}"
        try:
            st = os.lstat(path)
        except FileNotFoundError:
            return "the file is missing"
        if not stat.S_ISREG(st.st_mode):
            return "not a regular file"
        if not os.access(path, os.W_OK):  # a rename still replaces it
            return "the file is not writable"
        if _stat_key(st) != committed.stat:
            return "the file changed since the store last saved or loaded it"
        if len(header) != committed.header:
            return "the header changed width"
        return None

    def _append(self, path: Path, header: bytes) -> None:
        """Write the rows past the committed count at the committed end,
        dropping any tail there, then rewrite the header: the commit. An
        error before the commit truncates the file back to its committed
        end."""
        committed = self._file
        with open(path, "r+b") as f:
            try:
                f.truncate(committed.end)
                f.seek(committed.end)
                end = self._write_entries(f, committed.count)
                f.flush()
            except BaseException:
                f.truncate(committed.end)
                raise
            f.seek(0)
            f.write(header)
            f.flush()
            key = _stat_key(os.fstat(f.fileno()))
        self._file = committed._replace(stat=key, count=len(self), end=end)

    def _write_entries(self, f, start: int) -> int:
        """Write the entries of rows ``start`` onward, a block of rows at a
        time, and return the offset just past the last."""
        for begin in range(start, len(self), _BLOCK_ROWS):
            f.write(self._entries(begin, min(begin + _BLOCK_ROWS, len(self))))
        return f.tell()

    def _entries(self, start: int, stop: int) -> bytes:
        """Rows ``start`` to ``stop`` as the file holds them: for each row its
        record line, its bitmap and its set entries. Every save, whole or
        appending, encodes rows here."""
        # One copy of the block in row order, so that the bitmaps and the
        # set entries come out row by row.
        block = np.ascontiguousarray(self._matrix[start:stop])
        nonzero = block.view(np.uint64) != 0
        bitmaps = np.packbits(nonzero, axis=1).tobytes()
        values = block[nonzero].astype("<f8", copy=False).tobytes()
        ends = (8 * np.cumsum(np.count_nonzero(nonzero, axis=1))).tolist()
        width = (self.dim + 7) // 8
        parts = []
        begin = 0
        records = zip(self._ids[start:stop], self._kinds[start:stop],
                      self._texts[start:stop], self._metadata[start:stop])
        for at, (id_, kind, text, metadata), end in zip(range(0, len(bitmaps), width),
                                                        records, ends):
            line = _dumps({"id": id_, "kind": kind, "text": text, "metadata": dict(metadata)})
            parts += (line.encode("utf-8"), b"\n", bitmaps[at:at + width], values[begin:end])
            begin = end
        return b"".join(parts)

    @classmethod
    def load(cls, path: str | Path) -> "VectorStore":
        """Read a store file that ``save`` wrote; validation failures name
        line 1 or the row. The matrix is made once, with a spare row (see
        ``_reserve``); the entries are read a block of rows at a time, their
        record lines filling the columns and their set entries the matrix.
        A record line with no escape is split at its quotes, the rest are
        parsed as JSON (see ``_split_record``). Bytes after the last entry
        are ignored, with a warning on ``gtr``.

        Raises:
            CorruptStore: bad header, another version, wrong dim, duplicate
                id, malformed line, a text holding a lone surrogate, an
                entry cut short, or a value ``save`` never writes.
            OSError: unreadable path.
        """
        path = Path(path)
        with open(path, "rb") as f:
            st = os.fstat(f.fileno())
            line = f.readline()
            if not line:
                raise CorruptStore(f"{path}: line 1: empty file, missing header")
            try:
                header = _json_line(line)
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
            if type(count) is not int or not 0 <= count <= st.st_size // ((dim + 7) // 8 + 1):
                raise CorruptStore(f"{path}: line 1: bad count {count!r}")
            embedder = header.get("embedder")
            if type(embedder) is not str:
                raise CorruptStore(f"{path}: line 1: bad embedder {embedder!r}")
            if len(header) != len(_HEADER_FIELDS):
                unknown = next(k for k in header if k not in _HEADER_FIELDS)
                raise CorruptStore(f"{path}: line 1: unknown field {unknown!r}")
            if line != _header(dim, embedder, count):
                raise CorruptStore(f"{path}: line 1: not the header a save writes, "
                                   f"padded to {len(_header(dim, embedder, 0)) - 1} bytes")
            store = cls(dim, embedder)
            store._reserve(count + 1)
            end = store._read_entries(f, count, str(path))
        if end < st.st_size:
            log.warning("store %s: ignoring %d bytes after the last of its %d records, "
                        "left by an interrupted save", path, st.st_size - end, count)
        store._file = _Committed(os.path.abspath(path), _stat_key(st), count, end, len(line))
        return store

    def _read_entries(self, f, count: int, where: str) -> int:
        """Fill the columns and the reserved matrix's first ``count`` rows
        from the entries ``f`` reads next, a block of rows at a time, and
        return the offset just past the last. Pad bits and stored +0.0 entries
        are refused: they would load, but not save back to the same bytes."""
        width = (self.dim + 7) // 8
        pad = (1 << (8 * width - self.dim)) - 1  # the bitmap's bits past dim
        readline, read, add, from_bytes = f.readline, f.read, self._add, int.from_bytes
        for start in range(0, count, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, count)
            bitmaps, values = [], []
            for row in range(start, stop):
                line = readline()
                if not line.endswith(b"\n"):
                    raise CorruptStore(f"{where}: row {row}: file ends before record "
                                       f"{row + 1} of {count}")
                record = line[:-1]
                try:  # a line _split_record does not take is parsed as JSON
                    add(*(_BACKSLASH not in record and _split_record(record)
                          or _parse_record(_json_line(record))))
                except KeyError as e:
                    raise CorruptStore(f"{where}: row {row}: missing field {e}") from None
                except (InvalidInput, DuplicateId) as e:
                    raise CorruptStore(f"{where}: row {row}: {e}") from None
                bitmap = read(width)
                bits = from_bytes(bitmap, "big")
                if bits & pad and len(bitmap) == width:
                    raise CorruptStore(f"{where}: {self._row_name(row)}: "
                                       f"bits set past dim {self.dim}")
                size = 8 * bits.bit_count()
                value = read(size)
                if len(bitmap) < width or len(value) < size:
                    missing = width - len(bitmap) + size - len(value)
                    raise CorruptStore(f"{where}: {self._row_name(row)}: truncated, "
                                       f"{missing} of its bytes missing")
                bitmaps.append(bitmap)
                values.append(value)
            packed = np.frombuffer(b"".join(bitmaps), np.uint8)
            mask = np.unpackbits(packed.reshape(-1, width), axis=1, count=self.dim)
            mask = mask.view(bool)
            block = np.frombuffer(b"".join(values), "<f8")
            for bad, what in ((~np.isfinite(block), "a NaN or infinite value"),
                              (block.view("<u8") == 0, "a stored +0.0")):
                if bad.any():
                    counts = np.cumsum(np.count_nonzero(mask, axis=1))
                    row = start + int(np.searchsorted(counts, np.argmax(bad), side="right"))
                    raise CorruptStore(f"{where}: {self._row_name(row)}: {what}")
            self._matrix[start:stop][mask] = block
        return f.tell()

    def _row_name(self, row: int) -> str:
        return f"row {row} (id {self._ids[row]!r})"


class _Committed(NamedTuple):
    """A store file as the store last saved or loaded it."""

    path: str  # absolute
    stat: tuple[int, int, int, int]  # _stat_key of the file
    count: int  # records the header commits
    end: int  # offset just past the last committed entry
    header: int  # length of line 1


def _stat_key(st: os.stat_result) -> tuple[int, int, int, int]:
    """What tells a file from another, or from itself changed."""
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _header(dim: int, embedder: str, count: int) -> bytes:
    """Line 1 of a store file: the header, padded with spaces to the width
    a ``_COUNT_DIGITS``-digit count takes, so that rewriting the count
    never changes its length."""
    line = _dumps({"format": STORE_FORMAT, "version": STORE_VERSION, "dim": dim,
                   "embedder": embedder, "count": count}).encode("utf-8")
    return line.ljust(len(line) - len(str(count)) + _COUNT_DIGITS) + b"\n"


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
        return loads_json(text)
    except ValueError as e:  # JSONDecodeError, an over-long integer, or nesting too deep
        raise InvalidInput(f"malformed JSON: {e}") from None


def _split_record(line: bytes) -> tuple[str, str, str, dict[str, str]] | None:
    """The id, kind, text and metadata of a record line that holds no
    backslash, its line break cut, when it is laid out as ``_dumps`` writes
    it; else None. With no backslash and no control byte the line holds no
    escape, so it is split at its quotes, and taken when the pieces between
    its strings are those of ``_skeleton``: it is then the very line a save
    writes for those strings."""
    if len(line.translate(None, _CONTROL_BYTES)) != len(line):
        return None
    try:
        parts = line.decode("utf-8").split('"')
    except UnicodeDecodeError:
        return None
    if (parts[1:14:4] == _RECORD_KEYS and parts[3] and parts[7] in RECORD_KINDS
            and parts[::2] == _skeleton(len(parts))):
        pairs = iter(parts[15::2])  # key, value, key, value, ...
        return parts[3], parts[7], parts[11], dict(zip(pairs, pairs))
    return None


@functools.lru_cache(maxsize=64)
def _skeleton(parts: int) -> list[str] | None:
    """Pieces 0, 2, 4, ... of a record line that ``_dumps`` writes, split at
    its quotes into ``parts`` pieces, where no string holds a quote:
    ``{"id":"…","kind":"…","text":"…","metadata":{"…":"…",…}}`` gives
    ``{``, then ``:`` and ``,`` in turn, with ``:{`` before the metadata's
    first key and ``}}`` at the end. None when no such line has ``parts``
    pieces. The list is cached, so it is compared, never changed."""
    pairs, rest = divmod(parts - 15, 4)
    if rest or pairs < 0:
        return None
    head = ["{", ":", ",", ":", ",", ":", ","]
    if not pairs:
        return [*head, ":{}}"]
    return [*head, ":{", *[":", ","] * (pairs - 1), ":", "}}"]


_RECORD_KEYS = list(_RECORD_FIELDS)
_CONTROL_BYTES = bytes(range(32))  # JSON refuses them raw in a string
_BACKSLASH = ord("\\")  # bytes find an int faster than a one-byte bytes


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


# json.dumps with these options, without building an encoder per line.
_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
