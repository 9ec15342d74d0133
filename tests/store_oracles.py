"""The vector store that ``gtr.store`` replaced, kept verbatim as a test
oracle: every record owns its vector, and the first query after any insert
copies them all into a cached matrix (``_ensure_caches``). Its ``save`` and
the serialisation helpers it calls are copied with it: they write and read
store format version 1, one JSON line per record with the vector inline.
``tests/test_store_equivalence.py`` compares the production store against
this one for search results, and checks that the records of the
version-1 files it writes, inserted into a production store
(``as_production``), save to the production store's bytes; the production
``load`` reads version 3 only. ``cosine`` is the function as it was before
it learned to scale vectors by a power of two; ``tests/test_store.py``
checks that every pair whose arithmetic stays in the normal float range
still gets the same bits. ``scaled_cosine`` is the scaling one as it was
before its per-vector and per-pair steps were split: production must
return its bits and raise its exceptions, messages included.

``v3_bytes`` spells out store format version 3 one entry at a time, apart
from the production writer, so the tests can pin that layout byte for byte.
Version 2, which kept every record line before one vector block, is kept
as an oracle too: ``v2_bytes`` writes it and ``load_v2``, the production
reader it had, reads it back. The records a version-3 file loads to must
equal those ``load_v2`` reads from ``v2_bytes`` of the same records.

``load_v3`` is the version-3 ``load`` as it was while it parsed each record
line by itself, with ``json.loads``: its ``_read_entries`` is kept verbatim,
and it and ``load_v2`` parse lines with their own copies of ``_json_line``,
``_parse_record`` and ``_check_fields``, so no oracle shares parsing code
with ``gtr.store``. ``tests/test_store_load.py`` checks that the production
``load``, which splits a line with no escape at its quotes, leaves the same
store or raises the same message on every file.

``naive_row`` and ``naive_top_k`` are a naive scan in the order the
production store defines for its sums, one Python float operation at a
time: a dot product adds the products over the query's nonzero entries
from +0.0 in ascending column order, and a row's norm folds its squares in
half. Production scores must equal theirs bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
import os
import struct
from pathlib import Path

import numpy as np

import gtr.store
from gtr.errors import (
    CorruptStore,
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ZeroVector,
    check_unicode,
)
from gtr.store import (
    STORE_FORMAT, RECORD_KINDS, VectorRecord, _Committed, _scaled, _stat_key, _vector,
)

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


def scaled_cosine(u, v) -> float:
    """``gtr.store.cosine`` as it was before it was split into a step that
    prepares one vector and a step that scores a prepared pair, with every
    check in one function.

    Raises:
        DimensionMismatch: different lengths.
        ZeroVector: either argument has zero norm.
        InvalidInput: an entry is NaN, infinite or not a real number.
    """
    u = _vector(u, "cosine")
    v = _vector(v, "cosine")
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


def as_production(oracle: VectorStore) -> gtr.store.VectorStore:
    """A production store holding copies of ``oracle``'s records, inserted
    in order."""
    store = gtr.store.VectorStore(oracle.dim, oracle.embedder_fingerprint)
    for r in oracle.records:
        store.insert(VectorRecord(r.id, r.vector, r.kind, r.text, dict(r.metadata)))
    return store


def v2_bytes(dim: int, fingerprint: str, records) -> bytes:
    """A version-2 store file: the header line, one metadata line per
    record, each row's bitmap, then every row's set entries."""
    header = {"format": STORE_FORMAT, "version": 2, "dim": dim,
              "embedder": fingerprint, "count": len(records)}
    lines = [_dumps(header)] + [
        _dumps({"id": r.id, "kind": r.kind, "text": r.text, "metadata": r.metadata})
        for r in records
    ]
    rows = [_bitmap_and_values(dim, r.vector) for r in records]
    return ("".join(line + "\n" for line in lines).encode("utf-8")
            + b"".join(bitmap for bitmap, _ in rows) + b"".join(values for _, values in rows))


def _bitmap_and_values(dim: int, vector) -> tuple[bytes, bytes]:
    """A row's bitmap (bit j, most significant first, set when entry j is
    not all zero bits) and its set entries as little-endian float64."""
    entries = [struct.pack("<d", x) for x in vector.tolist()]
    bitmap = bytearray()
    for j in range(0, dim, 8):
        byte = 0
        for bit, entry in enumerate(entries[j:j + 8]):
            if entry != bytes(8):
                byte |= 0x80 >> bit
        bitmap.append(byte)
    return bytes(bitmap), b"".join(entry for entry in entries if entry != bytes(8))


def v3_bytes(dim: int, fingerprint: str, records) -> bytes:
    """A version-3 store file: the header line, padded with spaces to the
    length it has with a 20-digit count, then per record its metadata
    line, its bitmap and its set entries."""
    def header(count):
        return _dumps({"format": STORE_FORMAT, "version": 3, "dim": dim,
                       "embedder": fingerprint, "count": count})

    out = (header(len(records)).ljust(len(header(10 ** 19))) + "\n").encode("utf-8")
    for r in records:
        line = _dumps({"id": r.id, "kind": r.kind, "text": r.text, "metadata": r.metadata})
        out += (line + "\n").encode("utf-8") + b"".join(_bitmap_and_values(dim, r.vector))
    return out


def load_v2(path) -> gtr.store.VectorStore:
    """Read a version-2 store file, as the production ``load`` did before
    version 3; validation failures name the offending line or the vector
    block.

    Raises:
        CorruptStore: bad header, another version, wrong dim, duplicate
            id, malformed line, a text holding a lone surrogate, or a
            vector block that is short, too long, or holds a value
            version 2's save never writes.
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
        if type(version) is not int or version != 2:
            raise CorruptStore(f"{path}: line 1: unsupported version {version!r}")
        dim = header.get("dim")
        if type(dim) is not int or dim < 1:
            raise CorruptStore(f"{path}: line 1: bad dim {dim!r}")
        count = header.get("count")
        most = os.fstat(f.fileno()).st_size // ((dim + 7) // 8 + 1)
        if type(count) is not int or not 0 <= count <= most:
            raise CorruptStore(f"{path}: line 1: bad count {count!r}")
        if type(header.get("embedder")) is not str:
            raise CorruptStore(f"{path}: line 1: bad embedder {header.get('embedder')!r}")
        if len(header) != 5:
            raise CorruptStore(f"{path}: line 1: unknown field")
        store = gtr.store.VectorStore(dim, header["embedder"])
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
        store._matrix = np.zeros((count, dim), dtype=np.float64, order="F")
        store._norms = np.empty(count, dtype=np.float64)
        _read_v2_vectors(store, f, f"{path}: vector block")
        return store


def _read_v2_vectors(store, f, where: str) -> None:
    """Fill the matrix from version 2's vector block, a fixed number of
    rows at a time. Pad bits and stored +0.0 entries are refused."""
    n, dim = store._matrix.shape
    width = (dim + 7) // 8
    bitmaps = np.frombuffer(_read_exactly(f, n * width, where), np.uint8).reshape(n, width)
    padded = np.flatnonzero(bitmaps[:, -1] & (0xFF >> dim % 8)) if dim % 8 else []
    if len(padded):
        raise CorruptStore(f"{where}: {store._row_name(padded[0])}: bits set past dim {dim}")
    for start in range(0, n, 1024):
        mask = np.unpackbits(bitmaps[start:start + 1024], axis=1, count=dim)
        mask = mask.view(bool)
        size = 8 * int(np.count_nonzero(mask))
        values = np.frombuffer(_read_exactly(f, size, where), "<f8")
        for bad, what in ((~np.isfinite(values), "a NaN or infinite value"),
                          (values.view("<u8") == 0, "a stored +0.0")):
            if bad.any():
                counts = np.cumsum(np.count_nonzero(mask, axis=1))
                row = start + int(np.searchsorted(counts, np.argmax(bad), side="right"))
                raise CorruptStore(f"{where}: {store._row_name(row)}: {what}")
        store._matrix[start:start + 1024][mask] = values
    if f.read(1):
        raise CorruptStore(f"{where}: trailing bytes after the last row")


def _read_exactly(f, size: int, where: str) -> bytes:
    data = f.read(size)
    if len(data) != size:
        raise CorruptStore(f"{where}: truncated, {size - len(data)} of {size} bytes missing")
    return data


_HEADER_FIELDS = ("format", "version", "dim", "embedder", "count")
_RECORD_FIELDS = ("id", "kind", "text", "metadata")
_BLOCK_ROWS = 256
log = logging.getLogger("gtr")


def load_v3(path) -> gtr.store.VectorStore:
    """Read a version-3 store file, as the production ``load`` did while it
    parsed each record line by itself: the parsing is this module's own."""
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
        if type(version) is not int or version != 3:
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
        store = gtr.store.VectorStore(dim, embedder)
        store._reserve(count + 1)
        end = _read_entries(store, f, count, str(path))
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
            try:
                add(*_parse_record(_json_line(line[:-1])))
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


def _header(dim: int, embedder: str, count: int) -> bytes:
    """Line 1 of a version-3 store file, padded to a 20-digit count's width."""
    line = _dumps({"format": STORE_FORMAT, "version": 3, "dim": dim,
                   "embedder": embedder, "count": count}).encode("utf-8")
    return line.ljust(len(line) - len(str(count)) + 20) + b"\n"


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


# A row norm below this had its square fall out of the normal float range.
TINY_NORM = 2.0 ** -511


def power_scaled(values: list[float]) -> list[float]:
    """values times the power of two that puts the largest magnitude in
    [0.5, 1); all zeros stay as they are."""
    peak = max(abs(x) for x in values)
    if peak == 0.0:
        return list(values)
    shift = -math.frexp(peak)[1]
    return [math.ldexp(x, shift) for x in values]


def nonzero_terms(query: list[float]) -> list[tuple[int, float]]:
    """``(j, query[j])`` for each nonzero entry, in ascending j."""
    return [(j, q) for j, q in enumerate(query) if q != 0.0]


def ordered_dot(row: list[float], terms: list[tuple[int, float]]) -> float:
    """From +0.0, add row[j] * q for each of a query's ``nonzero_terms``,
    in order."""
    total = 0.0
    for j, q in terms:
        total += row[j] * q
    return total


def fold_norm(values: list[float]) -> float:
    """The root of the sum of squares, padded with zeros to a power-of-two
    length and folded in half (entry j + w added to entry j) until one is
    left."""
    squares = [x * x for x in values]
    width = 1 << (len(squares) - 1).bit_length()
    squares += [0.0] * (width - len(squares))
    while width > 1:
        width //= 2
        squares = [a + b for a, b in zip(squares[:width], squares[width:])]
    return math.sqrt(squares[0])


def naive_row(record_id: str, vector) -> tuple[str, list[float], float]:
    """``(id, entries, norm)`` as the scan scores the row: a nonzero row
    whose norm overflows or whose squares fall below the normal float range
    is scaled by a power of two first."""
    values = [float(x) for x in vector]
    norm = fold_norm(values)
    if norm < TINY_NORM or norm == math.inf:
        scaled = power_scaled(values)
        if fold_norm(scaled) != 0.0:
            values, norm = scaled, fold_norm(scaled)
    return record_id, values, norm


def naive_top_k(rows, query, k: int) -> list[tuple[str, float]]:
    """The top k of ``naive_row`` rows by cosine score, descending, then by
    ascending id. The query is scaled by a power of two; its norm is the
    root of its own ordered dot product; a zero denominator scores 0.0."""
    query = power_scaled([float(x) for x in query])
    terms = nonzero_terms(query)
    qnorm = math.sqrt(ordered_dot(query, terms))
    scored = []
    for record_id, values, norm in rows:
        denom = norm * qnorm
        score = ordered_dot(values, terms) / denom if denom != 0.0 else 0.0
        scored.append((record_id, min(1.0, max(-1.0, score))))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]
