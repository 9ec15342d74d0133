"""The store's loader against the per-line JSON loader it replaced.

``VectorStore.load`` splits a record line that holds no backslash and no
control byte at its quotes (``store._split_record``), and parses any other
line as JSON. ``store_oracles.load_v3`` is the loader as it
was, parsing every line with ``json.loads`` as it read it. On every file,
seeded random stores and byte mutants of them included, the two must leave
the same store (columns, metadata key order, row index, matrix bytes,
capacity and committed file) or raise the same message.

Most cases shrink the block of rows read at a time to 4 in both loaders,
so a store of a few dozen rows spans several blocks and 3,000 mutants load
in a second or two; one case keeps the 256-row block with 600-row stores.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

import gtr.store as store_module
import store_oracles
from gtr.store import VectorStore
from store_oracles import _bitmap_and_values, load_v3

DIM = 13  # not a multiple of 8, so each bitmap has pad bits
SURROGATE = "SURROGATE"  # written to the file as the escape \ud800
WORDS = ["alpha", "beta", "délta", "日本", "😀", "\u2028", "\ufeff", "\x7f", "{}", ":,"]
ODD = ['"', "\\", "\n", "\t", "\r", "\x00"]  # a save writes each as an escape
# Bytes and byte strings a mutation writes into a file.
SPLICES = [bytes([b]) for b in b'"\\\n\r\t {}[]:,0a\x00\x7f\x80\xc3\xff'] + [
    b"\\u0061", b"\\ud800", b'"x":"y",', b"\xef\xbb\xbf", b"  "]


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(store_module, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(store_oracles, "_BLOCK_ROWS", 4)


def random_text(rng: random.Random) -> str:
    pieces = WORDS + ODD if rng.random() < 0.3 else WORDS
    return " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 5)))


def random_vector(rng: random.Random) -> list[float]:
    return [rng.choice((0.0, 0.0, -0.0, rng.gauss(0.0, 1.0))) for _ in range(DIM)]


def record_line(id_, kind, text, metadata) -> bytes:
    """The line a save writes for these fields; a SURROGATE in a string
    becomes the escape of a lone surrogate, which no save writes."""
    line = json.dumps({"id": id_, "kind": kind, "text": text, "metadata": metadata},
                      ensure_ascii=False, separators=(",", ":"))
    return line.replace(SURROGATE, "\\ud800").encode("utf-8")


def store_file(lines: list[bytes], vectors) -> tuple[bytes, list[tuple[int, int]]]:
    """A version-3 file of these record lines and vectors, and the span of
    each record line in it."""
    out = bytearray(store_oracles._header(DIM, "test", len(lines)))
    spans = []
    for line, vector in zip(lines, vectors):
        spans.append((len(out), len(out) + len(line)))
        bitmap, values = _bitmap_and_values(DIM, np.array(vector, dtype=np.float64))
        out += line + b"\n" + bitmap + values
    return bytes(out), spans


def random_store_file(rng: random.Random, n: int, block: int):
    """A file of n random records. Texts, keys and values mix plain words,
    non-ASCII text and U+2028 with, now and then, a quote, a backslash, a
    control character or a lone surrogate escape; metadata is empty or has
    many keys; and some files repeat an id across a block boundary."""
    ids = [f"r{i}" if rng.random() < 0.8 else f"é{i}" for i in range(n)]
    if rng.random() < 0.2:  # a row of a later block repeats one just before it
        boundary = block * rng.randrange(1, (n - 1) // block + 1)
        later = boundary + rng.randrange(min(block, n - boundary))
        ids[later] = ids[boundary - 1 - rng.randrange(min(3, boundary))]
    texts = [random_text(rng) for _ in range(n)]
    if rng.random() < 0.1:
        texts[rng.randrange(n)] += SURROGATE
    lines = []
    for id_, text in zip(ids, texts):
        pairs = rng.choice((0, 0, 1, 4, 20, 40))
        metadata = {random_text(rng) or "k": random_text(rng) for _ in range(pairs)}
        lines.append(record_line(id_, rng.choice(("chunk", "table")), text, metadata))
    return store_file(lines, [random_vector(rng) for _ in range(n)])


def outcome(load, path):
    """What loading path leaves: the store's state, or the error raised."""
    try:
        st = load(path)
    except Exception as e:  # CorruptStore, or what the JSON parser raises
        return type(e).__name__, str(e)
    return (list(st.ids), list(st.kinds), list(st.texts),
            [(type(m).__name__, list(m.items())) for m in st.metadata],
            list(st._rows.items()), st._matrix.shape, st._matrix.tobytes(), st._file)


def assert_loads_as_before(path, data: bytes):
    path.write_bytes(data)
    expected = outcome(load_v3, path)
    assert outcome(VectorStore.load, path) == expected
    return expected


def mutant(rng: random.Random, data: bytes, spans) -> bytes:
    """data with one flip, splice, deletion or truncation, mostly inside a
    record line."""
    if rng.random() < 0.8:
        begin, end = rng.choice(spans)
        at = rng.randrange(begin, end + 1)
    else:
        at = rng.randrange(len(data))
    how = rng.randrange(5)
    if how == 0:
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if how == 1:
        return data[:at] + rng.choice(SPLICES) + data[at + 1:]
    if how == 2:
        return data[:at] + rng.choice(SPLICES) + data[at:]
    if how == 3:
        return data[:at] + data[at + rng.randrange(1, 4):]
    return data[:at]


@pytest.mark.parametrize("seed", range(6))
def test_random_stores_load_as_before(tmp_path, small_blocks, seed):
    rng = random.Random(seed)
    for n in (9, 13, 30):
        data, _ = random_store_file(rng, n, 4)
        expected = assert_loads_as_before(tmp_path / "s.gtr", data)
        if isinstance(expected[0], list):  # it loaded: a save writes it back
            VectorStore.load(tmp_path / "s.gtr").save(tmp_path / "again.gtr")
            assert (tmp_path / "again.gtr").read_bytes() == data


def test_a_store_of_three_full_size_blocks_loads_as_before(tmp_path):
    rng = random.Random(7)
    for _ in range(3):
        data, _ = random_store_file(rng, 600, store_module._BLOCK_ROWS)
        assert_loads_as_before(tmp_path / "s.gtr", data)


@pytest.mark.parametrize("seed", range(6))
def test_byte_mutants_load_as_before(tmp_path, small_blocks, seed):
    rng = random.Random(100 + seed)
    path = tmp_path / "m.gtr"
    loaded = 0
    for _ in range(10):
        data, spans = random_store_file(rng, 10, 4)
        for _ in range(50):
            loaded += isinstance(assert_loads_as_before(path, mutant(rng, data, spans))[0], list)
    assert 0 < loaded < 500  # some mutants load, and most are refused


def _line(id_="a", kind="chunk", text="x", metadata=None) -> bytes:
    return record_line(id_, kind, text, metadata or {})


def _with_lines(*lines: bytes) -> bytes:
    return store_file(list(lines), [[1.0] * DIM] * len(lines))[0]


# Files whose record lines no save writes; each must load, or be refused,
# as the per-line loader did.
FIXED = {
    # One line holding two records, then a record split over two lines:
    # as one JSON array they would be three records.
    "array_counterexample": _with_lines(
        _line("a") + b"," + _line("b"), b'{"id":"c","kind":"chunk","text":"z"',
        b'"metadata":{}}'),
    "space_after_id": _with_lines(_line("b"), _line("a").replace(b'"id":', b'"id": ')),
    "reordered_keys": _with_lines(_line("b"), b'{"kind":"chunk","id":"a","text":"x","metadata":{}}'),
    "escaped_letter": _with_lines(_line("b"), _line("a").replace(b'"a"', b'"\\u0061"')),
    "duplicated_id_key": _with_lines(
        _line("b"), b'{"id":"z","id":"a","kind":"chunk","text":"x","metadata":{}}'),
    "cr_between_tokens": _with_lines(_line("b"), _line("a").replace(b',"kind"', b',\r"kind"')),
    "cr_in_text": _with_lines(_line("b"), _line("a", text="x\ry").replace(b"\\r", b"\r")),
    "duplicated_metadata_key": _with_lines(
        _line("b"), b'{"id":"a","kind":"chunk","text":"x","metadata":{"k":"1","j":"2","k":"3"}}'),
    "many_metadata_pairs": _with_lines(_line("a", metadata={f"k{i}": f"v{i}" for i in range(40)})),
    "byte_order_mark": _with_lines(_line("b"), b"\xef\xbb\xbf" + _line("a")),
    "trailing_space": _with_lines(_line("b"), _line("a") + b" "),
    "empty_id": _with_lines(_line("b"), _line("")),
    "unknown_kind": _with_lines(_line("b"), _line("a", kind="row")),
    "lone_surrogate": _with_lines(_line("b"), _line("a", text=f"x{SURROGATE}")),
    "not_utf8": _with_lines(_line("b"), _line("a", text="é").replace(b"\xc3", b"\xff")),
    "duplicate_in_a_later_block": _with_lines(*map(_line, "abcdefghia")),
    "duplicate_within_a_block": _with_lines(*map(_line, "abcdefgg")),
}


@pytest.mark.parametrize("case", FIXED)
def test_fixed_cases_load_as_before(tmp_path, small_blocks, case):
    result = assert_loads_as_before(tmp_path / "s.gtr", FIXED[case])
    if case == "array_counterexample":
        assert result[0] == "CorruptStore" and ": row 0: malformed JSON: Extra data" in result[1]
    # What a save never writes but JSON allows keeps loading, as before.
    if case in ("space_after_id", "reordered_keys", "escaped_letter", "duplicated_id_key",
                "cr_between_tokens", "duplicated_metadata_key", "many_metadata_pairs"):
        assert isinstance(result[0], list)


# Lines nested past the JSON decoder's recursion limit. The per-line
# loader let its RecursionError escape; each file is now refused naming
# its row, with the first fault in the file reported.
DEEP = {
    "duplicate_then_deep_nesting": (
        _with_lines(_line("a"), _line("a"), b"[" * 5000),
        "row 1: record id 'a' already present"),
    "deep_nesting": (
        _with_lines(_line("a"), b"[" * 5000),
        "row 1: malformed JSON: nested too deeply"),
}


@pytest.mark.parametrize("case", DEEP)
def test_deep_nesting_is_refused_naming_its_row(tmp_path, small_blocks, case):
    data, message = DEEP[case]
    path = tmp_path / "s.gtr"
    path.write_bytes(data)
    assert outcome(VectorStore.load, path) == ("CorruptStore", f"{path}: {message}")


def test_lines_a_save_writes_take_no_json_parse(tmp_path, monkeypatch):
    # Without this, a loader that quietly parsed every line as JSON
    # would pass every test above.
    rng = random.Random(3)
    lines = [record_line(f"r{i}", rng.choice(("chunk", "table")), " ".join(
        rng.choice(WORDS) for _ in range(8)), {"doc_id": f"d{i}", "index": str(i)})
        for i in range(1000)]
    path = tmp_path / "s.gtr"
    path.write_bytes(store_file(lines, [random_vector(rng) for _ in range(1000)])[0])
    calls = {"_json_line": 0, "json.loads": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(store_module, "_json_line", counted("_json_line", store_module._json_line))
    monkeypatch.setattr(json, "loads", counted("json.loads", json.loads))
    assert len(VectorStore.load(path)) == 1000
    assert calls == {"_json_line": 1, "json.loads": 1}  # the header's
