"""The two JSON-lines loaders, documents (``chunking.load_documents``) and
eval items (``metrics.load_items_jsonl``), against a per-line oracle.

Both read their records through ``errors.read_json_lines``. On seeded byte
mutants of valid files, each loader must return what the oracle reads, or
raise InvalidInput naming the file and the first line the oracle refuses,
as "PATH: line N: ..." or "PATH: line N must be a JSON object".
"""

from __future__ import annotations

import io
import json
import math
import random
import re

import pytest

from gtr.chunking import load_documents
from gtr.errors import InvalidInput
from gtr.metrics import load_items_jsonl

# Lines that are JSON but not an object.
NOT_OBJECTS = ["[1, 2]", '"abc"', "null", "7"]
# Bytes and byte strings a mutation writes into a file.
SPLICES = [bytes([b]) for b in b'"\\\n\r {}[]:,0a\x00\x80\xc3\xff'] + [
    line.encode() for line in NOT_OBJECTS] + [
    b"\\ud800", b"\\u0061", b'"x":"y",', b"true", b"1e999", b'""']
# Values the record mutation sets a field to; DROP deletes the field.
DROP = object()
VALUES = [DROP, None, 7, 1, 0.5, True, "", "x", "\ud800", ["x"], {"t": "a"}]
WORDS = ["alpha", "beta", "délta", "日本", "😀", " ", "\t", '"', "\\"]


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 4)))


def documents_file(rng: random.Random, n: int) -> bytes:
    return "".join(json.dumps({"id": f"d{i}", "text": _text(rng)}, ensure_ascii=rng.random() < 0.5)
                   + "\n" for i in range(n)).encode("utf-8")


def items_file(rng: random.Random, n: int) -> bytes:
    return "".join(json.dumps({"question": _text(rng), "reference": _text(rng),
                               "candidate": _text(rng), "truthful": rng.randrange(2),
                               "response_time_ms": rng.choice((0, 12.5, 3e2))})
                   + "\n" for _ in range(n)).encode("utf-8")


def _encodes(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _document(record):
    if record["id"]:
        return record["id"], record["text"]


def _item(record):
    truthful, ms = record.get("truthful"), record.get("response_time_ms")
    if type(truthful) is not int or truthful not in (0, 1) or type(ms) not in (int, float):
        return None
    try:
        if math.isfinite(float(ms)):
            return (record["question"], record["reference"], record["candidate"],
                    truthful, float(ms))
    except OverflowError:
        return None


READERS = {
    "documents": (documents_file, ("id", "text"), _document,
                  lambda path: [(d.id, d.text) for d in load_documents(path)]),
    "items": (items_file, ("question", "reference", "candidate"), _item,
              lambda path: [(i.question, i.reference, i.candidate, i.truthful,
                             i.response_time_ms) for i in load_items_jsonl(path)]),
}


def oracle(data: bytes, fields, build):
    """(values, None) for a file the reader takes, else (None, the number of
    its first bad line). Lines split as text-mode open splits them; a byte
    that is not UTF-8 is kept as a lone surrogate, so its line is bad."""
    values = []
    text = data.decode("utf-8", "surrogateescape")
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not _encodes(line):
            return None, lineno
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError):
            return None, lineno
        if not (isinstance(record, dict)
                and all(isinstance(record.get(key), str) and _encodes(record[key])
                        for key in fields)):
            return None, lineno
        value = build(record)
        if value is None:
            return None, lineno
        values.append(value)
    return values, None


def loads_as_oracle_reads(path, data: bytes, reader: str) -> bool:
    """True when the file loads; otherwise assert the refusal names it."""
    _, fields, build, load = READERS[reader]
    path.write_bytes(data)
    values, bad = oracle(data, fields, build)
    try:
        got = load(path)
    except InvalidInput as e:
        assert bad is not None, (data, str(e))
        assert re.match(rf"{re.escape(str(path))}: line {bad}(: | must be a JSON object$)",
                        str(e)), (data, str(e), bad)
        return False
    assert bad is None and got == values, (data, got, values, bad)
    return True


def mutant(rng: random.Random, data: bytes) -> bytes:
    """data with one flip, splice, deletion or truncation, a line swapped
    for one that is JSON but not an object, or one field of a record set to
    another JSON value or dropped."""
    at = rng.randrange(len(data))
    how = rng.randrange(7)
    if how == 0:
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if how == 1:
        return data[:at] + rng.choice(SPLICES) + data[at + 1:]
    if how == 2:
        return data[:at] + rng.choice(SPLICES) + data[at:]
    if how == 3:
        return data[:at] + data[at + rng.randrange(1, 4):]
    if how == 4:
        return data[:at]
    lines = data.split(b"\n")
    at = rng.randrange(len(lines) - 1)
    if how == 5:
        lines[at] = rng.choice(NOT_OBJECTS).encode()
    else:
        record = json.loads(lines[at])
        key = rng.choice(list(record))
        record[key] = rng.choice(VALUES)
        if record[key] is DROP:
            del record[key]
        lines[at] = json.dumps(record).encode()
    return b"\n".join(lines)


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("seed", range(2))
def test_byte_mutants_load_or_name_their_line(tmp_path, reader, seed):
    rng = random.Random(seed)
    make = READERS[reader][0]
    path = tmp_path / "in.jsonl"
    loaded = 0
    for _ in range(150):
        data = make(rng, rng.randrange(1, 5))
        loaded += loads_as_oracle_reads(path, mutant(rng, data), reader)
    assert 0 < loaded < 150  # some mutants load, and most are refused


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("line", NOT_OBJECTS)
def test_a_line_that_is_not_an_object_is_named(tmp_path, reader, line):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(InvalidInput) as info:
        READERS[reader][-1](path)
    assert str(info.value) == f"{path}: line 1 must be a JSON object"


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("value, message", [
    (None, "missing field {key!r}"),
    (7, "{key} must be a JSON string, got 7"),
    (["x"], "{key} must be a JSON string, got ['x']"),
    ("bad \ud800", "not valid Unicode: surrogates not allowed"),
])
def test_string_fields_are_checked_alike(tmp_path, reader, value, message):
    make, fields = READERS[reader][:2]
    good = json.loads(make(random.Random(0), 1))
    key = fields[-1]
    bad = {k: v for k, v in good.items() if k != key or value is not None}
    if value is not None:
        bad[key] = value
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(InvalidInput) as info:
        READERS[reader][-1](path)
    assert str(info.value) == f"{path}: line 3: " + message.format(key=key)


def test_an_empty_document_id_is_named(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "", "text": "y"}\n', encoding="utf-8")
    with pytest.raises(InvalidInput) as info:
        load_documents(path)
    assert str(info.value) == f"{path}: line 2: document id must be nonempty"
