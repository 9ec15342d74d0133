"""Exception hierarchy shared by all gtr modules, and the text reader,
check and JSON-lines reader and writer their loaders and reports share.
The JSON-lines reader is the one place that checks an input record: that
it is an object, and that the string fields its caller names are strings
UTF-8 can encode."""

from __future__ import annotations

import io
import json
from collections.abc import Iterable, Iterator
from pathlib import Path


class GtrError(Exception):
    """Base class for all errors raised by this package."""


class InvalidConfig(GtrError):
    """A configuration value violates its documented constraints."""


class InvalidInput(GtrError):
    """An argument violates a documented precondition."""


class EmptyText(GtrError):
    """Text that must carry content is empty or whitespace-only."""


class BackendUnavailable(GtrError):
    """A remote embedding or completion backend could not be reached
    or returned a malformed response (after retries, where applicable)."""


class DimensionMismatch(GtrError):
    """Vector dimensionalities disagree."""


class ZeroVector(GtrError):
    """Cosine similarity is undefined for a zero-norm vector."""


class DuplicateId(GtrError):
    """A record or document id was seen twice."""


class CorruptStore(GtrError):
    """A store file failed validation; the message names the line."""


class MalformedPrompt(GtrError):
    """A mock backend could not find its expected prompt structure."""


class EmptyContext(GtrError):
    """Prompt composition requires at least one context chunk."""


class EmptySelection(GtrError):
    """SQL prompt composition requires at least one table."""


class EmptyGeneration(GtrError):
    """Nothing remained of a completion after stripping."""


class FingerprintMismatch(GtrError):
    """The store was built with a different embedder configuration."""


class DbUnreadable(GtrError):
    """The database file is missing or not a readable database."""


class SqlError(GtrError):
    """The database engine rejected a statement; message is the engine's."""


class NonReadStatement(GtrError):
    """Only SELECT-class statements may be executed."""


class QueryTimeout(GtrError):
    """Statement execution exceeded its time budget."""


class EvalError(GtrError):
    """A gold query could not run (a dataset defect, not a model one)."""


class ParseError(GtrError):
    """SQL text could not be parsed.

    Attributes:
        offset: byte offset into the UTF-8 encoding of the input.
        expected: token descriptions that would have been accepted.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at byte {offset}"
        if self.expected:
            detail += " (expected " + " | ".join(self.expected) + ")"
        super().__init__(detail)


class StageError(GtrError):
    """A tabular-answer stage failed.

    Attributes:
        stage: name of the failing stage.
        trace: the partial AnswerTrace accumulated before the failure,
            with its ``error`` set.
    """

    def __init__(self, stage: str, cause: Exception, trace=None):
        self.stage = stage
        self.trace = trace
        super().__init__(f"{stage}: {cause}")


def check_unicode(*texts: str) -> None:
    """Raise InvalidInput when a text holds a lone surrogate. A JSON escape
    such as "\\ud800" decodes to one, and UTF-8 cannot encode it, so the
    text would break the first embedding or save that meets it."""
    for text in texts:
        if text.isascii():  # a constant-time test in CPython
            continue
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as e:
            raise InvalidInput(f"not valid Unicode: {e.reason}") from None


def read_lines(path: str | Path, what: str = "input") -> Iterator[str]:
    """The lines of a UTF-8 text file, decoded strictly, one at a time, as
    text-mode ``open`` yields them: "\\r\\n" and a lone "\\r" end a line and
    become "\\n".

    Raises:
        InvalidInput: no file at ``path`` (``what`` names the file in the
            message), or a byte that is not UTF-8 (the message names the
            line).
    """
    path = Path(path)
    if not path.is_file():
        raise InvalidInput(f"{what} file not found: {path}")
    lineno = 0
    with open(path, "rb") as f:
        for raw in f:  # no UTF-8 sequence holds a "\n" or "\r" byte
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                lineno += 1 + raw.count(b"\r", 0, e.start)
                raise InvalidInput(f"{path}: line {lineno}: not UTF-8: {e.reason}") from None
            for line in io.StringIO(text, newline=None) if "\r" in text else (text,):
                lineno += 1
                yield line


def loads_json(text: str):
    """``json.loads``, except that a value nested past the decoder's
    recursion limit raises ValueError("nested too deeply"), as other text
    that is not JSON raises a ValueError, instead of RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("nested too deeply") from None


def read_json_lines(path: str | Path, what: str = "input",
                    fields: tuple[str, ...] = ()) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each nonblank line that read_lines yields.
    Each line must be a JSON object, and each name in ``fields`` must be a
    JSON string in it that holds no lone surrogate. InvalidInput refuses any
    other line as "PATH: line N: ..." ("PATH: line N must be a JSON object"
    for a line that is JSON but not an object)."""
    path = Path(path)
    for lineno, line in enumerate(read_lines(path, what), start=1):
        if not line.strip():
            continue
        try:
            record = loads_json(line)
        except ValueError as e:  # JSONDecodeError, an over-long integer, or nesting too deep
            raise InvalidInput(f"{path}: line {lineno}: malformed JSON: {e}")
        if type(record) is not dict:
            raise InvalidInput(f"{path}: line {lineno} must be a JSON object")
        try:
            for key in fields:
                value = record.get(key)
                if type(value) is not str:
                    raise InvalidInput(f"{key} must be a JSON string, got {value!r}"
                                       if key in record else f"missing field {key!r}")
                check_unicode(value)
        except InvalidInput as e:
            raise InvalidInput(f"{path}: line {lineno}: {e}") from None
        yield lineno, record


def write_json_lines(path: str | Path, rows: Iterable, mode: str = "w") -> None:
    """Write (mode "w") or append (mode "a") one UTF-8 JSON line per row. A
    lone surrogate is written as its JSON escape, so each line reads back to
    its row (a high and a low surrogate in a row read back as one character)."""
    with open(path, mode, encoding="utf-8", errors="backslashreplace", newline="\n") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
