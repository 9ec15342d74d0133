"""Token-window document chunking with exact provenance.

The tokenizer is a deterministic whitespace-and-punctuation splitter: a token
is either a maximal run of word characters or a single non-space punctuation
character. The same splitter is used everywhere token counts are reported
(prompt and completion token accounting, ROUGE tokenization, evaluation
reports).

A chunk's text is an exact character slice of the source document, from the
start of its first token to the end of its last; the chunker works on the
character spans of one regex pass and never encodes the document. Byte
offsets into the UTF-8 encoding are a contract of :func:`tokenize` alone.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidConfig, InvalidInput

DEFAULT_CHUNK_SIZE = 512
DEFAULT_OVERLAP = 64

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


@dataclass(frozen=True)
class Token:
    """One token with its byte offsets: encoded[start:end] decodes to text."""

    text: str
    start: int
    end: int


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    source_path: str | None = None

    def __post_init__(self):
        if not self.id:
            raise InvalidInput("document id must be nonempty")


@dataclass(frozen=True)
class Chunk:
    """A contiguous token span of one document.

    token_start/token_end are token indices (end exclusive); text is the
    exact source slice from the first token's start to the last token's end.
    """

    doc_id: str
    index: int
    text: str
    token_start: int
    token_end: int


def tokenize(text: str) -> list[Token]:
    """Split text into tokens with byte offsets. Empty text gives []."""
    tokens: list[Token] = []
    byte_pos = 0
    char_pos = 0
    for m in _TOKEN_RE.finditer(text):
        start = byte_pos + len(text[char_pos : m.start()].encode("utf-8"))
        end = start + len(m.group().encode("utf-8"))
        tokens.append(Token(m.group(), start, end))
        byte_pos = end
        char_pos = m.end()
    return tokens


def token_texts(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def token_count(text: str) -> int:
    return len(_TOKEN_RE.findall(text))


def chunk_text(
    doc: Document,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_OVERLAP,
) -> list[Chunk]:
    """Split a document into overlapping token windows.

    Windows start at multiples of (chunk_size - overlap); every window except
    possibly the last holds exactly chunk_size tokens. The final partial
    window is kept so that every token is covered. A window that would add no
    new tokens is never emitted.

    Raises:
        InvalidConfig: if chunk_size < 1, overlap < 0, or overlap >= chunk_size.
    """
    if chunk_size < 1:
        raise InvalidConfig(f"chunk_size must be positive, got {chunk_size}")
    if overlap < 0:
        raise InvalidConfig(f"overlap must be nonnegative, got {overlap}")
    if overlap >= chunk_size:
        raise InvalidConfig(
            f"overlap ({overlap}) must be smaller than chunk_size ({chunk_size})"
        )

    spans = [m.span() for m in _TOKEN_RE.finditer(doc.text)]
    if not spans:
        return []

    stride = chunk_size - overlap
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + chunk_size, len(spans))
        text = doc.text[spans[start][0] : spans[end - 1][1]]
        chunks.append(Chunk(doc.id, len(chunks), text, start, end))
        if end == len(spans):
            break
        start += stride
    return chunks


def load_documents(path: str | Path) -> list[Document]:
    """Read documents from a plain-text file or a JSONL file.

    A ``.jsonl`` file holds one ``{"id": ..., "text": ...}`` record per line;
    any other file is read whole as a single document whose id is the file
    stem.

    Raises:
        InvalidInput: missing file, or a malformed JSONL record, including
            one whose id or text holds a lone surrogate (the message names
            the line number).
    """
    path = Path(path)
    if not path.is_file():
        raise InvalidInput(f"input file not found: {path}")
    if path.suffix == ".jsonl":
        docs = []
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise InvalidInput(f"{path}: malformed JSON on line {lineno}: {e}")
                if not isinstance(record, dict) or "id" not in record or "text" not in record:
                    raise InvalidInput(
                        f"{path}: line {lineno} must be an object with 'id' and 'text'"
                    )
                doc_id, text = str(record["id"]), str(record["text"])
                try:
                    doc_id.encode("utf-8"), text.encode("utf-8")
                except UnicodeEncodeError as e:
                    # A JSON escape such as "\ud800" decodes to a lone surrogate.
                    raise InvalidInput(
                        f"{path}: line {lineno}: not valid Unicode: {e.reason}"
                    ) from None
                docs.append(Document(doc_id, text, source_path=str(path)))
        return docs
    return [Document(path.stem, path.read_text(encoding="utf-8"), source_path=str(path))]
