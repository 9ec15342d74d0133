"""Token-window document chunking with exact provenance.

The tokenizer is a deterministic whitespace-and-punctuation splitter: a token
is either a maximal run of word characters or a single non-space punctuation
character. The same splitter is used everywhere token counts are reported
(prompt and completion token accounting, ROUGE tokenization, evaluation
reports).

A chunk's text is an exact character slice of the source document, from the
start of its first token to the end of its last. The chunker splits each
document once, into alternating gaps and tokens, joins each chunk's text from
those parts and hands the chunk its token texts too, so the hashed embedder
never tokenizes a chunk again. It never encodes the document: byte offsets
into the UTF-8 encoding are a contract of :func:`tokenize` alone.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidConfig, InvalidInput, read_json_lines, read_lines

DEFAULT_CHUNK_SIZE = 512
DEFAULT_OVERLAP = 64

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
# Splitting on the token pattern as a group gives [gap, token, gap, ..., gap].
_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})", re.UNICODE)


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
    tokens, which equality and repr leave out, holds the token texts of
    ``token_texts(text)`` when the chunker made the chunk, else nothing.
    """

    doc_id: str
    index: int
    text: str
    token_start: int
    token_end: int
    tokens: Sequence[str] = field(default=(), compare=False, repr=False)


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
    new tokens is never emitted. Each chunk carries its token texts.

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

    # Token i is parts[2i + 1]; tokens s..e-1 and the gaps between them are
    # parts[2s + 1 : 2e].
    parts = _SPLIT_RE.split(doc.text)
    n_tokens = len(parts) // 2
    if not n_tokens:
        return []

    stride = chunk_size - overlap
    chunks: list[Chunk] = []
    start = 0
    while True:
        end = min(start + chunk_size, n_tokens)
        lo, hi = 2 * start + 1, 2 * end
        chunks.append(Chunk(doc.id, len(chunks), "".join(parts[lo:hi]), start, end,
                            parts[lo:hi:2]))
        if end == n_tokens:
            break
        start += stride
    return chunks


def load_documents(path: str | Path) -> list[Document]:
    """Read documents from a plain-text file or a JSONL file.

    A ``.jsonl`` file holds one ``{"id": ..., "text": ...}`` record per line;
    any other file is read whole as a single document whose id is the file
    stem.

    Raises:
        InvalidInput: missing file, a byte that is not UTF-8, or a JSONL
            line that is not an object whose id and text are strings
            without lone surrogates, or whose id is empty (the message names
            the line).
    """
    path = Path(path)
    if path.suffix == ".jsonl":
        docs = []
        for lineno, record in read_json_lines(path, fields=("id", "text")):
            if not record["id"]:
                raise InvalidInput(f"{path}: line {lineno}: document id must be nonempty")
            docs.append(Document(record["id"], record["text"], source_path=str(path)))
        return docs
    return [Document(path.stem, "".join(read_lines(path)), source_path=str(path))]
