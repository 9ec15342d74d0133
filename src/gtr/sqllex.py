"""The SQL tokenizer shared by every part of gtr that reads SQL text.

:func:`texts` lists a statement's token texts (one ``findall``), :func:`kind`
reads a token's kind from its text, and :func:`tokenize` yields ``(kind,
text, pos)`` tokens, ``pos`` being a character offset. The kinds:

* ``str``: ``'...'`` or ``"..."``, where a doubled quote escapes itself.
  An unterminated string runs to the end of the text (see
  :func:`unterminated`).
* ``qid``: an identifier quoted in backticks (a doubled backtick escapes
  itself) or in ``[...]``. Unterminated, it too runs to the end of the text.
* ``num``: ``12``, ``1.5``, ``.5``, ``1e5``.
* ``name``: a bare word starting with an ASCII letter or ``_``, lowercased.
* ``sym``: ``<= >= != <> || = < > ( ) , . ; * + - / %``.
* ``other``: any other single character.

Whitespace and ``--`` / ``/* */`` comments are skipped. Strings keep their
quotes and names are lowercased, so a token's text alone tells a keyword or
an operator from data: ``text == ";"`` holds only for the ``;`` symbol.
"""

from __future__ import annotations

import re
import string
from typing import Iterator, NamedTuple

# Group 1 is the token; skipped text leaves it empty.
TOKEN_RE = re.compile(
    r"""
    \s+|--[^\n]*|/\*.*?(?:\*/|\Z)
    |('[^']*(?:''[^']*)*'?|"[^"]*(?:""[^"]*)*"?
     |`[^`]*(?:``[^`]*)*`?|\[[^\]]*\]?
     |\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+
     |[A-Za-z_]\w*
     |<=|>=|!=|<>|\|\||[=<>(),.;*+\-/%]
     |.)
    """,
    re.VERBOSE | re.DOTALL,
)
_NAME_START = frozenset(string.ascii_letters + "_")
_SYMS = frozenset("<= >= != <> || = < > ( ) , . ; * + - / %".split())


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def kind(text: str) -> str:
    """The kind of the token whose text, as lexed or lowercased, is ``text``."""
    first = text[:1]
    if first in _NAME_START:
        return "name"
    if first in ("'", '"'):
        return "str"
    if first in ("`", "["):
        return "qid"
    if first.isdecimal() or first == "." and len(text) > 1:
        return "num"
    return "sym" if text in _SYMS else "other"


def texts(sql: str) -> list[str]:
    """The token texts of ``sql`` in order, names lowercased."""
    return [t.lower() if t[0] in _NAME_START else t for t in TOKEN_RE.findall(sql) if t]


def tokenize(sql: str) -> Iterator[Token]:
    """The tokens of ``sql`` in order; any text tokenizes."""
    starts = (m.start(1) for m in TOKEN_RE.finditer(sql) if m.group(1))
    for text, pos in zip(texts(sql), starts):
        yield Token(kind(text), text, pos)


def unterminated(text: str) -> bool:
    """True for the text of a ``str`` token that lacks its closing quote."""
    body = text[1:]
    # Escaped quotes come in pairs, so only a closing quote leaves the run
    # of quotes at the end of the body odd.
    return (len(body) - len(body.rstrip(text[0]))) % 2 == 0
