"""The SQL tokenizer shared by every part of gtr that reads SQL text.

:func:`tokenize` yields ``(kind, text, pos)`` tokens, ``pos`` being a
character offset. The kinds:

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
an operator from data: ``tok.text == ";"`` holds only for the ``;`` symbol.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|--[^\n]*|/\*.*?(?:\*/|\Z))
    |(?P<str>'[^']*(?:''[^']*)*'?|"[^"]*(?:""[^"]*)*"?)
    |(?P<qid>`[^`]*(?:``[^`]*)*`?|\[[^\]]*\]?)
    |(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)
    |(?P<name>[A-Za-z_]\w*)
    |(?P<sym><=|>=|!=|<>|\|\||[=<>(),.;*+\-/%])
    |(?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    text: str
    pos: int


def tokenize(sql: str) -> Iterator[Token]:
    """The tokens of ``sql`` in order; any text tokenizes."""
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        if kind == "name":
            yield Token(kind, m.group().lower(), m.start())
        elif kind != "skip":
            yield Token(kind, m.group(), m.start())


def unterminated(tok: Token) -> bool:
    """True for a ``str`` token that lacks its closing quote."""
    body = tok.text[1:]
    # Escaped quotes come in pairs, so only a closing quote leaves the run
    # of quotes at the end of the body odd.
    return (len(body) - len(body.rstrip(tok.text[0]))) % 2 == 0
