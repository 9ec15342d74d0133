"""The shared SQL tokenizer against the scanners it replaced.

Both consumers of ``gtr.sqllex`` that replaced a scanner (the clause-set
parser and ORDER BY detection) must give the verdicts of the old scanner in
``sql_oracles`` on every fixture query and on seeded random fragments. The
differences made on purpose are each asserted on their own below; the
random comparison neutralizes exactly those constructs in the text handed
to the oracle. The same queries and fragments also hold the clause-set
parser and the difficulty counters to their earlier versions in
``sql_oracles``.
"""

import random
import unicodedata

import pytest

import fixtures_sql
import sql_oracles as oracle
from gtr.errors import ParseError
from gtr.sqleval import component_counts, has_top_level_order_by, parse_sql
from gtr.sqleval.parser import ClauseSets
from gtr.sqllex import Token, kind, texts, tokenize, unterminated


def _fixture_queries() -> list[str]:
    queries = set()
    for pred, gold, *_ in (
        fixtures_sql.EM_CASES + fixtures_sql.EX_CASES + fixtures_sql.REFORMULATION_CASES
    ):
        queries.update((pred, gold))
    queries.update(sql for sql, _, _ in fixtures_sql.HARDNESS_CASES)
    queries.update(sql for sql, _ in fixtures_sql.TABULAR_QUESTIONS.values())
    return sorted(queries)


FIXTURE_QUERIES = _fixture_queries()


def _outcome(fn, sql):
    """What a call did: its result, or the error it raised."""
    try:
        return ("ok", fn(sql))
    except ParseError as e:
        return (type(e).__name__, str(e))


def _parse_outcome(parse, sql):
    """The clause sets, or where the ParseError points and what it expected
    there (its message quotes token text)."""
    try:
        return ("ok", parse(sql))
    except ParseError as e:
        return ("error", e.offset, e.expected)


# ---------------------------------------------------------------------------
# Random fragments
# ---------------------------------------------------------------------------

# (kind, texts). Comment markers occur only in comment pieces, brackets and
# backticks only in quoted-identifier pieces, and neither kind holds a quote
# character. So however the quotes of a fragment pair up, overwriting such a
# piece either removes that very construct or edits the inside of a string.
PIECES = [
    ("kw", "select from where order by group having limit union as join on and "
           "or not in like between is null distinct with into insert replace "
           "update delete drop values explain pragma count max".split()),
    ("name", ["t", "singer", "name", "age", "x1", "_tmp", "café", "Größe",
              "naïve", "ñandú", "名前", "T1.name", "t.*"]),
    ("num", ["1", "42", "3.5", ".5", "7."]),
    ("exp", ["1e5", "2E-3", "7.5e+2"]),
    ("str", ["'abc'", "'it''s'", '"a""b"', "'order by'", "'('", "')'", "';'",
             "''", '"insert"', "'é'"]),
    ("open", ["'oops", '"half', "'it''s"]),
    ("qid", ["[order by]", "[a b]", "`order by`", "`a``b`", "[(]", "`)`",
             "[insert]", "`;`"]),
    ("comment", ["-- order by (\n", "/* ) */", "-- x\n", "/* ; insert */",
                 "/**/", "-- \n"]),
    ("sym", ["(", ")", ",", ";", "=", "<>", "!=", "<=", ">", "*", ".", "+",
             "-", "/", "||", "%"]),
    ("other", ["$", "?", "!", "@", "#", "|", "{"]),
]
# Constructs that run to the end of the text close a fragment.
TAIL_PIECES = [
    ("open_qid", ["[never closed", "`never closed"]),
    ("comment", ["/* never closed", "-- last"]),
]
SEPARATORS = [" ", "  ", "\n", "\t"]


def _random_case(rng: random.Random, word: str) -> str:
    return rng.choice([word, word.upper(), word.capitalize()])


def _pieces(rng: random.Random) -> list[tuple[str, str]]:
    """A fragment as a list of (kind, text) pieces."""
    if rng.random() < 0.5:
        # A fixture query with pieces inserted, so that parses succeed as
        # well as fail at every depth.
        pieces = [("raw", w) for w in rng.choice(FIXTURE_QUERIES).split()]
        for _ in range(rng.randint(0, 3)):
            kind, texts = rng.choice(PIECES)
            pieces.insert(rng.randint(0, len(pieces)), (kind, rng.choice(texts)))
    else:
        pieces = []
        for _ in range(rng.randint(1, 12)):
            kind, texts = rng.choice(PIECES)
            pieces.append((kind, rng.choice(texts)))
    if rng.random() < 0.15:
        kind, texts = rng.choice(TAIL_PIECES)
        pieces.append((kind, rng.choice(texts)))
    return [(k, _random_case(rng, t) if k == "kw" else t) for k, t in pieces]


def _render(pieces, seps, neutral=None) -> str:
    """Join pieces with the given separators. ``neutral`` maps a piece kind
    to a character that overwrites such pieces, newlines kept; spaces erase
    a piece and underscores leave a word of the same length."""
    neutral = neutral or {}
    out = []
    for (kind, text), sep in zip(pieces, seps):
        if kind in neutral:
            text = "".join(c if c == "\n" else neutral[kind] for c in text)
        out.append(text + sep)
    return "".join(out)


def _fragments(n: int, seed: int = 20240614):
    rng = random.Random(seed)
    for _ in range(n):
        pieces = _pieces(rng)
        seps = [rng.choice(SEPARATORS) for _ in pieces]
        yield pieces, seps


FRAGMENTS = list(_fragments(3000))


class TestAgainstOracles:
    @pytest.mark.parametrize("sql", FIXTURE_QUERIES)
    def test_fixture_queries(self, sql):
        assert has_top_level_order_by(sql) is oracle.has_top_level_order_by(sql)
        assert _outcome(parse_sql, sql) == _outcome(oracle.parse_sql, sql)

    def test_random_order_by(self):
        # The old loop scanned comments and quoted identifiers as SQL.
        for pieces, seps in FRAGMENTS:
            sql = _render(pieces, seps)
            old = _render(pieces, seps, {"comment": " ", "qid": "_", "open_qid": "_"})
            assert has_top_level_order_by(sql) is oracle.has_top_level_order_by(old), sql

    def test_random_parses(self):
        # The old lexer read comments as symbols.
        parsed = 0
        for pieces, seps in FRAGMENTS:
            sql = _render(pieces, seps)
            new = _parse_outcome(parse_sql, sql)
            old = _parse_outcome(oracle.parse_sql, _render(pieces, seps, {"comment": " "}))
            assert new == old, sql
            parsed += new[0] == "ok"
        assert parsed > 100


def _old_parse(sql):
    """The earlier parser and resolver, fed the tokens of gtr's lexer."""
    return oracle._resolve(oracle._Parser(sql, oracle.checked_tokens(sql)).parse(), {})


def _nested(cs: ClauseSets):
    """The query and every query nested in it, derived tables included."""
    yield cs
    inner = [*cs.subqueries, *(t for t in cs.from_tables if isinstance(t, ClauseSets))]
    if cs.set_op is not None:
        inner.append(cs.set_op[1])
    for sub in inner:
        yield from _nested(sub)


RANDOM_QUERIES = [_render(pieces, seps) for pieces, seps in FRAGMENTS]

# Constructs that no fixture query holds, so that the comparisons below
# reach every branch of the alias resolver and of the aggregate count.
CONSTRUCTS = [
    "SELECT T1.a + T2.b FROM t AS T1 JOIN u AS T2 ON T1.id = T2.id",
    "SELECT a FROM t AS T1 WHERE T1.b NOT BETWEEN min(T1.c) AND max(T1.d)",
    "SELECT count(a) - b FROM t GROUP BY count(b), a",
    "SELECT a FROM t ORDER BY max(a) / min(b) DESC, a",
    "SELECT a FROM t AS x WHERE x.b IN (SELECT x.c FROM u) "
    "AND NOT EXISTS (SELECT * FROM u AS y WHERE y.a = x.a)",
    "SELECT T1.a FROM (SELECT a FROM t) AS T1 JOIN u ON T1.a = u.a "
    "HAVING count(*) > avg(u.b) OR T1.a LIKE 'x'",
    "SELECT a FROM t WHERE b = - 1 AND c <> + 2.5 AND d IS NOT NULL "
    "UNION ALL SELECT a FROM u LIMIT 3",
]


class TestAgainstEarlierParser:
    def test_same_clause_sets_and_errors(self):
        # A ParseError's text holds its message, offset and expected set.
        outcomes = {"ok": 0, "ParseError": 0}
        for sql in FIXTURE_QUERIES + CONSTRUCTS + RANDOM_QUERIES:
            new = _outcome(parse_sql, sql)
            assert new == _outcome(_old_parse, sql), sql
            outcomes[new[0]] += 1
        assert outcomes["ok"] > 300 and outcomes["ParseError"] > 1000

    def test_same_difficulty_counts(self):
        queries = 0
        for sql in FIXTURE_QUERIES + CONSTRUCTS + RANDOM_QUERIES:
            try:
                parsed = parse_sql(sql)
            except ParseError:
                continue
            for cs in _nested(parsed):
                assert component_counts(cs) == oracle.component_counts(cs), sql
                queries += 1
        assert queries > 400


class TestDeliberateDifferences:
    """Each place the new scanners part from the old ones on purpose."""

    def test_parser_skips_comments(self):
        sql = "SELECT a -- the column\nFROM t /* it's here */ WHERE b = 1"
        assert parse_sql(sql) == parse_sql("SELECT a FROM t WHERE b = 1")
        with pytest.raises(ParseError):
            oracle.parse_sql(sql)

    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT a FROM t -- (\nORDER BY a", True),
            ("SELECT a FROM t /* order by a */", False),
            ("SELECT a FROM t -- it's\nORDER BY a", True),
        ],
    )
    def test_order_by_skips_comments(self, sql, expected):
        assert has_top_level_order_by(sql) is expected
        assert oracle.has_top_level_order_by(sql) is not expected

    @pytest.mark.parametrize(
        "sql", ["SELECT [order by] FROM t", "SELECT `order by` FROM t"]
    )
    def test_order_by_inside_quoted_identifier(self, sql):
        assert has_top_level_order_by(sql) is False
        assert oracle.has_top_level_order_by(sql) is True

    def test_order_by_after_case_folding_text(self):
        # "\u0130".lower() is two characters, which shifted the old loop's offsets.
        sql = "SELECT '\u0130' FROM t ORDER BY a"
        assert has_top_level_order_by(sql) is True
        assert oracle.has_top_level_order_by(sql) is False


class TestTokenize:
    def test_kinds(self):
        sql = "SELECT a.B, 'it''s', \"q\", `x`, [y], 1e5, .5 <> || % $ -- c\n/* d */"
        assert [(t.kind, t.text) for t in tokenize(sql)] == [
            ("name", "select"), ("name", "a"), ("sym", "."), ("name", "b"),
            ("sym", ","), ("str", "'it''s'"), ("sym", ","), ("str", '"q"'),
            ("sym", ","), ("qid", "`x`"), ("sym", ","), ("qid", "[y]"),
            ("sym", ","), ("num", "1e5"), ("sym", ","), ("num", ".5"),
            ("sym", "<>"), ("sym", "||"), ("sym", "%"), ("other", "$"),
        ]

    def test_positions_are_character_offsets(self):
        assert list(tokenize("é  x")) == [Token("other", "é", 0), Token("name", "x", 3)]

    @pytest.mark.parametrize(
        "sql,tail",
        [
            ("a 'b c", "'b c"),
            ("a 'b'' c", "'b'' c"),
            ("a '''", "'''"),
            ("a [b c", "[b c"),
            ("a `b`` c", "`b`` c"),
        ],
    )
    def test_unterminated_runs_to_end(self, sql, tail):
        assert [t.text for t in tokenize(sql)] == ["a", tail]

    @pytest.mark.parametrize(
        "text,expected",
        [("'", True), ("'a", True), ("'a''", True), ("'''", True),
         ("''", False), ("'a'", False), ("'a'''", False), ("''''", False),
         ('"a""', True), ('"a"""', False)],
    )
    def test_unterminated(self, text, expected):
        (tok,) = tokenize(text)
        assert unterminated(tok.text) is expected


class TestKindFromText:
    """``kind`` against the kind the named-group regex in ``sql_oracles``
    gives, and ``texts`` and ``tokenize`` against that regex's tokens."""

    @staticmethod
    def _oracle_kind(text):
        return oracle.TOKEN_RE.match(text).lastgroup

    def test_every_ascii_character(self):
        for c in map(chr, range(128)):
            if self._oracle_kind(c) == "skip":
                assert texts(c) == [], repr(c)
            else:
                assert kind(c) == self._oracle_kind(c), repr(c)

    def test_every_decimal_digit_and_case_folding_letters(self):
        digits = [chr(c) for c in range(0x110000) if unicodedata.category(chr(c)) == "Nd"]
        assert len(digits) > 600
        # U+212A KELVIN SIGN and U+0130 lowercase to ASCII letters, yet are no names.
        for c in digits + ["\u212a", "\u0130"]:
            assert kind(c) == self._oracle_kind(c), repr(c)
            assert texts(c) == [c]
        assert kind("\u212a") == "other" and kind("\u0130") == "other"

    def test_every_token_of_the_fragments(self):
        for sql in RANDOM_QUERIES:
            for m in oracle.TOKEN_RE.finditer(sql):
                if m.lastgroup != "skip":
                    assert kind(m.group()) == m.lastgroup, sql
            assert list(tokenize(sql)) == oracle.tokenize(sql), sql
            assert texts(sql) == [t.text for t in tokenize(sql)], sql

    def test_a_kelvin_sign_is_reported_as_itself(self):
        # Lowercased, the sign would read as the name "k".
        with pytest.raises(ParseError) as err:
            parse_sql("SELECT \u212ax FROM t")
        assert str(err.value) == "unexpected character '\u212a' at byte 7"
