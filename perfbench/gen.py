"""Seeded input generators: documents, questions, reference answers,
SQLite databases and text-to-SQL cases.

Everything here is a pure function of a ``random.Random`` (and, for the
large warehouse tables, a NumPy generator seeded from it), so one seed gives
byte-identical inputs. The generators also keep the ground truth that the
output checks need: every document is built from a known token list, every
SQL case carries its hand-assigned difficulty level and the exact-set-match
verdict planted with each predicted query.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

# Punctuation tokens; each is one [^\w\s] character, attached to the token
# before it with no space, so the shared tokenizer splits text back into
# exactly the generator's tokens.
PUNCT = frozenset(",.?!;:")

_ONSETS = "b c d f g h j k l m n p r s t v w z br cr dr gr pr st tr ch sh th".split()
_VOWELS = "a e i o u a e i o ai ou".split()
_ACCENTS = {"a": "á", "e": "é", "i": "í", "o": "ö", "u": "ü"}


def render(tokens: list[str]) -> str:
    """Text of a token list: words space-separated, punctuation attached."""
    out = []
    for i, tok in enumerate(tokens):
        if i and tok not in PUNCT:
            out.append(" ")
        out.append(tok)
    return "".join(out)


def make_vocab(rng: random.Random, size: int) -> list[str]:
    """Distinct lowercase pseudo-words; about 3% carry a non-ASCII letter."""
    seen: set[str] = set()
    words = []
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(1, 3))
        )
        if rng.random() < 0.03:
            i = rng.randrange(len(word))
            word = word[:i] + _ACCENTS.get(word[i], word[i]) + word[i + 1 :]
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class TextMaker:
    """Zipf-distributed sentences over a seeded vocabulary."""

    def __init__(self, rng: random.Random, vocab_size: int):
        self.rng = rng
        self.vocab = make_vocab(rng, vocab_size)
        self.cum = list(accumulate(1.0 / (r + 1) ** 1.05 for r in range(vocab_size)))

    def words(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum, k=n)

    def sentence(self, lo: int = 6, hi: int = 14) -> list[str]:
        rng = self.rng
        words = self.words(rng.randint(lo, hi))
        tokens = []
        for i, word in enumerate(words):
            if rng.random() < 0.04:
                word = str(rng.randrange(1, 3000))
            tokens.append(word.capitalize() if i == 0 else word)
            if 0 < i < len(words) - 1 and rng.random() < 0.07:
                tokens.append(",")
        tokens.append(rng.choice(".....?!;"))
        return tokens

    def passage(self, min_tokens: int, max_tokens: int) -> list[str]:
        target = self.rng.randint(min_tokens, max_tokens)
        tokens: list[str] = []
        while len(tokens) < target:
            tokens.extend(self.sentence())
        return tokens


@dataclass
class Doc:
    id: str
    tokens: list[str]

    @property
    def text(self) -> str:
        return render(self.tokens)


@dataclass
class Question:
    text: str
    tokens: list[str]
    target: str  # chunk record id the question was written from
    reference: list[str]  # reference answer tokens
    truthful: int


def chunk_windows(n_tokens: int, size: int, overlap: int) -> list[tuple[int, int]]:
    """Token windows by the chunking rule, computed apart from the program."""
    if n_tokens == 0:
        return []
    stride = size - overlap
    count = 1 + -(-max(0, n_tokens - size) // stride)
    return [(i * stride, min(i * stride + size, n_tokens)) for i in range(count)]


def make_questions(
    rng: random.Random,
    docs: list[Doc],
    n: int,
    size: int,
    overlap: int,
    ref_len: tuple[int, int],
) -> list[Question]:
    """Questions written from one chunk each, with an extractive reference."""
    questions = []
    for i in range(n):
        doc = docs[rng.randrange(len(docs))]
        windows = chunk_windows(len(doc.tokens), size, overlap)
        index = rng.randrange(len(windows))
        start, end = windows[index]
        window = doc.tokens[start:end]
        words = sorted({t.lower() for t in window if t not in PUNCT})
        picked = rng.sample(words, min(len(words), rng.randint(3, 6)))
        tokens = ["what", *picked, "?"]
        length = min(len(window), rng.randint(*ref_len))
        ref_start = rng.randrange(len(window) - length + 1)
        questions.append(
            Question(
                text=render(tokens),
                tokens=tokens,
                target=f"{doc.id}:{index}",
                reference=window[ref_start : ref_start + length],
                truthful=int(rng.random() < 0.8),
            )
        )
    return questions


# ---------------------------------------------------------------------------
# Databases
# ---------------------------------------------------------------------------

# Settings for every write the benchmark itself makes to a database.
WRITE_PRAGMAS = ("PRAGMA journal_mode=MEMORY", "PRAGMA synchronous=OFF")


def connect_writer(path: Path) -> sqlite3.Connection:
    conn = sqlite3.connect(path)
    for pragma in WRITE_PRAGMAS:
        conn.execute(pragma)
    return conn


@dataclass(frozen=True)
class Domain:
    """Names for the four-table archetype shared by the wide and live
    databases: an entity A, a thing B, a link L between them carrying a year
    and a real value, and a child table C of A."""

    A: str
    a_id: str
    a_num: str
    a_cat: str
    B: str
    b_id: str
    b_num: str
    b_cat: str
    L: str
    l_id: str
    l_year: str
    l_val: str
    C: str
    c_id: str
    c_num: str


DOMAINS = [
    Domain("singer", "singer_id", "age", "country", "stadium", "stadium_id", "capacity",
           "city", "performance", "performance_id", "year", "attendance", "song",
           "song_id", "sales"),
    Domain("student", "student_id", "age", "major", "course", "course_id", "credits",
           "department", "enrollment", "enrollment_id", "year", "grade", "thesis",
           "thesis_id", "pages"),
    Domain("pilot", "pilot_id", "age", "nationality", "aircraft", "aircraft_id", "seats",
           "manufacturer", "flight", "flight_id", "year", "distance", "license",
           "license_id", "rating"),
    Domain("author", "author_id", "birth_year", "nationality", "publisher",
           "publisher_id", "founded", "city", "edition", "edition_id", "year", "price",
           "book", "book_id", "pages"),
    Domain("player", "player_id", "age", "position", "team", "team_id", "founded", "city",
           "contract", "contract_id", "year", "salary", "award", "award_id", "points"),
    Domain("customer", "customer_id", "age", "region", "item", "item_id", "stock",
           "category", "purchase", "purchase_id", "year", "price", "review", "review_id",
           "rating"),
    Domain("patient", "patient_id", "age", "city", "doctor", "doctor_id", "experience",
           "specialty", "visit", "visit_id", "year", "cost", "prescription",
           "prescription_id", "dosage"),
    Domain("artist", "artist_id", "birth_year", "movement", "museum", "museum_id",
           "visitors", "city", "exhibit", "exhibit_id", "year", "revenue", "artwork",
           "artwork_id", "height"),
]


def _schema(d: Domain) -> str:
    return f"""
CREATE TABLE {d.A} ({d.a_id} INTEGER PRIMARY KEY, name TEXT, {d.a_num} INTEGER, {d.a_cat} TEXT);
CREATE TABLE {d.B} ({d.b_id} INTEGER PRIMARY KEY, name TEXT, {d.b_num} INTEGER, {d.b_cat} TEXT);
CREATE TABLE {d.L} ({d.l_id} INTEGER PRIMARY KEY, {d.a_id} INTEGER, {d.b_id} INTEGER, {d.l_year} INTEGER, {d.l_val} REAL);
CREATE TABLE {d.C} ({d.c_id} INTEGER PRIMARY KEY, {d.a_id} INTEGER, title TEXT, {d.c_num} INTEGER);
"""


def _unique_names(rng: random.Random, text: TextMaker, n: int) -> list[str]:
    names: set[str] = set()
    out = []
    while len(out) < n:
        name = " ".join(w.capitalize() for w in text.words(2))
        if name not in names:
            names.add(name)
            out.append(name)
    return out


@dataclass
class ArchetypeDb:
    db_id: str
    path: Path
    domain: Domain
    a_cats: list[str]
    b_cats: list[str]
    sizes: tuple[int, int, int, int]
    b_nums: list[int]  # sorted
    c_nums: list[int]  # sorted
    years: list[int]  # sorted distinct link years
    next_l: int  # next free link id (live appends rows)
    next_c: int


def link_row(rng: random.Random, row_id: int, n_a: int, n_b: int) -> tuple:
    return (row_id, rng.randint(1, n_a), rng.randint(1, n_b), rng.randint(2000, 2023),
            round(rng.uniform(10.0, 5000.0), 2))


def child_row(rng: random.Random, text: TextMaker, row_id: int, n_a: int) -> tuple:
    return (row_id, rng.randint(1, n_a), render(text.words(rng.randint(2, 4))).capitalize(),
            rng.randint(1, 1000))


def build_archetype_db(
    rng: random.Random,
    text: TextMaker,
    db_id: str,
    path: Path,
    domain: Domain,
    sizes: tuple[int, int, int, int],
) -> ArchetypeDb:
    n_a, n_b, n_l, n_c = sizes
    cats = [w.capitalize() for w in rng.sample(text.vocab[:400], 12)]
    a_cats, b_cats = cats[:6], cats[6:]
    a_names = _unique_names(rng, text, n_a)
    b_names = _unique_names(rng, text, n_b)
    b_nums = rng.sample(range(100, 100_000), n_b)
    rows_a = [(i + 1, a_names[i], rng.randint(18, 80), rng.choice(a_cats)) for i in range(n_a)]
    rows_b = [(i + 1, b_names[i], b_nums[i], rng.choice(b_cats)) for i in range(n_b)]
    rows_l = [link_row(rng, i + 1, n_a, n_b) for i in range(n_l)]
    rows_c = [child_row(rng, text, i + 1, n_a) for i in range(n_c)]
    conn = connect_writer(path)
    try:
        conn.executescript(_schema(domain))
        d = domain
        conn.executemany(f"INSERT INTO {d.A} VALUES (?,?,?,?)", rows_a)
        conn.executemany(f"INSERT INTO {d.B} VALUES (?,?,?,?)", rows_b)
        conn.executemany(f"INSERT INTO {d.L} VALUES (?,?,?,?,?)", rows_l)
        conn.executemany(f"INSERT INTO {d.C} VALUES (?,?,?,?)", rows_c)
        conn.commit()
    finally:
        conn.close()
    return ArchetypeDb(
        db_id=db_id,
        path=path,
        domain=domain,
        a_cats=a_cats,
        b_cats=b_cats,
        sizes=sizes,
        b_nums=sorted(b_nums),
        c_nums=sorted(r[3] for r in rows_c),
        years=sorted({r[3] for r in rows_l}),
        next_l=n_l + 1,
        next_c=n_c + 1,
    )


def _quantile(values: list, q: float):
    return values[min(len(values) - 1, int(q * len(values)))]


# ---------------------------------------------------------------------------
# Text-to-SQL cases
# ---------------------------------------------------------------------------
#
# Each template carries the difficulty level assigned by hand from the
# counting rules in gtr/sqleval/hardness.py: S structural, E extras,
# N nesting (see the comment on each template), and whether the gold query
# has a top-level ORDER BY. ``struct`` is a variant that changes the query's
# structure, so exact-set-match must reject it; a second draw of the
# literals gives a variant that exact-set-match must accept.


@dataclass(frozen=True)
class SqlTemplate:
    tid: str
    level: str
    ordered: bool
    ask: str
    gold: str
    struct: str
    params: object  # (rng, db) -> dict of literal values


ARCHETYPE_TEMPLATES = [
    # S=1 (WHERE)  E=0  N=0
    SqlTemplate("W0", "easy", False,
        "which {B} rows have {b_num} above {n}",
        "SELECT name FROM {B} WHERE {b_num} > {n}",
        "SELECT name FROM {B} WHERE {b_num} < {n}",
        lambda r, db: {"n": _quantile(db.b_nums, r.uniform(0.8, 0.95))}),
    # S=1  E=0  N=0
    SqlTemplate("W1", "easy", False,
        "how many {A} rows have {a_cat} {cat}",
        "SELECT count(*) FROM {A} WHERE {a_cat} = '{cat}'",
        "SELECT count(*) FROM {A} WHERE {a_cat} != '{cat}'",
        lambda r, db: {"cat": r.choice(db.a_cats)}),
    # S=2 (WHERE, GROUP BY)  E=1 (two select terms)  N=0
    SqlTemplate("W2", "medium", False,
        "count {A} rows per {a_cat} with {a_num} over {n}",
        "SELECT {a_cat}, count(*) FROM {A} WHERE {a_num} > {n} GROUP BY {a_cat}",
        "SELECT {a_cat}, count(*) FROM {A} WHERE {a_num} < {n} GROUP BY {a_cat}",
        lambda r, db: {"n": r.randint(20, 70)}),
    # S=3 (WHERE, two joins)  E=1 (two select terms)  N=0
    SqlTemplate("W3", "hard", False,
        "names of {A} and {B} linked by {L} in {l_year} {year}",
        "SELECT T1.name, T2.name FROM {A} AS T1 JOIN {L} AS T3 ON T1.{a_id} = T3.{a_id} "
        "JOIN {B} AS T2 ON T3.{b_id} = T2.{b_id} WHERE T3.{l_year} = {year}",
        "SELECT T1.name FROM {A} AS T1 JOIN {L} AS T3 ON T1.{a_id} = T3.{a_id} "
        "JOIN {B} AS T2 ON T3.{b_id} = T2.{b_id} WHERE T3.{l_year} = {year}",
        lambda r, db: {"year": r.choice(db.years)}),
    # S=1  E=0  N=1 (subquery value)
    SqlTemplate("W4", "hard", False,
        "how many {A} rows have {a_num} above the average of {a_cat} {cat}",
        "SELECT count(*) FROM {A} WHERE {a_num} > "
        "(SELECT avg({a_num}) FROM {A} WHERE {a_cat} = '{cat}')",
        "SELECT count(*) FROM {A} WHERE {a_num} < "
        "(SELECT avg({a_num}) FROM {A} WHERE {a_cat} = '{cat}')",
        lambda r, db: {"cat": r.choice(db.a_cats)}),
    # S=1  E=0  N=1 (set operation)
    SqlTemplate("W5", "hard", False,
        "{A} names with {a_cat} {cat} that also have a {C} with {c_num} over {n}",
        "SELECT name FROM {A} WHERE {a_cat} = '{cat}' INTERSECT SELECT T1.name FROM {A} AS T1 "
        "JOIN {C} AS T2 ON T1.{a_id} = T2.{a_id} WHERE T2.{c_num} > {n}",
        "SELECT name FROM {A} WHERE {a_cat} = '{cat}' EXCEPT SELECT T1.name FROM {A} AS T1 "
        "JOIN {C} AS T2 ON T1.{a_id} = T2.{a_id} WHERE T2.{c_num} > {n}",
        lambda r, db: {"cat": r.choice(db.a_cats),
                       "n": _quantile(db.c_nums, r.uniform(0.5, 0.9))}),
    # S=5 (WHERE, GROUP BY, ORDER BY, LIMIT, one join)  E=2  N=0
    SqlTemplate("W6", "extra", True,
        "top three {A} by {L} count after {y}",
        "SELECT T1.name, count(*) FROM {A} AS T1 JOIN {L} AS T2 ON T1.{a_id} = T2.{a_id} "
        "WHERE T2.{l_year} > {y} GROUP BY T1.{a_id} HAVING count(*) >= {m} "
        "ORDER BY count(*) DESC, T1.name LIMIT 3",
        "SELECT T1.name, count(*) FROM {A} AS T1 JOIN {L} AS T2 ON T1.{a_id} = T2.{a_id} "
        "WHERE T2.{l_year} > {y} GROUP BY T1.{a_id} HAVING count(*) >= {m} "
        "ORDER BY count(*) ASC, T1.name LIMIT 3",
        lambda r, db: {"y": r.randint(2000, 2015), "m": r.randint(1, 2)}),
    # S=3 (WHERE, OR, LIKE)  E=1 (two WHERE predicates)  N=0
    SqlTemplate("W7", "hard", False,
        "{B} names whose {b_cat} starts with {frag} or with {b_num} above {n}",
        "SELECT name FROM {B} WHERE {b_cat} LIKE '{frag}%' OR {b_num} > {n}",
        "SELECT name FROM {B} WHERE {b_cat} NOT LIKE '{frag}%' OR {b_num} > {n}",
        lambda r, db: {"frag": r.choice(db.b_cats)[:2],
                       "n": _quantile(db.b_nums, r.uniform(0.7, 0.95))}),
    # S=2 (GROUP BY, one join)  E=2 (two aggregates, two select terms)  N=1
    SqlTemplate("W8", "extra", False,
        "{B} whose average {l_val} beats the average since {y}",
        "SELECT T2.name, avg(T1.{l_val}) FROM {L} AS T1 JOIN {B} AS T2 ON T1.{b_id} = T2.{b_id} "
        "GROUP BY T2.name HAVING avg(T1.{l_val}) > "
        "(SELECT avg({l_val}) FROM {L} WHERE {l_year} >= {y})",
        "SELECT T2.name, avg(T1.{l_val}) FROM {L} AS T1 JOIN {B} AS T2 ON T1.{b_id} = T2.{b_id} "
        "GROUP BY T2.name HAVING avg(T1.{l_val}) < "
        "(SELECT avg({l_val}) FROM {L} WHERE {l_year} >= {y})",
        lambda r, db: {"y": r.randint(2000, 2020)}),
    # S=1  E=0  N=1 (IN subquery)
    SqlTemplate("W9", "hard", False,
        "{A} names with some {C} whose {c_num} is above {n}",
        "SELECT name FROM {A} WHERE {a_id} IN (SELECT {a_id} FROM {C} WHERE {c_num} > {n})",
        "SELECT name FROM {A} WHERE {a_id} NOT IN (SELECT {a_id} FROM {C} WHERE {c_num} > {n})",
        lambda r, db: {"n": _quantile(db.c_nums, r.uniform(0.85, 0.97))}),
    # S=2 (WHERE, one join)  E=1 (two select terms)  N=0
    SqlTemplate("W10", "medium", False,
        "{A} names and {C} titles with {c_num} between {lo} and {hi}",
        "SELECT T1.name, T2.title FROM {A} AS T1 JOIN {C} AS T2 ON T1.{a_id} = T2.{a_id} "
        "WHERE T2.{c_num} BETWEEN {lo} AND {hi}",
        "SELECT T1.name, T2.title FROM {A} AS T1 JOIN {C} AS T2 ON T1.{a_id} = T2.{a_id} "
        "WHERE T2.{c_num} NOT BETWEEN {lo} AND {hi}",
        lambda r, db: (lambda lo: {"lo": lo, "hi": lo + r.randint(20, 60)})(r.randint(1, 900))),
    # S=2 (ORDER BY, LIMIT)  E=0  N=0
    SqlTemplate("W11", "medium", True,
        "the {k} {B} with the largest {b_num}",
        "SELECT name FROM {B} ORDER BY {b_num} DESC LIMIT {k}",
        "SELECT name FROM {B} ORDER BY {b_num} ASC LIMIT {k}",
        lambda r, db: {"k": r.randint(3, 10)}),
]

# The warehouse of the deep workload: three tables of 10^5 rows and more,
# plus a small store table. Scans, not lookups, dominate these queries.
WAREHOUSE_SCHEMA = """
CREATE TABLE sales (sale_id INTEGER PRIMARY KEY, customer_id INTEGER, product_id INTEGER,
    store_id INTEGER, sale_day INTEGER, quantity INTEGER, amount REAL);
CREATE TABLE customers (customer_id INTEGER PRIMARY KEY, name TEXT, region TEXT,
    segment TEXT, signup_year INTEGER);
CREATE TABLE products (product_id INTEGER PRIMARY KEY, name TEXT, category TEXT,
    price REAL, supplier TEXT);
CREATE TABLE stores (store_id INTEGER PRIMARY KEY, city TEXT, size INTEGER, manager TEXT);
"""

WAREHOUSE_TEMPLATES = [
    # S=1  E=0  N=0
    SqlTemplate("D0", "easy", False,
        "how many sales have amount above {amt}",
        "SELECT count(*) FROM sales WHERE amount > {amt}",
        "SELECT count(*) FROM sales WHERE amount < {amt}",
        lambda r, db: {"amt": db.amount_q(r.uniform(0.7, 0.9))}),
    # S=2 (WHERE, GROUP BY)  E=1  N=0
    SqlTemplate("D1", "medium", False,
        "customers per region who signed up in {y} or later",
        "SELECT region, count(*) FROM customers WHERE signup_year >= {y} GROUP BY region",
        "SELECT region, count(*) FROM customers WHERE signup_year <= {y} GROUP BY region",
        lambda r, db: {"y": r.randint(2017, 2018)}),
    # S=2 (WHERE, GROUP BY)  E=1  N=0
    SqlTemplate("D2", "medium", False,
        "units sold per store between day {d1} and day {d2}",
        "SELECT store_id, sum(quantity) FROM sales WHERE sale_day BETWEEN {d1} AND {d2} "
        "GROUP BY store_id",
        "SELECT store_id, max(quantity) FROM sales WHERE sale_day BETWEEN {d1} AND {d2} "
        "GROUP BY store_id",
        lambda r, db: (lambda d: {"d1": d, "d2": d + r.randint(5, 60)})(r.randint(0, 600))),
    # S=1  E=0  N=1 (subquery value)
    SqlTemplate("D3", "hard", False,
        "how many products cost more than the average {cat} product",
        "SELECT count(*) FROM products WHERE price > "
        "(SELECT avg(price) FROM products WHERE category = '{cat}')",
        "SELECT count(*) FROM products WHERE price < "
        "(SELECT avg(price) FROM products WHERE category = '{cat}')",
        lambda r, db: {"cat": r.choice(db.categories)}),
    # S=4 (WHERE, GROUP BY, ORDER BY, LIMIT)  E=2  N=0
    SqlTemplate("D4", "extra", True,
        "the five stores with the highest revenue from orders of more than {q} units",
        "SELECT store_id, sum(amount) FROM sales WHERE quantity > {q} GROUP BY store_id "
        "HAVING sum(amount) > {m} ORDER BY sum(amount) DESC LIMIT 5",
        "SELECT store_id, sum(amount) FROM sales WHERE quantity > {q} GROUP BY store_id "
        "HAVING sum(amount) > {m} ORDER BY sum(amount) ASC LIMIT 5",
        lambda r, db: {"q": 15, "m": r.randint(100, 1000)}),
    # S=1  E=0  N=1 (set operation)
    SqlTemplate("D5", "hard", False,
        "names of {cat} products priced above {p}",
        "SELECT name FROM products WHERE price > {p} INTERSECT "
        "SELECT name FROM products WHERE category = '{cat}'",
        "SELECT name FROM products WHERE price > {p} EXCEPT "
        "SELECT name FROM products WHERE category = '{cat}'",
        lambda r, db: {"p": db.price_q(r.uniform(0.985, 0.995)),
                       "cat": r.choice(db.categories)}),
    # S=3 (WHERE, GROUP BY, one join)  E=1  N=0
    SqlTemplate("D6", "hard", False,
        "average sale amount per customer segment for sales {s1} to {s2}",
        "SELECT T2.segment, avg(T1.amount) FROM sales AS T1 JOIN customers AS T2 "
        "ON T1.customer_id = T2.customer_id WHERE T1.sale_id BETWEEN {s1} AND {s2} "
        "GROUP BY T2.segment",
        "SELECT T2.segment, max(T1.amount) FROM sales AS T1 JOIN customers AS T2 "
        "ON T1.customer_id = T2.customer_id WHERE T1.sale_id BETWEEN {s1} AND {s2} "
        "GROUP BY T2.segment",
        lambda r, db: (lambda w: (lambda s: {"s1": s, "s2": s + w})(
            r.randint(1, db.n_sales - w)))(r.randint(db.n_sales // 100, db.n_sales // 25))),
    # S=1  E=0  N=1 (IN subquery)
    SqlTemplate("D7", "hard", False,
        "how many customers made a sale above {amt}",
        "SELECT count(*) FROM customers WHERE customer_id IN "
        "(SELECT customer_id FROM sales WHERE amount > {amt})",
        "SELECT count(*) FROM customers WHERE customer_id NOT IN "
        "(SELECT customer_id FROM sales WHERE amount > {amt})",
        lambda r, db: {"amt": db.amount_q(r.uniform(0.98, 0.999))}),
    # S=2 (WHERE, GROUP BY)  E=2 (two aggregates, three select terms)  N=0
    SqlTemplate("D8", "extra", False,
        "price range per category below {p}",
        "SELECT category, max(price), min(price) FROM products WHERE price < {p} "
        "GROUP BY category",
        "SELECT category, max(price), avg(price) FROM products WHERE price < {p} "
        "GROUP BY category",
        lambda r, db: {"p": db.price_q(r.uniform(0.4, 0.6))}),
    # S=2 (WHERE, ORDER BY)  E=1 (two select terms)  N=0
    SqlTemplate("D9", "medium", True,
        "cities and sizes of stores larger than {sz}",
        "SELECT city, size FROM stores WHERE size > {sz} ORDER BY size DESC",
        "SELECT city, size FROM stores WHERE size > {sz} ORDER BY size ASC",
        lambda r, db: {"sz": r.randint(100, 4000)}),
    # S=5 (WHERE, GROUP BY, ORDER BY, LIMIT, one join)  E=2  N=0
    SqlTemplate("D10", "extra", True,
        "the three cities with the highest revenue on day {d}",
        "SELECT T2.city, sum(T1.amount) FROM sales AS T1 JOIN stores AS T2 "
        "ON T1.store_id = T2.store_id WHERE T1.sale_day = {d} GROUP BY T2.city "
        "ORDER BY sum(T1.amount) DESC LIMIT 3",
        "SELECT T2.city, sum(T1.amount) FROM sales AS T1 JOIN stores AS T2 "
        "ON T1.store_id = T2.store_id WHERE T1.sale_day = {d} GROUP BY T2.city "
        "ORDER BY sum(T1.amount) ASC LIMIT 3",
        lambda r, db: {"d": r.randint(0, 729)}),
]


@dataclass
class WarehouseDb:
    db_id: str
    path: Path
    categories: list[str]
    n_sales: int
    amounts: np.ndarray  # sorted
    prices: np.ndarray  # sorted

    def amount_q(self, q: float) -> float:
        return float(self.amounts[min(len(self.amounts) - 1, int(q * len(self.amounts)))])

    def price_q(self, q: float) -> float:
        return float(self.prices[min(len(self.prices) - 1, int(q * len(self.prices)))])


def build_warehouse_db(
    rng: random.Random,
    text: TextMaker,
    path: Path,
    sizes: tuple[int, int, int, int],
) -> WarehouseDb:
    n_sales, n_customers, n_products, n_stores = sizes
    gen = np.random.default_rng(rng.getrandbits(64))
    words = [w.capitalize() for w in rng.sample(text.vocab[:500], 60)]
    regions, segments, categories, suppliers = words[:5], words[5:9], words[9:39], words[39:]
    amounts = np.round(gen.gamma(2.0, 60.0, n_sales) + 1.0, 2)
    prices = np.round(gen.uniform(1.0, 900.0, n_products), 2)
    conn = connect_writer(path)
    try:
        conn.executescript(WAREHOUSE_SCHEMA)
        conn.executemany(
            "INSERT INTO sales VALUES (?,?,?,?,?,?,?)",
            zip(range(1, n_sales + 1),
                gen.integers(1, n_customers + 1, n_sales).tolist(),
                gen.integers(1, n_products + 1, n_sales).tolist(),
                gen.integers(1, n_stores + 1, n_sales).tolist(),
                gen.integers(0, 730, n_sales).tolist(),
                gen.integers(1, 21, n_sales).tolist(),
                amounts.tolist()),
        )
        conn.executemany(
            "INSERT INTO customers VALUES (?,?,?,?,?)",
            zip(range(1, n_customers + 1),
                (f"Customer {i}" for i in range(1, n_customers + 1)),
                (regions[i] for i in gen.integers(0, len(regions), n_customers).tolist()),
                (segments[i] for i in gen.integers(0, len(segments), n_customers).tolist()),
                gen.integers(2000, 2024, n_customers).tolist()),
        )
        conn.executemany(
            "INSERT INTO products VALUES (?,?,?,?,?)",
            zip(range(1, n_products + 1),
                (f"Product {i}" for i in range(1, n_products + 1)),
                (categories[i] for i in gen.integers(0, len(categories), n_products).tolist()),
                prices.tolist(),
                (suppliers[i] for i in gen.integers(0, len(suppliers), n_products).tolist())),
        )
        sizes_col = rng.sample(range(50, 5000), n_stores)
        conn.executemany(
            "INSERT INTO stores VALUES (?,?,?,?)",
            [(i + 1, text.words(1)[0].capitalize(), sizes_col[i],
              " ".join(w.capitalize() for w in text.words(2))) for i in range(n_stores)],
        )
        conn.commit()
    finally:
        conn.close()
    return WarehouseDb(
        db_id=path.stem,
        path=path,
        categories=categories,
        n_sales=n_sales,
        amounts=np.sort(amounts),
        prices=np.sort(prices),
    )


@dataclass
class SqlCase:
    db_id: str
    question: str
    gold: str
    level: str
    ordered: bool
    preds: list[tuple[str, bool]]  # (predicted SQL, planted exact-set-match verdict)


def make_case(
    rng: random.Random,
    template: SqlTemplate,
    db,
    names: dict,
    number: int,
    variants: tuple[str, ...],
) -> SqlCase:
    """Instantiate one template; ``variants`` picks the predicted queries:
    "same" (identical), "literal" (other literals) or "struct"."""
    params = template.params(rng, db)
    gold = template.gold.format(**names, **params)
    preds = []
    for kind in variants:
        if kind == "same":
            preds.append((gold, True))
        elif kind == "struct":
            preds.append((template.struct.format(**names, **params), False))
        else:
            for _ in range(50):
                other = template.gold.format(**names, **template.params(rng, db))
                if other != gold:
                    break
            else:
                raise ValueError(f"template {template.tid} has no second literal draw")
            preds.append((other, True))
    ask = template.ask.format(**names, **params)
    return SqlCase(
        db_id=db.db_id,
        question=f"q{number} on {db.db_id}: {ask}?",
        gold=gold,
        level=template.level,
        ordered=template.ordered,
        preds=preds,
    )


def domain_names(domain: Domain) -> dict:
    return dict(domain.__dict__)
