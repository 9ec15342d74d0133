"""The matrix-first store against the store it replaced (``store_oracles``).

Both stores get the same records in the same order, interleaved with
queries; every ``query_top_k`` result must be identical, ids and scores bit
for bit. The one exception is a row whose norm overflows or whose squares
fall below the normal float range: the oracle scores it as NaN or with
the precision lost, the production store scales it by a power of two
first, and its score is checked against exact arithmetic instead.

Saved files: the production store writes format version 2 and the oracle
version 1. Loading the oracle's file and saving it must give the production
store's bytes, which must equal ``store_oracles.v2_bytes``, and stores loaded
from either file must answer queries exactly as the oracle does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gtr.embedding import EmbedderConfig, embed
from gtr.store import VectorRecord, VectorStore
from store_oracles import VectorStore as OracleStore
from store_oracles import v2_bytes

DIMS = (1, 2, 3, 7, 16, 64, 384, 400)
WORDS = ["alpha", "beta", "gamma", "delta", "épsilon", "zeta", "中文", "eta"]


def exact(result):
    """A query result with each score as its bit pattern (-0.0 != 0.0)."""
    assert all(type(rid) is str and type(score) is float for rid, score in result)
    return [(rid, score.hex()) for rid, score in result]


def out_of_range(vector) -> bool:
    """Whether the sum of the squares of ``vector`` overflows or, for a
    nonzero vector, falls below the smallest normal float."""
    peak = max(abs(x) for x in vector)
    if peak == 0.0:
        return False
    e = math.frexp(peak)[1]
    square = math.fsum(math.ldexp(x, -e) ** 2 for x in vector)  # times 2 ** (-2 * e)
    return not -1022 <= math.log2(square) + 2 * e < 1024


def exact_cosine(u, v) -> float:
    """Cosine from power-of-two-scaled entries and correctly rounded sums;
    0.0 for a zero vector."""
    def scaled(x):
        peak = max(abs(e) for e in x)
        return [math.ldexp(e, -math.frexp(peak)[1]) for e in x] if peak else list(x)
    su, sv = scaled(u), scaled(v)
    nu = math.sqrt(math.fsum(x * x for x in su))
    nv = math.sqrt(math.fsum(x * x for x in sv))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return math.fsum(x * y for x, y in zip(su, sv)) / (nu * nv)


class Twin:
    """A production store and an oracle store fed the same operations."""

    def __init__(self, new, old):
        self.new, self.old = new, old
        self.odd = {r.id for r in new.records if out_of_range(r.vector)}

    @classmethod
    def empty(cls, dim):
        return cls(VectorStore(dim, "fp"), OracleStore(dim, "fp"))

    def insert(self, rid, vector, kind="chunk", text="t", metadata=None):
        for store in (self.new, self.old):
            store.insert(VectorRecord(rid, np.array(vector, dtype=np.float64), kind, text,
                                      dict(metadata or {})))
        if out_of_range(vector):
            self.odd.add(rid)

    def check(self, query, k):
        got = self.new.query_top_k(query, k)
        # An out-of-range query the oracle scores as NaN, or refuses.
        odd = {r.id for r in self.new.records} if out_of_range(query) else self.odd
        if not odd:
            assert exact(got) == exact(self.old.query_top_k(query, k))
            return got
        # Every score but the out-of-range rows' is the oracle's, bit for
        # bit; those are exact to rounding; the top k are the first k of
        # the full ranking by score, then id.
        n = len(self.new)
        ranked = self.new.query_top_k(query, n)
        assert got == ranked[:k]
        assert ranked == sorted(ranked, key=lambda pair: (-pair[1], pair[0]))
        old = {} if len(odd) == n else dict(self.old.query_top_k(query, n))
        for rid, score in ranked:
            if rid in odd:
                want = exact_cosine(self.new.get(rid).vector, query)
                assert score == pytest.approx(want, abs=4e-16)
            else:
                assert score.hex() == old[rid].hex()
        return got

    def check_saved(self, tmp_path):
        """Save both stores; the two files must hold the same store."""
        new_path, old_path = tmp_path / "new.gtr", tmp_path / "old.jsonl"
        self.new.save(new_path)
        self.old.save(old_path)
        assert new_path.read_bytes() == v2_bytes(self.new.dim, "fp", self.new.records)
        resaved = tmp_path / "resaved.gtr"
        VectorStore.load(old_path).save(resaved)
        assert resaved.read_bytes() == new_path.read_bytes()
        return new_path, old_path


def random_vector(rng, dim, seen):
    """Gaussian, hashed bag-of-words, zero, a copy or a rescaled copy of an
    earlier vector (exact and near ties), or a one-hot vector."""
    kind = rng.integers(7)
    if kind == 0 and seen:
        return seen[rng.integers(len(seen))].copy()
    if kind == 1 and seen:
        return seen[rng.integers(len(seen))] * float(rng.choice([0.5, 3.0, 1e-3]))
    if kind == 2:
        return np.zeros(dim)
    if kind == 3:
        words = rng.choice(WORDS, size=int(rng.integers(1, 5)))
        return embed(" ".join(words), EmbedderConfig(dim=dim))
    if kind == 4:
        v = np.zeros(dim)
        v[rng.integers(dim)] = float(rng.choice([1.0, -2.0]))
        return v
    return rng.standard_normal(dim) * float(rng.choice([1.0, 1e-150, 1e150]))


def random_query(rng, dim, seen):
    while True:
        q = random_vector(rng, dim, seen)
        if np.linalg.norm(q) != 0.0:
            return q


def random_id(rng, i):
    # Insertion order differs from id order, so ties test the id break.
    prefix = str(rng.choice(["a", "b", "z", "é", "中", "A", "a.b", ""]))
    return f"{prefix}{int(rng.integers(1000)):03d}-{i}"


@pytest.mark.parametrize("seed", range(24))
def test_interleaved_inserts_and_queries(seed):
    rng = np.random.default_rng(1000 + seed)
    dim = DIMS[seed % len(DIMS)]
    twin = Twin.empty(dim)
    seen = []
    queries = 0
    for _ in range(int(rng.integers(3, 7))):
        for _ in range(int(rng.integers(1, 40))):
            v = random_vector(rng, dim, seen)
            seen.append(v)
            twin.insert(random_id(rng, len(seen)), v)
        n = len(seen)
        for k in (1, 2, 5, n, n + 3):
            twin.check(random_query(rng, dim, seen), k)
            queries += 1
    assert queries >= 15


def test_growth_boundaries():
    # One query after every insert crosses each doubling of the matrix.
    rng = np.random.default_rng(5)
    twin = Twin.empty(3)
    seen = []
    for i in range(140):
        v = random_vector(rng, 3, seen)
        seen.append(v)
        twin.insert(f"r{(i * 37) % 140:03d}", v)
        twin.check(random_query(rng, 3, seen), 3)
        twin.check(seen[-1] if np.any(seen[-1]) else np.ones(3), i + 2)


def test_all_ties():
    # Every record scores the same: the order is by id alone, at every k.
    twin = Twin.empty(4)
    for rid in ["m", "b", "z", "a", "é", "B", "a0", "0"]:
        twin.insert(rid, [1.0, 2.0, 0.0, -1.0])
    for k in range(1, 10):
        got = twin.check(np.array([1.0, 2.0, 0.0, -1.0]), k)
        assert [rid for rid, _ in got] == sorted(["m", "b", "z", "a", "é", "B", "a0", "0"])[:k]


def test_zero_vectors_only():
    twin = Twin.empty(2)
    for rid in ["c", "a", "b"]:
        twin.insert(rid, [0.0, 0.0])
    assert twin.check(np.array([1.0, -1.0]), 2) == [("a", 0.0), ("b", 0.0)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the oracle's overflows
def test_norms_out_of_float_range():
    # Norms past about 1.3e154 overflow to infinity, and below about 1.5e-154
    # lose precision; the oracle scores such rows as NaN or wrongly, and the
    # query [1e200, 0] as NaN throughout. Each scores as at ordinary size.
    twin = Twin.empty(2)
    for rid, v in [("d", [1e200, 0.0]), ("b", [0.0, 1.0]), ("c", [1e200, 1e200]),
                   ("a", [-1e200, 0.0]), ("e", [1.0, 1.0]), ("f", [1e-200, 1e-200]),
                   ("g", [0.0, 0.0]), ("h", [3e-170, -1e-160]),
                   ("i", [1.7976931348623157e308, 1.7976931348623157e308])]:
        twin.insert(rid, v)
    assert dict(twin.check(np.array([1e200, 0.0]), 9)) == {
        "a": -1.0, "b": 0.0, "c": pytest.approx(0.5 ** 0.5), "d": 1.0,
        "e": pytest.approx(0.5 ** 0.5), "f": pytest.approx(0.5 ** 0.5), "g": 0.0,
        "h": pytest.approx(3e-10), "i": pytest.approx(0.5 ** 0.5)}
    for query in ([1.0, 0.0], [1e200, -1e200], [1e-300, 1e-300], [0.0, 5e-324]):
        for k in (1, 2, 4, 5, 9, 10):
            twin.check(np.array(query), k)


@pytest.mark.parametrize("dim", [1, 16, 384])
def test_save_load_and_keep_growing(tmp_path, dim):
    rng = np.random.default_rng(dim)
    twin = Twin.empty(dim)
    seen = []
    for i in range(150):
        v = random_vector(rng, dim, seen)
        seen.append(v)
        twin.insert(random_id(rng, i), v, "table" if i % 3 else "chunk", f"text é {i}",
                    {"doc_id": f"d{i % 7}", "index": str(i)})
    new_path, old_path = twin.check_saved(tmp_path)
    for path in (new_path, old_path):
        loaded = Twin(VectorStore.load(path), OracleStore.load(old_path))
        for k in (1, 5, 150, 151):
            loaded.check(random_query(rng, dim, seen), k)
    for i in range(150, 200):
        v = random_vector(rng, dim, seen)
        seen.append(v)
        loaded.insert(random_id(rng, i), v)
        if i % 10 == 0:
            loaded.check(random_query(rng, dim, seen), 4)
    loaded.check_saved(tmp_path)


def test_loaded_bag_of_words_store(tmp_path):
    # A store shaped like an ingested knowledge base: many hashed
    # bag-of-words vectors over a small vocabulary, so many exact ties.
    rng = np.random.default_rng(11)
    config = EmbedderConfig(dim=384)
    twin = Twin.empty(384)
    for i in range(2000):
        words = rng.choice(WORDS, size=int(rng.integers(1, 6)))
        twin.insert(f"doc{int(rng.integers(50))}#{i}", embed(" ".join(words), config))
    new_path, old_path = twin.check_saved(tmp_path)
    loaded = Twin(VectorStore.load(new_path), OracleStore.load(old_path))
    from_v1 = VectorStore.load(old_path)
    for _ in range(40):
        words = rng.choice(WORDS, size=int(rng.integers(1, 4)))
        query, k = embed(" ".join(words), config), int(rng.choice([1, 5, 10]))
        assert exact(loaded.check(query, k)) == exact(from_v1.query_top_k(query, k))
