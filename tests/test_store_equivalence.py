"""The production store against a naive scan in its defined summation
order and against the store it replaced (``store_oracles``).

Both stores get the same records in the same order, interleaved with
queries. Every ``query_top_k`` result must equal ``naive_top_k``'s, ids and
scores bit for bit. The replaced store summed each row in BLAS's order, so
its scores must agree to rounding only. The exception is a row whose norm
overflows or whose squares fall below the normal float range: the replaced
store scores it as NaN or with the precision lost, the production store
scales it by a power of two first, and its score is checked against exact
arithmetic instead.

Saved files: the production store writes format version 3 and the oracle
version 1, which the production ``load`` refuses. The records the oracle
reads back from its file, inserted into a production store and saved, must
give the production store's bytes, which must equal
``store_oracles.v3_bytes``; stores made from either file must answer
queries exactly as the oracle does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gtr.embedding import EmbedderConfig, embed
from gtr.store import VectorRecord, VectorStore
from store_oracles import VectorStore as OracleStore
from store_oracles import as_production, naive_row, naive_top_k, v3_bytes

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
    """A production store, an oracle store and the naive scan's rows, fed
    the same operations."""

    def __init__(self, new, old):
        self.new, self.old = new, old
        self.odd = {r.id for r in new.records if out_of_range(r.vector)}
        self.rows = [naive_row(r.id, r.vector) for r in new.records]

    @classmethod
    def empty(cls, dim):
        return cls(VectorStore(dim, "fp"), OracleStore(dim, "fp"))

    def insert(self, rid, vector, kind="chunk", text="t", metadata=None):
        for store in (self.new, self.old):
            store.insert(VectorRecord(rid, np.array(vector, dtype=np.float64), kind, text,
                                      dict(metadata or {})))
        if out_of_range(vector):
            self.odd.add(rid)
        self.rows.append(naive_row(rid, vector))

    def check(self, query, k):
        got = self.new.query_top_k(query, k)
        assert exact(got) == exact(naive_top_k(self.rows, query, k))
        # An out-of-range query the oracle scores as NaN, or refuses.
        n = len(self.new)
        odd = {r.id for r in self.new.records} if out_of_range(query) else self.odd
        old = {} if len(odd) == n else dict(self.old.query_top_k(query, n))
        for rid, score in got:
            if rid in odd:
                want = exact_cosine(self.new.get(rid).vector, query)
                assert score == pytest.approx(want, abs=4e-16)
            else:
                # Another order of a sum of at most 400 products.
                assert score == pytest.approx(old[rid], abs=1e-13)
        return got

    def check_saved(self, tmp_path):
        """Save both stores; the two files must hold the same store."""
        new_path, old_path = tmp_path / "new.gtr", tmp_path / "old.jsonl"
        self.new.save(new_path)
        self.old.save(old_path)
        assert new_path.read_bytes() == v3_bytes(self.new.dim, "fp", self.new.records)
        resaved = tmp_path / "resaved.gtr"
        as_production(OracleStore.load(old_path)).save(resaved)
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
    # One query after every insert crosses each growth of the matrix.
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


def test_zero_scores_are_positive_zero():
    # Each sum starts from +0.0, so a product of -0.0 leaves no -0.0 score.
    twin = Twin.empty(3)
    for rid, v in [("a", [1.0, -0.0, 0.0]), ("b", [-2.0, 0.0, -0.0]), ("c", [0.0, 0.0, 0.0])]:
        twin.insert(rid, v)
    got = twin.check(np.array([0.0, 3.0, 1.0]), 3)
    assert exact(got) == [("a", "0x0.0p+0"), ("b", "0x0.0p+0"), ("c", "0x0.0p+0")]


def test_equal_rows_score_equally_at_any_position():
    # A matrix-vector product summed row 8 in another order than row 7,
    # its equal: r08 scored 0x1.5912a4c12b480p-4 and r07 ...47fp-4, so r08
    # ranked first.
    rng = np.random.default_rng(0)
    vectors = rng.standard_normal((11, 104))
    vectors[8] = vectors[7]
    query = rng.standard_normal(104)
    twin = Twin.empty(104)
    for i, v in enumerate(vectors):
        twin.insert(f"r{i:02d}", v)
    got = twin.check(query, 11)
    ids = [rid for rid, _ in got]
    assert ids.index("r08") == ids.index("r07") + 1
    assert dict(got)["r07"].hex() == dict(got)["r08"].hex()


@pytest.mark.parametrize("seed", range(6))
def test_equal_vectors_rank_by_id_wherever_they_sit(seed):
    # Copies of one vector sit at random positions, some in the last few
    # rows, which a blocked matrix-vector product sums apart; their ids are
    # in no relation to their positions. Every copy scores the same, bit for
    # bit, so the copies come in ascending id order, for dense queries and
    # for sparse ones.
    rng = np.random.default_rng(4000 + seed)
    for _ in range(40):
        dim = int(rng.choice([8, 50, 104, 384]))
        n = int(rng.integers(10, 120))
        vectors = rng.standard_normal((n, dim))
        if rng.integers(2):
            vectors[rng.random((n, dim)) < 0.9] = 0.0
        copies = {*rng.choice(n - 8, size=2, replace=False).tolist(),
                  *rng.choice(range(n - 8, n), size=3, replace=False).tolist()}
        for i in copies:
            vectors[i] = vectors[min(copies)]
        ids = [f"{int(x):04d}" for x in rng.permutation(n)]
        store = VectorStore(dim, "fp")
        for rid, v in zip(ids, vectors):
            store.insert(VectorRecord(rid, v, "chunk", "t"))
        sparse = np.zeros(dim)
        sparse[rng.choice(dim, size=min(dim, 6), replace=False)] = rng.standard_normal(min(dim, 6))
        for query in (rng.standard_normal(dim), sparse):
            if not np.any(vectors[min(copies)] * query):
                continue
            ranked = store.query_top_k(query, n)
            assert ranked == sorted(ranked, key=lambda pair: (-pair[1], pair[0]))
            copy_ids = {ids[i] for i in copies}
            assert len({score.hex() for rid, score in ranked if rid in copy_ids}) == 1


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
    for store in (VectorStore.load(new_path), as_production(OracleStore.load(old_path))):
        loaded = Twin(store, OracleStore.load(old_path))
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
    from_v1 = as_production(OracleStore.load(old_path))
    for _ in range(40):
        words = rng.choice(WORDS, size=int(rng.integers(1, 4)))
        query, k = embed(" ".join(words), config), int(rng.choice([1, 5, 10]))
        assert exact(loaded.check(query, k)) == exact(from_v1.query_top_k(query, k))
