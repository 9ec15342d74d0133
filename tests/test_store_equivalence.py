"""The matrix-first store against the store it replaced (``store_oracles``).

Both stores get the same records in the same order, interleaved with
queries; every ``query_top_k`` result must be identical, ids and scores bit
for bit, and every saved file byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest

from gtr.embedding import EmbedderConfig, embed
from gtr.store import VectorRecord, VectorStore
from store_oracles import VectorStore as OracleStore

DIMS = (1, 2, 3, 7, 16, 64, 384, 400)
WORDS = ["alpha", "beta", "gamma", "delta", "épsilon", "zeta", "中文", "eta"]


def exact(result):
    """A query result with each score as its bit pattern (-0.0 != 0.0)."""
    assert all(type(rid) is str and type(score) is float for rid, score in result)
    return [(rid, score.hex()) for rid, score in result]


class Twin:
    """A production store and an oracle store fed the same operations."""

    def __init__(self, new, old):
        self.new, self.old = new, old

    @classmethod
    def empty(cls, dim):
        return cls(VectorStore(dim, "fp"), OracleStore(dim, "fp"))

    def insert(self, rid, vector, kind="chunk", text="t", metadata=None):
        for store in (self.new, self.old):
            store.insert(VectorRecord(rid, np.array(vector, dtype=np.float64), kind, text,
                                      dict(metadata or {})))

    def check(self, query, k):
        got = self.new.query_top_k(query, k)
        assert exact(got) == exact(self.old.query_top_k(query, k))
        return got

    def check_saved(self, tmp_path):
        new_path, old_path = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        self.new.save(new_path)
        self.old.save(old_path)
        assert new_path.read_bytes() == old_path.read_bytes()
        return new_path


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_norms():
    # Norms past about 1.3e154 overflow to infinity, so some scores are NaN;
    # they rank last, in id order, in both stores.
    twin = Twin.empty(2)
    for rid, v in [("d", [1e200, 0.0]), ("b", [0.0, 1.0]), ("c", [1e200, 1e200]),
                   ("a", [-1e200, 0.0]), ("e", [1.0, 1.0])]:
        twin.insert(rid, v)
    for query in ([1e200, 0.0], [1.0, 0.0], [1e200, -1e200]):
        for k in (1, 2, 4, 5, 6):
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
    path = twin.check_saved(tmp_path)
    loaded = Twin(VectorStore.load(path), OracleStore.load(path))
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
    path = twin.check_saved(tmp_path)
    loaded = Twin(VectorStore.load(path), OracleStore.load(path))
    for _ in range(40):
        words = rng.choice(WORDS, size=int(rng.integers(1, 4)))
        loaded.check(embed(" ".join(words), config), int(rng.choice([1, 5, 10])))
