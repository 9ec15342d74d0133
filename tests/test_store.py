import math

import numpy as np
import pytest

from gtr.embedding import EmbedderConfig, embed
from gtr.errors import (
    CorruptStore,
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ZeroVector,
)
from gtr.store import VectorRecord, VectorStore, cosine, export_embeddings_csv


def fsum_cosine(u, v):
    """Independent arithmetic oracle for cosine similarity."""
    dot = math.fsum(x * y for x, y in zip(u, v))
    nu = math.sqrt(math.fsum(x * x for x in u))
    nv = math.sqrt(math.fsum(y * y for y in v))
    return dot / (nu * nv)


def brute_force_top_k(store, query, k):
    """Naive full scan oracle: score every record, sort, cut."""
    scored = []
    for record in store.records:
        norm = math.sqrt(math.fsum(x * x for x in record.vector))
        if norm == 0.0:
            scored.append((record.id, 0.0))
        else:
            scored.append((record.id, fsum_cosine(query, record.vector)))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def random_store(rng, n, dim, prefix="r"):
    store = VectorStore(dim, "test")
    for i in range(n):
        vec = rng.standard_normal(dim)
        store.insert(VectorRecord(f"{prefix}{i:05d}", vec, "chunk", f"text {i}"))
    return store


class TestCosine:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = rng.standard_normal(rng.integers(1, 50))
            assert cosine(v, v) == 1.0

    def test_orthogonal_is_exactly_zero(self):
        assert cosine((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_known_value(self):
        expected = 32 / math.sqrt(14 * 77)
        assert abs(cosine((1, 2, 3), (4, 5, 6)) - expected) <= 1e-12

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            dim = rng.integers(2, 40)
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            assert abs(cosine(u, v) - fsum_cosine(u, v)) <= 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = rng.standard_normal(8) * rng.uniform(0.01, 100)
            v = rng.standard_normal(8) * rng.uniform(0.01, 100)
            s = cosine(u, v)
            assert s == cosine(v, u)
            assert -1.0 <= s <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine((1, 2), (1, 2, 3))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine((0.0, 0.0), (1.0, 2.0))


class TestInsertAndQuery:
    def test_insert_makes_store_of_length_one(self):
        store = VectorStore(3, "test")
        store.insert(VectorRecord("a", [1.0, 0.0, 0.0], "chunk", "t"))
        assert len(store) == 1
        assert store.get("a").text == "t"

    def test_top1_with_same_vector_scores_one(self):
        store = VectorStore(3, "test")
        vec = np.array([0.6, 0.8, 0.0])
        store.insert(VectorRecord("a", vec, "chunk", "t"))
        [(rid, score)] = store.query_top_k(vec, 1)
        assert rid == "a"
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_on_insert(self):
        store = VectorStore(384, "test")
        with pytest.raises(DimensionMismatch):
            store.insert(VectorRecord("a", [1.0, 2.0, 3.0], "chunk", "t"))

    def test_duplicate_id(self):
        store = VectorStore(2, "test")
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "t"))
        with pytest.raises(DuplicateId):
            store.insert(VectorRecord("a", [0.0, 1.0], "chunk", "t"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(InvalidInput, match="finite"):
            VectorRecord("a", [1.0, bad, 0.0], "chunk", "t")

    def test_query_empty_store(self):
        store = VectorStore(2, "test")
        assert store.query_top_k([1.0, 0.0], 3) == []

    def test_k_larger_than_store_returns_all_sorted(self):
        rng = np.random.default_rng(1)
        store = random_store(rng, 5, 6)
        query = rng.standard_normal(6)
        result = store.query_top_k(query, 50)
        assert len(result) == 5
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_argmax_matches_brute_force(self):
        config = EmbedderConfig(dim=24)
        store = VectorStore(24, "test")
        for name, text in [("a", "cats purr"), ("b", "dogs bark"), ("c", "fish swim")]:
            store.insert(VectorRecord(name, embed(text, config), "chunk", text))
        query = embed("do cats purr loudly", config)
        assert store.query_top_k(query, 1) == brute_force_top_k(store, query, 1)

    def test_ties_break_by_ascending_id(self):
        store = VectorStore(2, "test")
        store.insert(VectorRecord("b", [1.0, 0.0], "chunk", "t"))
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "t"))
        store.insert(VectorRecord("c", [0.0, 1.0], "chunk", "t"))
        result = store.query_top_k([1.0, 0.0], 2)
        assert [rid for rid, _ in result] == ["a", "b"]

    def test_scale_invariance_of_ranking(self):
        rng = np.random.default_rng(2)
        store = random_store(rng, 40, 12)
        query = rng.standard_normal(12)
        base = [rid for rid, _ in store.query_top_k(query, 40)]
        for c in (1e-6, 0.5, 3.0, 1e6):
            scaled = [rid for rid, _ in store.query_top_k(query * c, 40)]
            assert scaled == base

    def test_zero_norm_record_scores_zero(self):
        store = VectorStore(2, "test")
        store.insert(VectorRecord("z", [0.0, 0.0], "chunk", "t"))
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "t"))
        result = dict(store.query_top_k([1.0, 0.0], 2))
        assert result["z"] == 0.0

    def test_zero_query_rejected(self):
        store = VectorStore(2, "test")
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "t"))
        with pytest.raises(ZeroVector):
            store.query_top_k([0.0, 0.0], 1)

    def test_invalid_k(self):
        store = VectorStore(2, "test")
        with pytest.raises(InvalidInput):
            store.query_top_k([1.0, 0.0], 0)

    def test_oracle_equivalence_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 80))
            dim = int(rng.integers(2, 24))
            store = random_store(rng, n, dim)
            query = rng.standard_normal(dim)
            k = int(rng.integers(1, n + 3))
            got = store.query_top_k(query, k)
            expected = brute_force_top_k(store, query, k)
            assert [rid for rid, _ in got] == [rid for rid, _ in expected]
            for (_, a), (_, b) in zip(got, expected):
                assert abs(a - b) <= 1e-12


class TestConcurrentReaders:
    def test_parallel_queries_agree(self):
        # Many readers may hit a freshly loaded store at once; the first
        # query builds the caches. All must see consistent state.
        import threading

        rng = np.random.default_rng(77)
        store = random_store(rng, 500, 32)
        query = rng.standard_normal(32)
        expected = None
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            results[slot] = store.query_top_k(query, 5)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = store.query_top_k(query, 5)
        assert all(r == expected for r in results)


class TestPersistence:
    def test_round_trip_empty_store(self, tmp_path):
        store = VectorStore(7, "fp")
        path = tmp_path / "s.jsonl"
        store.save(path)
        loaded = VectorStore.load(path)
        assert loaded.dim == 7
        assert loaded.embedder_fingerprint == "fp"
        assert len(loaded) == 0

    def test_round_trip_100_records_bit_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        store = VectorStore(16, "fp")
        for i in range(100):
            store.insert(
                VectorRecord(
                    f"id{i}",
                    rng.standard_normal(16),
                    "chunk" if i % 2 else "table",
                    f"text {i} with unicode é{i}",
                    {"k": str(i)},
                )
            )
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        store.save(first)
        loaded = VectorStore.load(first)
        assert len(loaded) == len(store)
        for original, reread in zip(store.records, loaded.records):
            assert original.id == reread.id
            assert np.array_equal(original.vector, reread.vector)
            assert original.kind == reread.kind
            assert original.text == reread.text
            assert original.metadata == reread.metadata
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_header_dim_mismatch_is_corrupt(self, tmp_path):
        store = VectorStore(4, "fp")
        store.insert(VectorRecord("a", [1.0, 0.0, 0.0, 0.0], "chunk", "t"))
        path = tmp_path / "s.jsonl"
        store.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].replace('"dim":4', '"dim":8')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorruptStore, match="line 2"):
            VectorStore.load(path)

    def test_malformed_record_line_is_named(self, tmp_path):
        path = tmp_path / "s.jsonl"
        header = '{"format":"gtr-store","version":1,"dim":2,"embedder":"fp"}'
        path.write_text(header + "\n{broken\n", encoding="utf-8")
        with pytest.raises(CorruptStore, match="line 2"):
            VectorStore.load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"format":"other"}\n', encoding="utf-8")
        with pytest.raises(CorruptStore, match="line 1"):
            VectorStore.load(path)

    def test_export_embeddings_csv(self, tmp_path):
        import csv as csv_module

        rng = np.random.default_rng(3)
        store = random_store(rng, 4, 3)
        out = tmp_path / "emb.csv"
        export_embeddings_csv(store, out)
        with open(out, encoding="utf-8", newline="") as f:
            rows = list(csv_module.reader(f))
        assert rows[0] == ["id", "kind", "v0", "v1", "v2"]
        assert len(rows) == 5
        for record, row in zip(store.records, rows[1:]):
            assert row[0] == record.id
            recovered = np.array([float(x) for x in row[2:]])
            assert np.array_equal(recovered, record.vector)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_vector_in_file_is_corrupt(self, tmp_path, token):
        path = tmp_path / "s.jsonl"
        header = '{"format":"gtr-store","version":1,"dim":2,"embedder":"fp"}'
        good = '{"id":"a","vector":[1.0,0.0],"kind":"chunk","text":"t","metadata":{}}'
        bad = '{"id":"b","vector":[%s,0.0],"kind":"chunk","text":"t","metadata":{}}' % token
        path.write_text(header + "\n" + good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CorruptStore, match="line 3: .*finite"):
            VectorStore.load(path)

    def test_failed_save_leaves_previous_file(self, tmp_path, monkeypatch):
        import gtr.store as store_module

        store = VectorStore(2, "fp")
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "first"))
        path = tmp_path / "s.jsonl"
        store.save(path)
        before = path.read_bytes()
        store.insert(VectorRecord("b", [0.0, 1.0], "chunk", "second"))
        real_dumps = store_module._dumps

        def failing_dumps(obj):
            if isinstance(obj, dict) and obj.get("text") == "second":
                raise RuntimeError("disk full")
            return real_dumps(obj)

        monkeypatch.setattr(store_module, "_dumps", failing_dumps)
        with pytest.raises(RuntimeError, match="disk full"):
            store.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

        monkeypatch.undo()
        store.save(path)
        assert len(VectorStore.load(path)) == 2
        assert list(tmp_path.iterdir()) == [path]

    def test_duplicate_id_in_file(self, tmp_path):
        path = tmp_path / "s.jsonl"
        header = '{"format":"gtr-store","version":1,"dim":2,"embedder":"fp"}'
        record = '{"id":"a","vector":[1.0,0.0],"kind":"chunk","text":"t","metadata":{}}'
        path.write_text(header + "\n" + record + "\n" + record + "\n", encoding="utf-8")
        with pytest.raises(CorruptStore, match="line 3"):
            VectorStore.load(path)
