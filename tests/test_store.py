import json
import math
import struct
import warnings

import numpy as np
import pytest

import gtr.store as store_module
from gtr.embedding import EmbedderConfig, embed
from gtr.errors import (
    CorruptStore,
    DimensionMismatch,
    DuplicateId,
    InvalidInput,
    ZeroVector,
)
from gtr.store import VectorRecord, VectorStore, cosine
from store_oracles import VectorStore as OracleStore
from store_oracles import as_production, v2_bytes
from store_oracles import cosine as oracle_cosine


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
        with pytest.raises(ZeroVector):
            cosine((), ())

    @pytest.mark.parametrize("u, v, expected", [
        ((1e200, 0.0), (1.0, 0.0), 1.0),
        ((1e-200, 0.0), (1.0, 0.0), 1.0),
        ((5e-324, 0.0), (0.0, -1e308), 0.0),
        ((1e200, 1.0), (1e200, 2.0), 1.0),
        ((-1e300, 0.0), (1e-300, 0.0), -1.0),
        ((1e-160, 0.0), (1e-160, 1e-160), 1 / math.sqrt(2)),
        ((1e-161, 0.0), (1.0, 1.0), 1 / math.sqrt(2)),
    ])
    def test_norms_out_of_float_range(self, u, v, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cosine(u, v) == pytest.approx(expected, abs=1e-15)
            assert cosine(v, u) == pytest.approx(expected, abs=1e-15)

    def test_power_of_two_scaling_keeps_the_bits(self):
        """Scaling by a power of two is exact, so a rescaled pair scores
        bit for bit as the same pair at ordinary magnitude."""
        rng = np.random.default_rng(17)
        for _ in range(40):
            dim = int(rng.integers(1, 400))
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            expected = cosine(u, v).hex()
            for ku, kv in [(1000, 0), (-1000, 0), (1000, 1000), (-540, -540),
                           (-1000, 1000), (600, -600)]:
                assert cosine(np.ldexp(u, ku), np.ldexp(v, kv)).hex() == expected

    def test_in_range_pairs_keep_their_bits(self):
        """Every pair whose arithmetic stays in the normal float range
        scores exactly as the unscaled formula does."""
        rng = np.random.default_rng(19)
        config = EmbedderConfig(dim=64)
        words = ["alpha", "beta", "gamma", "delta", "épsilon", "中文"]
        pairs = []
        for _ in range(400):
            dim = int(rng.choice([1, 2, 3, 7, 64, 384]))
            u = rng.standard_normal(dim) * 10.0 ** rng.uniform(-150, 150)
            v = rng.standard_normal(dim) * 10.0 ** rng.uniform(-150, 150)
            pairs += [(u, v), (u, u.copy()), (u, -u), (u, np.zeros(dim))]
        for _ in range(100):
            a = " ".join(rng.choice(words, size=int(rng.integers(1, 9))))
            b = " ".join(rng.choice(words, size=int(rng.integers(1, 9))))
            pairs.append((embed(a, config), embed(b, config)))
        for u, v in pairs:
            try:
                expected = oracle_cosine(u, v)
            except ZeroVector:
                with pytest.raises(ZeroVector):
                    cosine(u, v)
                continue
            assert cosine(u, v).hex() == expected.hex()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        with pytest.raises(InvalidInput, match="non-finite"):
            cosine((bad, 1.0), (1.0, 1.0))
        with pytest.raises(InvalidInput, match="non-finite"):
            cosine((1.0, 1.0), (1.0, bad))


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
        record = VectorRecord("a", [1.0, bad, 0.0], "chunk", "t")
        with pytest.raises(InvalidInput, match="finite"):
            VectorStore(3, "test").insert(record)

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

    @pytest.mark.filterwarnings("error")
    def test_norms_out_of_float_range(self):
        # Squaring [1e200, 0] overflows and [1e-200, 1e-200] underflows; the
        # store scales such rows, and every query, by a power of two first.
        store = VectorStore(2, "test")
        for rid, vec in [("huge", [1e200, 0.0]), ("tiny", [1e-200, 1e-200]),
                         ("max", [1.7976931348623157e308, -1.7976931348623157e308]),
                         ("zero", [0.0, 0.0]), ("unit", [0.0, 1.0])]:
            store.insert(VectorRecord(rid, vec, "chunk", "t"))
        assert dict(store.query_top_k([1e200, 0.0], 5)) == {
            "huge": 1.0, "tiny": pytest.approx(0.5 ** 0.5), "max": pytest.approx(0.5 ** 0.5),
            "zero": 0.0, "unit": 0.0}
        assert store.query_top_k([1.0, 0.0], 1) == [("huge", 1.0)]
        assert store.query_top_k([1.0, 1.0], 1) == [("tiny", pytest.approx(1.0))]
        assert store.query_top_k([1e-300, -1e-300], 1) == [("max", pytest.approx(1.0))]
        assert store.query_top_k([0.0, 5e-324], 1) == [("unit", 1.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        store = VectorStore(2, "test")
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "t"))
        with pytest.raises(InvalidInput, match="finite"):
            store.query_top_k([1.0, bad], 1)


class TestConcurrentReaders:
    def test_parallel_queries_agree(self):
        # Many readers may hit a freshly built store at once; the first
        # query norms every row. All must see consistent state.
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

    def test_parallel_queries_after_a_batch_of_inserts_agree(self):
        # Readers that start right after a batch of inserts race to norm the
        # new rows; a short switch interval makes them interleave.
        import sys
        import threading

        rng = np.random.default_rng(78)
        store = random_store(rng, 300, 32)
        query = rng.standard_normal(32)
        store.query_top_k(query, 5)
        for i in range(300, 400):
            store.insert(VectorRecord(f"r{i:05d}", rng.standard_normal(32), "chunk", "t"))
        results = [None] * 16
        barrier = threading.Barrier(16, timeout=30)

        def worker(slot):
            barrier.wait()
            results[slot] = store.query_top_k(query, 5)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = store.query_top_k(query, 5)
        assert all(r == expected for r in results)
        naive = brute_force_top_k(store, query, 5)
        assert [rid for rid, _ in expected] == [rid for rid, _ in naive]
        assert all(abs(a - b) <= 1e-12 for (_, a), (_, b) in zip(expected, naive))

    def test_parallel_queries_agree_on_rows_out_of_float_range(self):
        # Readers racing to norm new rows each record the ones they scale;
        # losing one would score that huge or tiny row as NaN or wrongly.
        import sys
        import threading

        rng = np.random.default_rng(79)
        vectors = [rng.standard_normal(16) * (1e200 if i % 7 == 0 else 1e-200 if i % 11 == 0
                                              else 1.0) for i in range(400)]
        store = VectorStore(16, "test")
        for i, vec in enumerate(vectors[:300]):
            store.insert(VectorRecord(f"r{i:05d}", vec, "chunk", "t"))
        query = rng.standard_normal(16)
        store.query_top_k(query, 5)
        for i, vec in enumerate(vectors[300:], start=300):
            store.insert(VectorRecord(f"r{i:05d}", vec, "chunk", "t"))
        results = [None] * 16
        barrier = threading.Barrier(16, timeout=30)

        def worker(slot):
            barrier.wait()
            results[slot] = store.query_top_k(query, 400)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        fresh = VectorStore(16, "test")
        for i, vec in enumerate(vectors):
            fresh.insert(VectorRecord(f"r{i:05d}", vec, "chunk", "t"))
        expected = fresh.query_top_k(query, 400)
        assert all(r == expected for r in results)
        assert all(math.isfinite(score) for _, score in expected)


class TestMatrixStorage:
    def test_get_vector_is_a_read_only_view_of_the_matrix(self):
        store = VectorStore(2, "test")
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "t"))
        vector = store.get("a").vector
        assert np.shares_memory(vector, store._matrix)
        with pytest.raises(ValueError):
            vector[0] = 5.0
        assert store.query_top_k([1.0, 0.0], 1) == [("a", 1.0)]

    def test_insert_copies_the_callers_array(self):
        store = VectorStore(2, "test")
        vec = np.array([1.0, 0.0])
        store.insert(VectorRecord("a", vec, "chunk", "t"))
        vec[0] = -1.0
        assert store.query_top_k([1.0, 0.0], 1) == [("a", 1.0)]

    def test_growth_keeps_values_and_frees_the_old_matrix(self):
        import gc
        import weakref

        rng = np.random.default_rng(4)
        store = VectorStore(5, "test")
        inserted = []
        old_matrix = None
        for i in range(100):
            if len(store) == store._matrix.shape[0]:
                old_matrix = weakref.ref(store._matrix)
            vec = rng.standard_normal(5)
            inserted.append(vec)
            store.insert(VectorRecord(f"r{i}", vec.copy(), "chunk", "t"))
        gc.collect()
        assert old_matrix is not None and old_matrix() is None
        for record, vec in zip(store.records, inserted):
            assert np.shares_memory(record.vector, store._matrix)
            assert np.array_equal(record.vector, vec)
            with pytest.raises(ValueError):
                record.vector[0] = 0.0

    def test_loaded_record_vectors_are_read_only_views(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "s.jsonl"
        random_store(rng, 40, 3).save(path)
        loaded = VectorStore.load(path)
        for record in loaded.records:
            assert np.shares_memory(record.vector, loaded._matrix)
            with pytest.raises(ValueError):
                record.vector[0] = 0.0

    def test_record_handed_out_before_growth_keeps_its_values(self):
        store = VectorStore(3, "test")
        store.insert(VectorRecord("a", [1.0, 2.0, 3.0], "chunk", "t"))
        before = store.get("a")
        for i in range(40):
            store.insert(VectorRecord(f"r{i}", [0.0, 1.0, float(i)], "chunk", "t"))
        assert before.vector.tolist() == [1.0, 2.0, 3.0]
        assert not np.shares_memory(before.vector, store._matrix)

    def test_id_with_trailing_nul_is_returned_whole(self):
        # Ids are compared and returned as Python strings; a NumPy string
        # array would drop the NUL and name the wrong record.
        store = VectorStore(2, "test")
        store.insert(VectorRecord("a\x00", [1.0, 0.0], "chunk", "nul"))
        store.insert(VectorRecord("a", [0.0, 1.0], "chunk", "plain"))
        [(rid, _)] = store.query_top_k([1.0, 0.0], 1)
        assert rid == "a\x00"
        assert store.get(rid).text == "nul"


class TestStoreOwnsItsData:
    """The store copies a record in and builds a new one each time it hands
    one out, so changing any record, before or after, changes neither what
    a query returns nor the bytes a save writes."""

    @staticmethod
    def _records():
        return [VectorRecord("a", np.array([1.0, 0.0]), "chunk", "first", {"k": "v"}),
                VectorRecord("b", np.array([0.6, 0.8]), "table", "second", {"k": "w"})]

    @staticmethod
    def _state(store, path):
        store.save(path)
        return store.query_top_k([1.0, 0.0], 2), path.read_bytes()

    def _store(self, records=None):
        store = VectorStore(2, "test")
        for record in records or self._records():
            store.insert(record)
        return store

    def _untouched(self, tmp_path):
        return self._state(self._store(), tmp_path / "untouched.gtr")

    def test_insert_leaves_the_callers_record_alone(self):
        store = VectorStore(2, "test")
        record, _ = self._records()
        vector, metadata = record.vector, record.metadata
        store.insert(record)
        assert record.vector is vector and record.vector.flags.writeable
        assert record.metadata is metadata

    def test_changing_the_inserted_record_or_array_changes_nothing(self, tmp_path):
        records = self._records()
        vectors = [record.vector for record in records]
        store = self._store(records)
        for record, vector in zip(records, vectors):
            vector[0] = -1.0
            record.text = "changed"
            record.metadata["k"] = "changed"
            record.metadata["new"] = "key"
        assert self._state(store, tmp_path / "s.gtr") == self._untouched(tmp_path)
        assert store.get("a").text == "first" and store.get("a").metadata == {"k": "v"}

    def test_changing_a_record_from_get_changes_nothing(self, tmp_path):
        store = self._store()
        got = store.get("a")
        got.metadata["k"] = "changed"
        got.text = "changed"
        got.vector = np.array([0.0, 1.0])
        assert store.get("a") is not got
        assert self._state(store, tmp_path / "s.gtr") == self._untouched(tmp_path)

    def test_changing_a_record_from_records_changes_nothing(self, tmp_path):
        store = self._store()
        store.records[1].metadata["k"] = "changed"
        for record in store.records:
            record.metadata.clear()
            record.kind = "chunk"
        assert self._state(store, tmp_path / "s.gtr") == self._untouched(tmp_path)

    def test_changing_a_loaded_record_changes_nothing(self, tmp_path):
        store = self._store()
        path = tmp_path / "s.gtr"
        store.save(path)
        loaded = VectorStore.load(path)
        loaded.get("b").metadata["k"] = "changed"
        loaded.records[0].metadata["k"] = "changed"
        assert self._state(loaded, path) == self._untouched(tmp_path)


class TestInsertChecksTheRecord:
    """insert refuses what load refuses, as the record is when it is
    inserted: a record changed after it was made used to get in, and then
    scored NaN or saved a file that load refused or that raised a
    UnicodeEncodeError."""

    @pytest.mark.parametrize("field, value, message", [
        ("vector", np.array([math.nan, 1.0, 0.0, 0.0]), "must be finite"),
        ("vector", np.array([math.inf, 1.0, 0.0, 0.0]), "must be finite"),
        ("vector", np.ones((1, 4)), r"record dim \(1, 4\) vs store dim 4"),
        ("vector", np.ones(3), r"record dim \(3,\) vs store dim 4"),
        ("kind", "bogus", "kind must be one of"),
        ("kind", None, "record kind must be a string, got None"),
        ("id", "", "id must be nonempty"),
        ("id", 5, "record id must be a string, got 5"),
        ("text", b"t", "record text must be a string, got b't'"),
        ("text", "bad \ud800 text", "not valid Unicode"),
        ("metadata", {"k": 3}, "record metadata 'k' must be a string, got 3"),
        ("metadata", {3: "v"}, "record metadata 3 must be a string, got 3"),
        ("metadata", {"k": "\udfff"}, "not valid Unicode"),
        ("metadata", {"\udfff": "v"}, "not valid Unicode"),
        ("metadata", [("k", "v")], "metadata must be a JSON object"),
        ("id", "z", "record id 'z' already present"),
    ])
    def test_changed_record_is_refused_and_store_left_as_it_was(self, tmp_path, field,
                                                                 value, message):
        store = VectorStore(4, "fp")
        store.insert(VectorRecord("z", [0.0, 1.0, 0.0, 0.0], "table", "kept", {"k": "v"}))
        store.save(tmp_path / "before.gtr")
        before = (tmp_path / "before.gtr").read_bytes()
        record = VectorRecord("a", [1.0, 0.0, 0.0, 0.0], "chunk", "t")
        setattr(record, field, value)
        with pytest.raises((InvalidInput, DimensionMismatch, DuplicateId), match=message):
            store.insert(record)
        assert "a" not in store and len(store) == 1
        assert store.query_top_k([1.0, 1.0, 0.0, 0.0], 3) == [("z", pytest.approx(0.5 ** 0.5))]
        store.save(tmp_path / "after.gtr")
        assert (tmp_path / "after.gtr").read_bytes() == before
        store.insert(VectorRecord("a", [1.0, 0.0, 0.0, 0.0], "chunk", "t"))
        assert len(store) == 2


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

    def test_bad_header(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"format":"other"}\n', encoding="utf-8")
        with pytest.raises(CorruptStore, match="line 1"):
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


# A version-2 file written by hand: records a = [1.0, 0.0] and b = [-0.0, 2.0].
V2_HEADER = {"format": "gtr-store", "version": 2, "dim": 2, "embedder": "fp", "count": 2}
V2_LINES = [b'{"id":"a","kind":"chunk","text":"t","metadata":{}}',
            b'{"id":"b","kind":"table","text":"\xc3\xa9","metadata":{"k":"v"}}']
V2_BITMAPS = bytes([0b10000000, 0b11000000])
V2_VALUES = struct.pack("<3d", 1.0, -0.0, 2.0)
DROP = object()


def v2_file(path, header=None, lines=V2_LINES, bitmaps=V2_BITMAPS, values=V2_VALUES):
    """Write a version-2 store from its parts; ``header`` overrides fields
    of ``V2_HEADER`` (``DROP`` removes one)."""
    fields = {**V2_HEADER, **(header or {})}
    fields = {k: v for k, v in fields.items() if v is not DROP}
    head = json.dumps(fields, separators=(",", ":")).encode()
    path.write_bytes(b"".join(line + b"\n" for line in [head, *lines]) + bitmaps + values)
    return path


def nan_with_payload() -> bytes:
    return struct.pack("<Q", 0x7FF0000000000001)


CORRUPT_V2 = [
    ("count missing", dict(header={"count": DROP}), "line 1: bad count None"),
    ("count negative", dict(header={"count": -1}), "line 1: bad count -1"),
    ("count a string", dict(header={"count": "2"}), "line 1: bad count '2'"),
    ("count a bool", dict(header={"count": True}), "line 1: bad count True"),
    ("count past the file", dict(header={"count": 10 ** 15}), "line 1: bad count"),
    ("count one short", dict(header={"count": 1}), "vector block"),
    ("count one over", dict(header={"count": 3}), "line 4: "),
    ("dim changed", dict(header={"dim": 16}), "vector block"),
    ("version unknown", dict(header={"version": 3}), "line 1: unsupported version 3"),
    ("version 1", dict(header={"version": 1}),
     "line 1: unsupported version 1; re-run `gtr ingest` or `gtr tables ingest`"),
    ("line not UTF-8", dict(lines=[V2_LINES[0], V2_LINES[1].replace(b"\xc3\xa9", b"\xe9")]),
     "line 3: not UTF-8"),
    ("line a bare surrogate in UTF-8",
     dict(lines=[V2_LINES[0], V2_LINES[1].replace(b"\xc3\xa9", b"\xed\xa0\x80")]),
     "line 3: not UTF-8"),
    ("line malformed", dict(lines=[b'{"id":"a"', V2_LINES[1]]), "line 2: malformed JSON"),
    ("line blank", dict(lines=[V2_LINES[0], b"", V2_LINES[1]]), "line 3: malformed JSON"),
    ("line not an object", dict(lines=[b'["a"]', V2_LINES[1]]), "line 2: .*JSON object"),
    ("metadata not an object",
     dict(lines=[V2_LINES[0], V2_LINES[1].replace(b'{"k":"v"}', b"[]")]), "line 3: .*metadata"),
    *[(f"{field} missing",
       dict(lines=[V2_LINES[0], json.dumps({k: v for k, v in {
           "id": "b", "kind": "chunk", "text": "u", "metadata": {}}.items()
           if k != field}).encode()]),
       f"line 3: missing field '{field}'")
      for field in ("id", "kind", "text", "metadata")],
    ("bad kind", dict(lines=[V2_LINES[0].replace(b"chunk", b"row"), V2_LINES[1]]),
     "line 2: record kind"),
    ("id a number", dict(lines=[V2_LINES[0].replace(b'"a"', b"5"), V2_LINES[1]]),
     "line 2: record id must be a string, got 5"),
    ("kind null", dict(lines=[V2_LINES[0].replace(b'"chunk"', b"null"), V2_LINES[1]]),
     "line 2: record kind must be a string, got None"),
    ("text a list", dict(lines=[V2_LINES[0].replace(b'"t"', b'["t"]'), V2_LINES[1]]),
     r"line 2: record text must be a string, got \['t'\]"),
    ("metadata value a number",
     dict(lines=[V2_LINES[0], V2_LINES[1].replace(b'"v"', b"1")]),
     "line 3: record metadata 'k' must be a string, got 1"),
    ("unknown field", dict(lines=[V2_LINES[0], V2_LINES[1][:-1] + b',"vector":[1.0]}']),
     "line 3: unknown field 'vector'"),
    ("embedder missing", dict(header={"embedder": DROP}), "line 1: bad embedder None"),
    ("embedder a number", dict(header={"embedder": 7}), "line 1: bad embedder 7"),
    ("header unknown field", dict(header={"extra": 1}), "line 1: unknown field 'extra'"),
    ("lone surrogate", dict(lines=[V2_LINES[0], V2_LINES[1].replace(b"\xc3\xa9", b"\\ud800")]),
     "line 3: not valid Unicode"),
    *[(f"lone surrogate in {where}",
       dict(lines=[V2_LINES[0], V2_LINES[1].replace(good, bad)]), "line 3: not valid Unicode")
      for where, good, bad in [("id", b'"b"', b'"\\ud800"'),
                               ("metadata key", b'"k"', b'"\\ud800"'),
                               ("metadata value", b'"v"', b'"x \\udfff"')]],
    ("integer too long",
     dict(lines=[V2_LINES[0], V2_LINES[1][:-1] + b',"n":1' + b"0" * 4300 + b"}"]),
     "line 3: malformed JSON"),
    ("duplicate id", dict(lines=[V2_LINES[0], V2_LINES[1].replace(b'"b"', b'"a"')]),
     "line 3: record id 'a' already present"),
    ("block missing", dict(bitmaps=b"", values=b""),
     "vector block: truncated, 2 of 2 bytes missing"),
    ("bitmaps short", dict(bitmaps=V2_BITMAPS[:1], values=b""),
     "vector block: truncated, 1 of 2 bytes missing"),
    ("values short", dict(values=V2_VALUES[:-1]),
     "vector block: truncated, 1 of 24 bytes missing"),
    ("value missing", dict(values=V2_VALUES[:16]),
     "vector block: truncated, 8 of 24 bytes missing"),
    ("trailing bytes", dict(values=V2_VALUES + b"\n"), "vector block: trailing bytes"),
    ("NaN", dict(values=V2_VALUES[:8] + struct.pack("<d", math.nan) + V2_VALUES[16:]),
     r"vector block: row 1 \(id 'b'\): a NaN or infinite value"),
    ("NaN payload", dict(values=nan_with_payload() + V2_VALUES[8:]),
     r"vector block: row 0 \(id 'a'\): a NaN or infinite value"),
    ("+inf", dict(values=V2_VALUES[:16] + struct.pack("<d", math.inf)),
     r"row 1 \(id 'b'\): a NaN or infinite value"),
    ("-inf", dict(values=struct.pack("<d", -math.inf) + V2_VALUES[8:]),
     r"row 0 \(id 'a'\): a NaN or infinite value"),
    ("pad bit set", dict(bitmaps=bytes([0b10000001, 0b11000000])),
     r"vector block: row 0 \(id 'a'\): bits set past dim 2"),
    ("+0.0 stored", dict(values=V2_VALUES[:16] + struct.pack("<d", 0.0)),
     r"vector block: row 1 \(id 'b'\): a stored \+0.0"),
]


class TestFormatV2:
    def test_hand_written_file_loads_and_saves_to_the_same_bytes(self, tmp_path):
        path = v2_file(tmp_path / "s.gtr")
        store = VectorStore.load(path)
        assert [(r.id, r.kind, r.text, r.metadata) for r in store.records] == [
            ("a", "chunk", "t", {}), ("b", "table", "é", {"k": "v"})]
        assert store.get("a").vector.tolist() == [1.0, 0.0]
        assert np.signbit(store.get("b").vector).tolist() == [True, False]
        assert store._matrix.shape == (2, 2)  # allocated once, at the count
        store.save(tmp_path / "again.gtr")
        assert (tmp_path / "again.gtr").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("case, parts, message", CORRUPT_V2,
                             ids=[case for case, _, _ in CORRUPT_V2])
    def test_corrupt_file_is_refused_naming_where(self, tmp_path, case, parts, message):
        path = v2_file(tmp_path / "s.gtr", **parts)
        with pytest.raises(CorruptStore, match=message):
            VectorStore.load(path)

    @pytest.mark.parametrize("dim", [1, 3, 8, 13, 64, 385])
    def test_round_trip_is_byte_exact_and_matches_the_layout(self, tmp_path, dim):
        rng = np.random.default_rng(dim)
        store = VectorStore(dim, "fp é")
        vectors = [np.zeros(dim), np.full(dim, -0.0), rng.standard_normal(dim),
                   np.where(rng.random(dim) < 0.2, rng.standard_normal(dim), 0.0),
                   np.full(dim, 5e-324), np.full(dim, -1.7976931348623157e308)]
        for i, vec in enumerate(vectors):
            store.insert(VectorRecord(f"r{i}", vec, "chunk", f"text {i}\n", {"i": str(i)}))
        first, second = tmp_path / "a.gtr", tmp_path / "b.gtr"
        store.save(first)
        assert first.read_bytes() == v2_bytes(dim, "fp é", store.records)
        loaded = VectorStore.load(first)
        for original, reread in zip(store.records, loaded.records, strict=True):
            assert reread.vector.tobytes() == original.vector.tobytes()
            assert (reread.id, reread.kind, reread.text, reread.metadata) == (
                original.id, original.kind, original.text, original.metadata)
        loaded.save(second)
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_empty_store_layout(self, tmp_path):
        path = tmp_path / "s.gtr"
        VectorStore(9, "fp").save(path)
        assert path.read_bytes() == (
            b'{"format":"gtr-store","version":2,"dim":9,"embedder":"fp","count":0}\n')
        loaded = VectorStore.load(path)
        assert (len(loaded), loaded.dim) == (0, 9)
        loaded.insert(VectorRecord("a", np.ones(9), "chunk", "t"))
        assert loaded.query_top_k(np.ones(9), 1) == [("a", 1.0)]

    def test_many_blocks(self, tmp_path):
        # More rows than one read or write block holds: each block's values
        # start where the last block's ended, and errors name the right row.
        rng = np.random.default_rng(8)
        n, dim = 2 * store_module._BLOCK_ROWS + 37, 10
        store = VectorStore(dim, "fp")
        for i in range(n):
            vec = np.where(rng.random(dim) < 0.3, rng.standard_normal(dim), 0.0)
            store.insert(VectorRecord(f"r{i}", vec, "chunk", "t"))
        path = tmp_path / "s.gtr"
        store.save(path)
        assert path.read_bytes() == v2_bytes(dim, "fp", store.records)
        loaded = VectorStore.load(path)
        assert loaded._matrix.tobytes() == store._matrix[:n].tobytes()
        query = rng.standard_normal(dim)
        assert loaded.query_top_k(query, 7) == store.query_top_k(query, 7)

        data = bytearray(path.read_bytes())
        row = store_module._BLOCK_ROWS + 5
        before = sum(int(np.count_nonzero(r.vector)) for r in store.records[:row])
        while not np.count_nonzero(store.records[row].vector):
            row += 1
        values_at = len(data) - 8 * sum(int(np.count_nonzero(r.vector)) for r in store.records)
        offset = values_at + 8 * before
        data[offset:offset + 8] = struct.pack("<d", math.inf)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptStore, match=rf"vector block: row {row} \(id 'r{row}'\)"):
            VectorStore.load(path)

    def test_header_integer_too_long_to_parse_names_line_1(self, tmp_path):
        path = v2_file(tmp_path / "s.gtr")
        path.write_bytes(path.read_bytes().replace(b'"dim":2', b'"dim":1' + b"0" * 4300, 1))
        with pytest.raises(CorruptStore, match="line 1: malformed JSON"):
            VectorStore.load(path)

    def test_v1_store_is_refused_and_its_records_save_as_v2(self, tmp_path):
        rng = np.random.default_rng(12)
        oracle = OracleStore(6, "fp")
        for i in range(40):
            vec = rng.standard_normal(6) if i % 5 else np.array([0.0, -0.0, 1.0, 0.0, 0.0, 0.0])
            oracle.insert(VectorRecord(f"r{i}", vec, "table", f"t é {i}", {"k": str(i)}))
        v1 = tmp_path / "v1.jsonl"
        oracle.save(v1)
        with pytest.raises(CorruptStore, match="line 1: unsupported version 1; re-run `gtr "):
            VectorStore.load(v1)
        v2 = tmp_path / "v2.gtr"
        as_production(OracleStore.load(v1)).save(v2)
        assert v2.read_bytes() == v2_bytes(6, "fp", oracle.records)
        reread = VectorStore.load(v2)
        for original, loaded in zip(oracle.records, reread.records, strict=True):
            assert loaded.vector.tobytes() == original.vector.tobytes()
            assert (loaded.id, loaded.kind, loaded.text, loaded.metadata) == (
                original.id, original.kind, original.text, original.metadata)

    def test_failed_vector_block_write_leaves_previous_file(self, tmp_path, monkeypatch):
        store = VectorStore(2, "fp")
        store.insert(VectorRecord("a", [1.0, 0.0], "chunk", "first"))
        path = tmp_path / "s.gtr"
        store.save(path)
        before = path.read_bytes()
        store.insert(VectorRecord("b", [0.0, 1.0], "chunk", "second"))

        def failing_packbits(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.np, "packbits", failing_packbits)
        with pytest.raises(OSError, match="disk full"):
            store.save(path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
