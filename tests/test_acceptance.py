"""Acceptance gate: one test per release criterion, each printing a
pass line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from independent oracles implemented here (fsum
arithmetic, naive full scans, memoized-recursion LCS) or were derived by
hand in the fixture corpora; nothing is asserted against the code path it
checks.
"""

import hashlib
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from gtr.chunking import Document
from gtr.embedding import EmbedderConfig, embed
from gtr.llm import LlmConfig
from gtr.metrics import rouge_l
from gtr.pipeline import Query, answer, ingest
from gtr.sqleval import (
    classify_hardness,
    component_counts,
    evaluate_suite,
    exact_set_match,
    execution_accuracy,
    parse_sql,
)
from gtr.store import VectorRecord, VectorStore, cosine
from gtr.tables import answer_tabular, index_tables, profile_tables, select_tables

from conftest import build_toy_db
from fixtures_sql import (
    ALL_EM_QUERIES,
    EM_CASES,
    EX_CASES,
    HARDNESS_CASES,
    TABULAR_QUESTIONS,
)


def fsum_cosine(u, v):
    dot = math.fsum(float(x) * float(y) for x, y in zip(u, v))
    nu = math.sqrt(math.fsum(float(x) * float(x) for x in u))
    nv = math.sqrt(math.fsum(float(y) * float(y) for y in v))
    return dot / (nu * nv)


def naive_scan(store, query, k, exact=True):
    scored = []
    for record in store.records:
        if exact:
            score = fsum_cosine(query, record.vector)
        else:
            qn = float(np.linalg.norm(query))
            rn = float(np.linalg.norm(record.vector))
            score = float(np.dot(record.vector, query)) / (rn * qn)
        scored.append((record.id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


def test_criterion_01_vector_search_oracle():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    sizes = [int(rng.integers(5, 151)) for _ in range(185)]
    sizes += [int(rng.integers(1000, 10001)) for _ in range(15)]
    for store_index, n in enumerate(sizes):
        dim = int(rng.integers(8, 385))
        store = VectorStore(dim, "bench")
        matrix = rng.standard_normal((n, dim))
        for i in range(n):
            store.insert(VectorRecord(f"r{i:05d}", matrix[i], "chunk", ""))
        query = rng.standard_normal(dim)
        k = int(rng.integers(1, min(10, n) + 1))
        got = store.query_top_k(query, k)
        expected = naive_scan(store, query, k, exact=n <= 150)
        assert [rid for rid, _ in got] == [rid for rid, _ in expected], store_index
        for (_, a), (_, b) in zip(got, expected):
            assert abs(a - b) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: top-k matches naive scan on 200 stores "
          f"({elapsed:.1f}s)")


def test_criterion_02_cosine_fixtures():
    fixed = cosine((1, 2, 3), (4, 6, 6))
    assert abs(fixed - fsum_cosine((1, 2, 3), (4, 6, 6))) <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(2, 64))
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        assert abs(cosine(u, v) - fsum_cosine(u, v)) <= 1e-12
        assert cosine(u, u) == 1.0
    assert cosine((1.0, 0.0), (0.0, 1.0)) == 0.0
    print("\n[PASS] criterion 2: cosine matches direct arithmetic "
          "(identity 1.0, orthogonal 0.0 exact)")


def test_criterion_03_rouge_l_oracle():
    def oracle_lcs(a, b):
        @lru_cache(maxsize=None)
        def go(i, j):
            if i == len(a) or j == len(b):
                return 0
            if a[i] == b[j]:
                return 1 + go(i + 1, j + 1)
            return max(go(i + 1, j), go(i, j + 1))

        return go(0, 0)

    import random

    rng = random.Random(99)
    vocab = list("abcdef")
    for _ in range(1000):
        a_tokens = rng.choices(vocab, k=rng.randint(0, 20))
        b_tokens = rng.choices(vocab, k=rng.randint(0, 20))
        a = " ".join(a_tokens)
        b = " ".join(b_tokens)
        lcs = oracle_lcs(tuple(a_tokens), tuple(b_tokens))
        score = rouge_l(a, b)
        expected_p = lcs / len(a_tokens) if a_tokens else 0.0
        expected_r = lcs / len(b_tokens) if b_tokens else 0.0
        assert score.precision == expected_p  # exact rational equality
        assert score.recall == expected_r
        assert score.precision == rouge_l(b, a).recall
    print("\n[PASS] criterion 3: rouge-l equals memoized-recursion LCS on "
          "1000 pairs, with precision/recall duality")


def test_criterion_04_gtr_echo_end_to_end(tmp_path):
    config = EmbedderConfig(dim=96)
    text = " ".join(f"token{i} filler{i} extra{i}" for i in range(10))  # 30 tokens
    store = ingest(
        [Document("fixture", text)],
        chunk_size=10,
        overlap=0,
        embedder_config=config,
        store_path=tmp_path / "s.jsonl",
    )
    assert len(store) == 3
    trace = answer(
        Query("token4 filler4"),
        store,
        k=1,
        embedder_config=config,
        llm_config=LlmConfig(backend="echo_context"),
    )
    rank1_text = store.get(trace.retrieved[0][0]).text
    assert trace.answer == rank1_text  # byte-for-byte
    score = rouge_l(trace.answer, rank1_text)
    assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
    print("\n[PASS] criterion 4: echo answer equals rank-1 chunk exactly; "
          "rouge-l 1.0")


def test_criterion_05_exact_match_suite():
    assert len(EM_CASES) >= 30
    for pred, gold, expected, label in EM_CASES:
        assert exact_set_match(pred, gold).match is expected, label
    for sql in ALL_EM_QUERIES:
        assert exact_set_match(sql, sql).match, sql
    print(f"\n[PASS] criterion 5: {len(EM_CASES)} exact-set-match verdicts "
          f"agree; reflexive on {len(ALL_EM_QUERIES)} queries")


def test_criterion_06_execution_suite(tmp_path):
    db = tmp_path / "concerts.sqlite"
    build_toy_db(db)
    before = hashlib.sha256(db.read_bytes()).hexdigest()
    assert len(EX_CASES) >= 20
    for pred, gold, expected, label in EX_CASES:
        assert execution_accuracy(pred, gold, db) is expected, label
    assert hashlib.sha256(db.read_bytes()).hexdigest() == before
    print(f"\n[PASS] criterion 6: {len(EX_CASES)} execution-accuracy verdicts "
          "agree; database file hash unchanged")


def test_criterion_07_tabular_end_to_end(tmp_path):
    db = tmp_path / "concerts.sqlite"
    build_toy_db(db)
    config = EmbedderConfig(dim=128)
    store = index_tables(profile_tables(db), config)
    llm = LlmConfig(
        backend="template_sql",
        sql_templates={q: sql for q, (sql, _) in TABULAR_QUESTIONS.items()},
    )
    assert len(TABULAR_QUESTIONS) == 10
    for question, (sql, expected_rows) in TABULAR_QUESTIONS.items():
        result = answer_tabular(
            Query(question), db, store, embedder_config=config, llm_config=llm
        )
        assert result.trace.answer == sql
        assert result.result.rows == expected_rows, question
        rank1 = select_tables(Query(question), store, 1, embedder_config=config)
        oracle = naive_scan(store, embed(question, config), 1)
        assert rank1[0][0] == oracle[0][0], question
    print("\n[PASS] criterion 7: 10 tabular questions answered correctly; "
          "table selection matches the scan oracle")


def test_criterion_08_hardness_and_report_shape(tmp_path):
    assert len(HARDNESS_CASES) == 12
    for sql, level, counts in HARDNESS_CASES:
        q = parse_sql(sql)
        assert component_counts(q) == counts, sql
        assert classify_hardness(q) == level, sql
    db_dir = tmp_path / "dbs"
    (db_dir / "concerts").mkdir(parents=True)
    build_toy_db(db_dir / "concerts" / "concerts.sqlite")
    pairs = [
        {"question": "", "gold": sql, "pred": sql, "db_id": "concerts"}
        for sql, _, _ in HARDNESS_CASES
    ]
    report = evaluate_suite(pairs, db_dir)
    breakdown = report.per_hardness()
    assert set(breakdown) == {"easy", "medium", "hard", "extra"}
    for level, stats in breakdown.items():
        assert set(stats) == {"count", "em", "ex"}
        assert stats["count"] == 3
        assert stats["em"] == 1.0 and stats["ex"] == 1.0
    print("\n[PASS] criterion 8: 12 difficulty fixtures match hand counts; "
          "per-level em/ex report complete")


def test_criterion_09_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(55)
    store = VectorStore(32, "hashed_bow:32:cbf29ce484222325")
    for i in range(100):
        store.insert(
            VectorRecord(
                f"rec{i:03d}",
                rng.standard_normal(32),
                "chunk" if i % 3 else "table",
                f"text {i} café",
                {"i": str(i)},
            )
        )
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    store.save(first)
    loaded = VectorStore.load(first)
    for original, reread in zip(store.records, loaded.records):
        assert original.id == reread.id
        assert np.array_equal(original.vector, reread.vector)
        assert original.text == reread.text
        assert original.metadata == reread.metadata
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    print("\n[PASS] criterion 9: 100-record store round-trips byte-identically")


def test_criterion_10_query_performance_floor():
    rng = np.random.default_rng(123)
    n, dim = 100_000, 384
    matrix = rng.standard_normal((n, dim))
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    store = VectorStore(dim, "bench")
    for i in range(n):
        store.insert(VectorRecord(f"v{i:06d}", matrix[i], "chunk", ""))
    query = rng.standard_normal(dim)
    store.query_top_k(query, 1)  # norm the rows

    def bench():
        return min(
            _timed(lambda: store.query_top_k(rng.standard_normal(dim), 1))
            for _ in range(5)
        )

    try:
        # Hold BLAS to one thread so the floor is honestly single-threaded.
        from threadpoolctl import threadpool_limits

        with threadpool_limits(limits=1):
            best = bench()
        mode = "single-threaded"
    except ImportError:
        best = bench()
        mode = "default threading"
    assert best < 0.100, f"top-1 over {n} records took {best * 1000:.1f} ms"
    print(f"\n[PASS] criterion 10: top-1 over 100k records in "
          f"{best * 1000:.1f} ms ({mode}, < 100 ms)")


def _timed(fn):
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started
