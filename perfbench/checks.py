"""Output checks, computed apart from the program.

Each check compares what gtr returned with the generator's own truth or
with a computation written here independently: chunk windows from token
counts, hashed bag-of-words vectors from the generator's tokens, a naive
numpy scan for top-k, n-gram counts and a bit-parallel LCS for ROUGE, and
SQL results fetched through the benchmark's own sqlite3 connection. Every
check returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import math
import sqlite3
from collections import Counter
from pathlib import Path

import numpy as np

from . import gen

TOL = 1e-12  # scores and norms
SAS_TOL = 1e-9

_FNV_OFFSET = 0xCBF29CE484222325  # documented seed of the hashed embedder
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


class Truth:
    """Generator-side facts about every document and chunk."""

    def __init__(self, docs: list[gen.Doc], size: int, overlap: int, dim: int):
        self.docs = {d.id: d for d in docs}
        self.size = size
        self.overlap = overlap
        self.dim = dim
        self._buckets: dict[str, int] = {}

    def chunk_tokens(self, record_id: str) -> list[str]:
        doc_id, _, index = record_id.rpartition(":")
        doc = self.docs[doc_id]
        start, end = gen.chunk_windows(len(doc.tokens), self.size, self.overlap)[int(index)]
        return doc.tokens[start:end]

    def bucket(self, token: str) -> int:
        b = self._buckets.get(token)
        if b is None:
            h = _FNV_OFFSET
            for byte in token.encode("utf-8"):
                h = ((h ^ byte) * _FNV_PRIME) & _MASK
            b = self._buckets[token] = h % self.dim
        return b

    def embed(self, tokens: list[str]) -> np.ndarray:
        counts = np.zeros(self.dim)
        for tok in tokens:
            counts[self.bucket(tok.lower())] += 1.0
        return counts / np.linalg.norm(counts)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def check_store_records(records, docs: list[gen.Doc], truth: Truth, sample: int = 200) -> list[str]:
    """Chunk counts, chunk texts and windows, unit norms, and a sample of
    vectors against the hashed bag-of-words computed here."""
    fails = []
    by_doc: dict[str, list] = {}
    for rec in records:
        by_doc.setdefault(rec.metadata["doc_id"], []).append(rec)
    norms = np.linalg.norm(np.vstack([rec.vector for rec in records]), axis=1)
    for row in np.flatnonzero(np.abs(norms - 1.0) > TOL)[:5]:
        fails.append(f"ingest: vector of {records[row].id} is not unit-norm")
    checked = 0
    for doc in docs:
        windows = gen.chunk_windows(len(doc.tokens), truth.size, truth.overlap)
        recs = by_doc.get(doc.id, [])
        if len(recs) != len(windows):
            fails.append(f"ingest: {doc.id} has {len(recs)} chunks, expected {len(windows)}")
            continue
        for i, (rec, (start, end)) in enumerate(zip(recs, windows)):
            if rec.id != f"{doc.id}:{i}":
                fails.append(f"ingest: chunk {i} of {doc.id} has id {rec.id}")
            if rec.text != gen.render(doc.tokens[start:end]):
                fails.append(f"ingest: text of {rec.id} differs from its token window")
            meta = rec.metadata
            if (meta["token_start"], meta["token_end"]) != (str(start), str(end)):
                fails.append(f"ingest: {rec.id} window {meta['token_start']}-"
                             f"{meta['token_end']}, expected {start}-{end}")
            if checked < sample:
                checked += 1
                if not np.allclose(rec.vector, truth.embed(doc.tokens[start:end]),
                                   rtol=0, atol=TOL):
                    fails.append(f"ingest: vector of {rec.id} differs from its hashed tokens")
    return fails


def check_roundtrip(original: Path, copy: Path) -> list[str]:
    if original.read_bytes() != copy.read_bytes():
        return [f"ingest: save -> load -> save of {original.name} is not byte-exact"]
    return []


# ---------------------------------------------------------------------------
# ask
# ---------------------------------------------------------------------------


class NaiveIndex:
    """All record vectors of a store in insertion order, for naive scans."""

    def __init__(self, records):
        self.ids = [r.id for r in records]
        self.matrix = np.vstack([r.vector for r in records])
        self.norms = np.linalg.norm(self.matrix, axis=1)
        self.row = {rid: i for i, rid in enumerate(self.ids)}

    def scores(self, query: np.ndarray, n: int) -> np.ndarray:
        return (self.matrix[:n] @ query) / (self.norms[:n] * np.linalg.norm(query))


def check_topk(retrieved, naive: NaiveIndex, query: np.ndarray, n: int, k: int) -> list[str]:
    """Top-k against a naive scan of the first n records, ties by id.

    The returned ranks must carry the naive scan's scores within TOL, each
    returned score must be that record's naive score within TOL, and records
    the program scored equally must come in ascending id order.
    """
    scores = naive.scores(query, n)
    kk = min(k, n)
    threshold = np.partition(scores, n - kk)[n - kk] - TOL
    candidates = np.flatnonzero(scores >= threshold)
    ids = naive.ids
    cand_ids = np.array([ids[i] for i in candidates])
    order = candidates[np.lexsort((cand_ids, -scores[candidates]))][:kk]
    if len(retrieved) != len(order):
        return [f"ask: {len(retrieved)} results, expected {len(order)}"]
    for j, (rid, score) in enumerate(retrieved):
        row = naive.row.get(rid)
        if row is None or row >= n:
            return [f"ask: rank {j} is {rid}, not among the {n} records visible"]
        if abs(scores[row] - score) > TOL:
            return [f"ask: score of {rid} is {score}, naive scan gives {scores[row]}"]
        if abs(scores[row] - scores[order[j]]) > TOL:
            return [f"ask: rank {j} is {rid}, naive scan ranks {ids[order[j]]} there"]
        if j and (score > retrieved[j - 1][1]
                  or (score == retrieved[j - 1][1] and rid < retrieved[j - 1][0])):
            return [f"ask: ranks {j - 1} and {j} are out of order"]
    return []


def check_answer(trace, truth: Truth) -> list[str]:
    expected = "\n\n".join(gen.render(truth.chunk_tokens(rid)) for rid, _ in trace.retrieved)
    if trace.answer != expected:
        return [f"ask: echo answer to {trace.query!r} differs from the retrieved chunks"]
    return []


# ---------------------------------------------------------------------------
# tables ask and eval sql
# ---------------------------------------------------------------------------


class Oracle:
    """The benchmark's own read-only connections, with results cached per
    (database, SQL) while the database is not written."""

    def __init__(self):
        self.conns: dict[Path, sqlite3.Connection] = {}
        self.cache: dict = {}

    def rows(self, db_path: Path, sql: str):
        key = (db_path, sql)
        if key not in self.cache:
            conn = self.conns.get(db_path)
            if conn is None:
                conn = self.conns[db_path] = sqlite3.connect(
                    f"file:{db_path.as_posix()}?mode=ro", uri=True)
            try:
                self.cache[key] = conn.execute(sql).fetchall()
            except sqlite3.Error:
                self.cache[key] = None
        return self.cache[key]

    def close(self):
        for conn in self.conns.values():
            conn.close()


def _key(row: tuple) -> tuple:
    return tuple((0, 0) if v is None else (1, v) if isinstance(v, (int, float)) else (2, str(v))
                 for v in row)


def same_rows(a: list, b: list, ordered: bool, rel_tol: float = 0.0) -> bool:
    """Row lists equal in order, or as multisets; numbers within rel_tol."""
    if len(a) != len(b):
        return False
    if not ordered:
        a, b = sorted(a, key=_key), sorted(b, key=_key)
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if (isinstance(x, (int, float)) and isinstance(y, (int, float))
                    and not isinstance(x, bool) and not isinstance(y, bool)):
                if not math.isclose(x, y, rel_tol=rel_tol, abs_tol=0.0):
                    return False
            elif x != y:
                return False
    return True


def check_tabular(case: gen.SqlCase, result, expected, db_path: Path, oracle: Oracle) -> list[str]:
    if expected is None:
        expected = oracle.rows(db_path, case.gold)
    if result.truncated:
        return [f"tables ask: result of {case.question!r} was truncated"]
    if expected is None or not same_rows(list(result.rows), [tuple(r) for r in expected],
                                         case.ordered):
        return [f"tables ask: rows of {case.question!r} differ from the SQL run directly"]
    return []


def check_sql_item(case: gen.SqlCase, p: int, item, db_path: Path, oracle: Oracle) -> list[str]:
    fails = []
    pred, planted_em = case.preds[p]
    if item.em != planted_em:
        fails.append(f"eval sql: EM {item.em} for {pred!r}, planted {planted_em}")
    if item.hardness != case.level:
        fails.append(f"eval sql: hardness {item.hardness} for {case.gold!r}, "
                     f"assigned {case.level}")
    gold_rows = oracle.rows(db_path, case.gold)
    pred_rows = oracle.rows(db_path, pred)
    expected_ex = pred_rows is not None and same_rows(gold_rows, pred_rows, case.ordered, 1e-6)
    if item.ex != expected_ex:
        fails.append(f"eval sql: EX {item.ex} for {pred!r}, direct comparison gives "
                     f"{expected_ex}")
    return fails


# ---------------------------------------------------------------------------
# eval text
# ---------------------------------------------------------------------------


def ngram_overlap(cand: list[str], ref: list[str], n: int) -> tuple[int, int, int]:
    c = Counter(zip(*(cand[i:] for i in range(n))))
    r = Counter(zip(*(ref[i:] for i in range(n))))
    return sum((c & r).values()), sum(c.values()), sum(r.values())


def lcs_bits(a: list[str], b: list[str]) -> int:
    """LCS length by the bit-parallel method of Allison and Dix."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for i, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - bin(v).count("1")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def check_text_item(cand: list[str], ref: list[str], result, truth: Truth) -> list[str]:
    fails = []
    cand = [t.lower() for t in cand]
    ref = [t.lower() for t in ref]
    for n, score in ((1, result.rouge1), (2, result.rouge2)):
        overlap, c_total, r_total = ngram_overlap(cand, ref, n)
        if (abs(score.precision - _ratio(overlap, c_total)) > TOL
                or abs(score.recall - _ratio(overlap, r_total)) > TOL):
            fails.append(f"eval text: ROUGE-{n} of {result.question!r} differs from n-gram counts")
    lcs = lcs_bits(cand, ref)
    if (abs(result.rougeL.precision - _ratio(lcs, len(cand))) > TOL
            or abs(result.rougeL.recall - _ratio(lcs, len(ref))) > TOL):
        fails.append(f"eval text: ROUGE-L of {result.question!r} differs from the LCS")
    if cand == ref:
        f1s = [result.rouge1.f1, result.rougeL.f1] + ([result.rouge2.f1] if len(ref) > 1 else [])
        if any(f != 1.0 for f in f1s) or result.sas != 1.0:
            fails.append(f"eval text: identical answer to {result.question!r} scored below 1")
    else:
        expected_sas = float(truth.embed(cand) @ truth.embed(ref))
        if abs(result.sas - expected_sas) > SAS_TOL:
            fails.append(f"eval text: SAS of {result.question!r} is {result.sas}, "
                         f"expected {expected_sas}")
    return fails


# ---------------------------------------------------------------------------
# all of them
# ---------------------------------------------------------------------------


def check_all(session, world) -> list[str]:
    from gtr import store

    spec = session.spec
    out = session.out
    all_docs = world.docs + [d for batch in world.batches for d in batch]
    truth = Truth(all_docs, spec.chunk_size, spec.overlap, session.cfg.dim)
    fails = []

    # On wide and deep the final store was loaded from store_file; on live it
    # wrote store_file, so the round trip starts with a load.
    copy = world.root / "roundtrip.jsonl"
    if spec.name == "live":
        store.VectorStore.load(out.store_file).save(copy)
    else:
        out.final_store.save(copy)
    fails += check_roundtrip(out.store_file, copy)
    fails += check_store_records(out.final_store.records, all_docs, truth)

    naive = NaiveIndex(out.final_store.records)
    for question, trace, visible in out.asks:
        fails += check_topk(trace.retrieved, naive, truth.embed(question.tokens), visible, spec.k)
        fails += check_answer(trace, truth)

    oracle = Oracle()
    try:
        for case, result, expected in out.tabular:
            fails += check_tabular(case, result, expected, world.dbs[case.db_id].path, oracle)
        for case, p, item in out.sql_items:
            fails += check_sql_item(case, p, item, world.dbs[case.db_id].path, oracle)
    finally:
        oracle.close()
    if any(out.gold_errors):
        fails.append(f"eval sql: gold errors {out.gold_errors}")

    for (item, question, cand_ids), result in out.text_items:
        if cand_ids is None:
            cand = question.reference
        else:
            cand = [t for rid in cand_ids for t in truth.chunk_tokens(rid)]
        fails += check_text_item(cand, question.reference, result, truth)

    for db_id, digest in out.db_hashes_before.items():
        if out.db_hashes_after.get(db_id) != digest:
            fails.append(f"tables: database {db_id} changed")

    fails += check_counts(session)
    return fails


def check_counts(session) -> list[str]:
    """Every workflow produced output to check."""
    out = session.out
    missing = [name for name, items in (("ask", out.asks), ("tables ask", out.tabular),
                                        ("eval text", out.text_items),
                                        ("eval sql", out.sql_items)) if not items]
    return [f"{name}: no outputs recorded" for name in missing]
