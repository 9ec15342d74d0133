"""Grouped SQL scoring against the per-pair scorer it replaced.

``evaluate_suite`` scores the pairs that share a gold and a database
together, parsing and running each distinct statement once.
``sql_oracles.evaluate_suite`` parses and runs both queries of every pair.
Their ``write_jsonl`` bytes must agree on every fixture list, on n-best
suites whose golds have four preds each, and on items that end in errors,
for one job and for two, and for one usable CPU and for four. No database
file may change.
"""

from __future__ import annotations

import hashlib
import random
import re
import sqlite3
from dataclasses import asdict

import pytest

import sql_oracles as oracle
from fixtures_sql import (
    ALL_EM_QUERIES,
    EM_CASES,
    EX_CASES,
    HARDNESS_CASES,
    REFORMULATION_CASES,
    TABULAR_QUESTIONS,
)
from gtr.sqleval import evaluate_suite, suite

from conftest import build_toy_db

_LITERAL_RE = re.compile(r"'[^']*'|\b\d+\b")


@pytest.fixture(scope="module")
def db_dir(tmp_path_factory):
    # Two layouts and two databases whose rows differ, so one gold scores
    # differently on each.
    root = tmp_path_factory.mktemp("databases")
    (root / "concerts").mkdir()
    build_toy_db(root / "concerts" / "concerts.sqlite")
    build_toy_db(root / "fewer.db")
    conn = sqlite3.connect(root / "fewer.db")
    try:
        conn.execute("DELETE FROM singer WHERE country = 'France' AND age < 42")
        conn.commit()
    finally:
        conn.close()
    return root


def _hashes(db_dir) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(db_dir.rglob("*")) if path.is_file()}


def _pairs(golds_and_preds, db_ids=("concerts",)):
    return [{"question": "", "gold": gold, "pred": pred, "db_id": db_id}
            for db_id in db_ids for pred, gold in golds_and_preds]


def _literal_variant(sql: str, k: int) -> str:
    def bump(m):
        text = m.group()
        return f"'{text[1:-1]}{'x' * k}'" if text.startswith("'") else str(int(text) + k)
    return _LITERAL_RE.sub(bump, sql)


def _broken(sql: str, fails_to_parse: bool) -> str:
    """A pred that fails to parse, or that parses and fails to run."""
    if fails_to_parse:
        return re.sub(r"\bselect\b", "SELEC", sql, count=1, flags=re.I)
    return re.sub(r"\bfrom\s+(\w+)", r"FROM \1_gone", sql, count=1, flags=re.I)


def _nbest(golds, seed) -> list[dict]:
    """Four preds per gold, on each database: its own text, two literal
    variants, and a pred that fails to parse (even golds) or to run (odd
    golds); shuffled so groups interleave."""
    pairs = []
    for i, gold in enumerate(golds):
        preds = [gold, _literal_variant(gold, 1), _literal_variant(gold, 2),
                 _broken(gold, i % 2 == 0)]
        for db_id in ("concerts", "fewer"):
            pairs += [{"question": f"q{i}", "gold": gold, "pred": pred, "db_id": db_id}
                      for pred in preds]
    random.Random(seed).shuffle(pairs)
    return pairs


# Fixture golds that hold a literal and a table.
_LITERAL_GOLDS = sorted(
    gold
    for gold in {g for _, g, *_ in (*EM_CASES, *EX_CASES, *REFORMULATION_CASES)}
    | {sql for sql, _ in TABULAR_QUESTIONS.values()}
    if _LITERAL_RE.search(gold) and re.search(r"\bfrom\b", gold, re.I)
)

SUITES = {
    "em_cases": _pairs([(p, g) for p, g, _, _ in EM_CASES]),
    "ex_cases": _pairs([(p, g) for p, g, _, _ in EX_CASES], ("concerts", "fewer")),
    "reformulation_cases": _pairs([(p, g) for p, g, _ in REFORMULATION_CASES]),
    "hardness_cases": _pairs([(sql, sql) for sql, _, _ in HARDNESS_CASES]),
    "all_em_queries": _pairs([(q, q) for q in ALL_EM_QUERIES]),
    "tabular_questions": [
        {"question": q, "gold": sql, "pred": sql, "db_id": "concerts"}
        for q, (sql, _) in TABULAR_QUESTIONS.items()
    ],
    "nbest": _nbest(_LITERAL_GOLDS, seed=1),
    "nbest_one_gold": _nbest(["SELECT name FROM singer WHERE age > 30"], seed=2)[:4],
    "errors": _nbest([
        "SELECT nope FROM nowhere",  # parses, fails to run
        "SELECT name || 'x' FROM singer WHERE age > 30",  # runs, does not parse
        "SELEC name FROM singer",  # neither
    ], seed=3) + [
        {"question": "", "gold": "SELECT 1", "pred": "SELECT 1", "db_id": "ghost"},
        {"question": "", "gold": "SELECT 1", "pred": "SELEC 1", "db_id": "ghost"},
        {"question": "", "gold": "SELECT 2", "pred": "SELECT 2", "db_id": "../concerts"},
        {"question": "", "gold": "SELECT name FROM singer",
         "pred": "DELETE FROM singer", "db_id": "concerts"},
        {"question": "", "gold": "SELECT name FROM singer",
         "pred": "DROP TABLE singer", "db_id": "fewer"},
    ],
}


def test_the_nbest_suites_hold_what_they_claim(db_dir):
    pairs = SUITES["nbest"]
    golds = {p["gold"] for p in pairs}
    assert len(golds) >= 20 and len(pairs) == 8 * len(golds)
    # Every gold has a literal, so its variants are other texts.
    assert sum(p["pred"] == p["gold"] for p in pairs) == 2 * len(golds)
    assert len({(p["gold"], p["pred"]) for p in pairs}) == 4 * len(golds)
    items = evaluate_suite(pairs, db_dir).items
    assert {item.ex for item in items} == {True, False}
    unparsed = [item for item in items if item.pred == _broken(item.gold, True)]
    assert unparsed and all("pred parse error" in item.error for item in unparsed)
    unrun = [item for item in items if item.pred == _broken(item.gold, False)]
    assert unrun and all(item.error is None and item.ex is False for item in unrun)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_report_bytes_equal_the_per_pair_scorer(db_dir, tmp_path, name, jobs):
    pairs = SUITES[name]
    before = _hashes(db_dir)
    expected = oracle.evaluate_suite(pairs, db_dir)
    assert _hashes(db_dir) == before
    report = evaluate_suite(pairs, db_dir, jobs=jobs)
    assert _hashes(db_dir) == before
    expected.write_jsonl(tmp_path / "oracle.jsonl")
    report.write_jsonl(tmp_path / "grouped.jsonl")
    assert (tmp_path / "grouped.jsonl").read_bytes() == (tmp_path / "oracle.jsonl").read_bytes()
    assert report.format_summary() == expected.format_summary()


def test_report_bytes_do_not_depend_on_jobs_or_cpus(db_dir, tmp_path, monkeypatch):
    # Every suite in one call, so groups of several golds, databases and
    # errors are spread over the threads.
    pairs = [p for name in sorted(SUITES) for p in SUITES[name]]
    oracle.evaluate_suite(pairs, db_dir).write_jsonl(tmp_path / "oracle.jsonl")
    expected = (tmp_path / "oracle.jsonl").read_bytes()
    for cpus in (1, 4):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus, raising=False)
        for jobs in (1, 2, 4):
            evaluate_suite(pairs, db_dir, jobs=jobs).write_jsonl(tmp_path / "got.jsonl")
            assert (tmp_path / "got.jsonl").read_bytes() == expected, (cpus, jobs)


def test_the_error_suite_reaches_every_error(db_dir):
    errors = {reason.split(":")[0]
              for item in evaluate_suite(SUITES["errors"], db_dir).items
              for reason in (item.error or "").split("; ")}
    assert {"gold query failed", "gold parse error", "pred parse error",
            "database not found for db_id 'ghost'",
            "database not found for db_id '../concerts'"} <= errors


@pytest.mark.parametrize("jobs", [1, 2])
def test_lone_surrogates_score_as_the_per_pair_scorer(db_dir, jobs):
    # write_jsonl cannot encode a lone surrogate, so compare the items.
    lone = "SELECT name FROM singer WHERE name = 'a\ud800'"
    pairs = _nbest([lone, "SELECT name FROM singer WHERE name = 'a'"], seed=4)
    pairs += [dict(p, pred=lone) for p in pairs]
    before = _hashes(db_dir)
    got = [asdict(item) for item in evaluate_suite(pairs, db_dir, jobs=jobs).items]
    assert got == [asdict(item) for item in oracle.evaluate_suite(pairs, db_dir).items]
    assert _hashes(db_dir) == before
    assert {item["ex"] for item in got} == {None, False, True}
