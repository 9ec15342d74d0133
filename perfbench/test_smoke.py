"""Smoke test of the benchmark: every workload runs at a tiny size and
passes every output check, and each check catches a deliberately wrong
output. Nothing here gates on a timing.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--size", "tiny", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_runs_and_passes_checks(workload):
    result = _run_cli(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _run_cli("live", 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_lists_what_the_code_reports():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(workloads.E2E_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == (
        tracing.TIME_METRICS + tracing.COUNT_METRICS)


@pytest.fixture(scope="module", params=["wide", "live"])
def done(request, tmp_path_factory):
    """A tiny run kept open so its recorded outputs can be corrupted."""
    spec = workloads.TINY[request.param]
    session = workloads.Session(spec, 5, 0.1, tmp_path_factory.mktemp(spec.name), 1)
    world = session.run()
    assert checks.check_all(session, world) == []
    docs = world.docs + [d for b in world.batches for d in b]
    truth = checks.Truth(docs, spec.chunk_size, spec.overlap, session.cfg.dim)
    return session, world, truth


def test_ingest_checks_catch_wrong_chunks(done):
    session, world, truth = done
    records = list(session.out.final_store.records)
    docs = world.docs + [d for b in world.batches for d in b]
    assert checks.check_store_records(records, docs, truth) == []
    first = records[0]
    wrong_text = dataclasses.replace(first, text=first.text + " extra")
    assert checks.check_store_records([wrong_text] + records[1:], docs, truth)
    assert checks.check_store_records(records[1:], docs, truth)
    scaled = dataclasses.replace(first, vector=first.vector * 1.001)
    assert checks.check_store_records([scaled] + records[1:], docs, truth)


def test_roundtrip_check_catches_one_byte(done, tmp_path):
    session, _, _ = done
    original = session.out.store_file
    data = bytearray(original.read_bytes())
    data[-3] ^= 1
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(bytes(data))
    assert checks.check_roundtrip(original, copy)


def test_ask_checks_catch_swapped_ids_and_wrong_answer(done):
    session, _, truth = done
    naive = checks.NaiveIndex(session.out.final_store.records)
    question, trace, visible = next(
        (q, t, n) for q, t, n in session.out.asks
        if len(t.retrieved) > 1 and t.retrieved[0][1] != t.retrieved[1][1])
    query = truth.embed(question.tokens)
    k = session.spec.k
    assert checks.check_topk(trace.retrieved, naive, query, visible, k) == []
    (a, sa), (b, sb), *rest = trace.retrieved
    assert checks.check_topk([(b, sa), (a, sb), *rest], naive, query, visible, k)
    assert checks.check_topk(trace.retrieved[:-1], naive, query, visible, k)
    assert checks.check_answer(dataclasses.replace(trace, answer=trace.answer[:-1]), truth)


def test_tables_check_catches_a_missing_row(done):
    session, world, _ = done
    oracle = checks.Oracle()
    try:
        case, result, expected = next(x for x in session.out.tabular if x[1].rows)
        path = world.dbs[case.db_id].path
        assert checks.check_tabular(case, result, expected, path, oracle) == []
        short = dataclasses.replace(result, rows=result.rows[1:])
        assert checks.check_tabular(case, short, expected, path, oracle)
    finally:
        oracle.close()


def test_eval_sql_checks_catch_flipped_verdicts(done):
    session, world, _ = done
    oracle = checks.Oracle()
    try:
        for case, p, item in session.out.sql_items[:6]:
            path = world.dbs[case.db_id].path
            assert checks.check_sql_item(case, p, item, path, oracle) == []
            for wrong in (dataclasses.replace(item, ex=not item.ex),
                          dataclasses.replace(item, em=not item.em),
                          dataclasses.replace(item, hardness="unknown")):
                assert checks.check_sql_item(case, p, wrong, path, oracle)
    finally:
        oracle.close()


def test_eval_text_checks_catch_wrong_scores(done):
    session, _, truth = done
    from gtr.metrics import RougeScore

    for (item, question, cand_ids), result in session.out.text_items[:6]:
        cand = question.reference if cand_ids is None else [
            t for rid in cand_ids for t in truth.chunk_tokens(rid)]
        ref = question.reference
        assert checks.check_text_item(cand, ref, result, truth) == []
        for field in ("rouge1", "rouge2", "rougeL"):
            score = getattr(result, field)
            off = RougeScore(score.precision + 0.01, score.recall, score.f1)
            wrong = dataclasses.replace(result, **{field: off})
            assert checks.check_text_item(cand, ref, wrong, truth)
        wrong = dataclasses.replace(result, sas=result.sas - 0.01)
        assert checks.check_text_item(cand, ref, wrong, truth)


def test_independent_lcs_matches_dynamic_programming():
    from gtr.metrics import lcs_length

    a = "a b c b d a b x y a".split()
    b = "b d c a b a y x a".split()
    assert checks.lcs_bits(a, b) == lcs_length(a, b) == checks.lcs_bits(b, a)
    assert checks.lcs_bits([], b) == 0


def test_full_size_rounds_give_enough_samples_for_p95():
    for spec in workloads.SPECS.values():
        for name, per_round in spec.samples_per_round().items():
            assert spec.min_rounds * per_round >= workloads.P95_SAMPLES, (spec.name, name)
