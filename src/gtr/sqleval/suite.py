"""Batch SQL evaluation: per-item EM, EX, and difficulty, with aggregates.

Input files follow the usual text-to-SQL layout: one query per line, with a
tab-separated database id on each gold line. Databases resolve inside a
directory as ``<db_id>/<db_id>.sqlite``, ``<db_id>.sqlite``, or
``<db_id>.db``.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import EvalError, GtrError, InvalidInput, ParseError, read_lines
from .exact_match import compare_clauses
from .execution import execution_accuracy
from .hardness import classify_hardness
from .parser import HARDNESS_LEVELS, parse_sql


@dataclass
class SqlEvalItem:
    question: str
    db_id: str
    gold: str
    pred: str
    hardness: str | None
    em: bool
    ex: bool | None  # None when gold failed to execute
    em_clauses: dict[str, bool] = field(default_factory=dict)
    error: str | None = None


@dataclass
class SqlEvalReport:
    items: list[SqlEvalItem]

    def summary(self) -> dict:
        n = len(self.items)
        scored_ex = [i for i in self.items if i.ex is not None]
        return {
            "count": n,
            "em": sum(i.em for i in self.items) / n,
            "ex": (sum(i.ex for i in scored_ex) / len(scored_ex)) if scored_ex else 0.0,
            "ex_scored": len(scored_ex),
            "gold_errors": sum(1 for i in self.items if i.ex is None),
        }

    def per_hardness(self) -> dict:
        buckets: dict[str, list[SqlEvalItem]] = {}
        for item in self.items:
            buckets.setdefault(item.hardness or "unknown", []).append(item)
        out = {}
        for level in (*HARDNESS_LEVELS, "unknown"):
            group = buckets.get(level)
            if not group:
                continue
            scored_ex = [i for i in group if i.ex is not None]
            out[level] = {
                "count": len(group),
                "em": sum(i.em for i in group) / len(group),
                "ex": (sum(i.ex for i in scored_ex) / len(scored_ex))
                if scored_ex
                else 0.0,
            }
        return out

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for item in self.items:
                f.write(json.dumps(asdict(item), ensure_ascii=False) + "\n")

    def format_summary(self) -> str:
        overall = self.summary()
        lines = [
            f"{'level':<10}{'count':>7}{'em':>8}{'ex':>8}",
        ]
        for level, stats in self.per_hardness().items():
            lines.append(
                f"{level:<10}{stats['count']:>7}{stats['em']:>8.3f}{stats['ex']:>8.3f}"
            )
        lines.append(
            f"{'all':<10}{overall['count']:>7}{overall['em']:>8.3f}{overall['ex']:>8.3f}"
        )
        if overall["gold_errors"]:
            lines.append(
                f"(excluded {overall['gold_errors']} item(s) with failing gold "
                "queries from EX)"
            )
        return "\n".join(lines)


def resolve_db_path(db_dir: str | Path, db_id: str) -> Path | None:
    db_dir = Path(db_dir)
    for candidate in (
        db_dir / db_id / f"{db_id}.sqlite",
        db_dir / f"{db_id}.sqlite",
        db_dir / f"{db_id}.db",
    ):
        if candidate.is_file():
            return candidate
    return None


def _evaluate_one(pair: dict, db_dir: str | Path, timeout_ms: int) -> SqlEvalItem:
    gold = pair["gold"]
    pred = pair["pred"]
    item = SqlEvalItem(
        question=pair.get("question", ""),
        db_id=pair["db_id"],
        gold=gold,
        pred=pred,
        hardness=None,
        em=False,
        ex=None,
    )
    try:
        gold_cs = parse_sql(gold)
        item.hardness = classify_hardness(gold_cs)
    except ParseError as e:
        gold_cs = None
        item.error = f"gold parse error: {e}"
    try:
        pred_cs = parse_sql(pred)
    except ParseError as e:
        pred_cs = None
        item.error = item.error or f"pred parse error: {e}"
    if gold_cs is not None and pred_cs is not None:
        item.em_clauses = compare_clauses(pred_cs, gold_cs)
        item.em = all(item.em_clauses.values())

    db_path = resolve_db_path(db_dir, item.db_id)
    if db_path is None:
        item.error = f"database not found for db_id {item.db_id!r}"
        return item
    try:
        item.ex = execution_accuracy(pred, gold, db_path, timeout_ms=timeout_ms)
    except EvalError as e:
        item.error = str(e)
    except GtrError as e:  # defensive: executor errors on pred score False
        item.ex = False
        item.error = str(e)
    return item


def evaluate_suite(
    pairs: list[dict],
    db_dir: str | Path,
    *,
    jobs: int | None = None,
    timeout_ms: int = 30_000,
) -> SqlEvalReport:
    """Score every {question, pred, gold, db_id} pair; never aborts mid-suite.

    Item-level failures (parse errors, missing databases, failing gold
    queries) are recorded on the item. EX for items whose gold query fails
    is None and excluded from the aggregate.

    Raises:
        InvalidInput: empty pair list, a pair missing a required key, or
            jobs below 1 (None means the CPU count).
    """
    if jobs is not None and jobs < 1:
        raise InvalidInput(f"jobs must be positive or None, got {jobs}")
    if not pairs:
        raise InvalidInput("need at least one (pred, gold) pair to evaluate")
    for i, pair in enumerate(pairs):
        for key in ("pred", "gold", "db_id"):
            if key not in pair:
                raise InvalidInput(f"pair {i} is missing {key!r}")
    jobs = jobs or os.cpu_count() or 1
    if jobs == 1 or len(pairs) == 1:
        items = [_evaluate_one(p, db_dir, timeout_ms) for p in pairs]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            items = list(
                pool.map(lambda p: _evaluate_one(p, db_dir, timeout_ms), pairs)
            )
    return SqlEvalReport(items)


def load_sql_lines(path: str | Path) -> list[tuple[str, str | None]]:
    """Read (sql, db_id) per nonempty line of a UTF-8 file; db_id is the
    tab-separated tail. A byte that is not UTF-8 is named by line number."""
    out = []
    for line in read_lines(path, "sql"):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        sql, sep, db_id = line.partition("\t")
        out.append((sql.strip(), db_id.strip() if sep else None))
    return out


def load_pairs(gold_path: str | Path, pred_path: str | Path) -> list[dict]:
    """Pair up gold and pred files line by line (the gold file carries db ids).

    Raises:
        InvalidInput: length mismatch, or a gold line without a db id.
    """
    gold_lines = load_sql_lines(gold_path)
    pred_lines = load_sql_lines(pred_path)
    if len(gold_lines) != len(pred_lines):
        raise InvalidInput(
            f"gold has {len(gold_lines)} queries but pred has {len(pred_lines)}"
        )
    pairs = []
    for i, ((gold, db_id), (pred, _)) in enumerate(zip(gold_lines, pred_lines), 1):
        if not db_id:
            raise InvalidInput(f"{gold_path}: line {i} is missing its tab-separated db_id")
        pairs.append({"question": "", "gold": gold, "pred": pred, "db_id": db_id})
    return pairs
