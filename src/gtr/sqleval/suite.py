"""Batch SQL evaluation: per-item EM, EX, and difficulty, with aggregates.

Input files follow the usual text-to-SQL layout: one query per line, with a
tab-separated database id on each gold line. Databases resolve inside a
directory as ``<db_id>/<db_id>.sqlite``, ``<db_id>.sqlite``, or
``<db_id>.db``; a db_id must be a plain name. Pairs that share a gold and a
database are scored together by one execution_verdicts call, so each
distinct statement runs once per group.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cache
from pathlib import Path

from ..errors import EvalError, InvalidInput, read_lines, write_json_lines
from .exact_match import compare_clauses, parse_or_error
from .execution import EVAL_TIMEOUT_MS, execution_verdicts
from .hardness import HARDNESS_LEVELS, classify_hardness

log = logging.getLogger("gtr")


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


def _rates(items: list[SqlEvalItem]) -> dict:
    """The item count, EM over every item, and EX over those whose gold ran."""
    ran = [i.ex for i in items if i.ex is not None]
    ex = sum(ran) / len(ran) if ran else 0.0
    return {"count": len(items), "em": sum(i.em for i in items) / len(items), "ex": ex}


@dataclass
class SqlEvalReport:
    items: list[SqlEvalItem]

    def summary(self) -> dict:
        if not self.items:
            raise InvalidInput("cannot summarize an empty SqlEvalReport")
        scored = sum(i.ex is not None for i in self.items)
        return {**_rates(self.items), "ex_scored": scored, "gold_errors": len(self.items) - scored}

    def per_hardness(self) -> dict:
        buckets: dict[str, list[SqlEvalItem]] = {}
        for item in self.items:
            buckets.setdefault(item.hardness or "unknown", []).append(item)
        out = {}
        for level in (*HARDNESS_LEVELS, "unknown"):
            group = buckets.get(level)
            if group:
                out[level] = _rates(group)
        return out

    def write_jsonl(self, path: str | Path) -> None:
        """One JSON line per item; see errors.write_json_lines."""
        write_json_lines(path, (asdict(item) for item in self.items))

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
    """The database file for db_id inside db_dir, or None.

    Only a plain name resolves: an empty id, ``.``, ``..``, or one holding
    ``/``, ``\\`` or NUL could name a file outside db_dir, and resolves to
    None.
    """
    if db_id in ("", ".", "..") or any(c in db_id for c in "/\\\0"):
        return None
    db_dir = Path(db_dir)
    for candidate in (
        db_dir / db_id / f"{db_id}.sqlite",
        db_dir / f"{db_id}.sqlite",
        db_dir / f"{db_id}.db",
    ):
        if candidate.is_file():
            return candidate
    return None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    CPU count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _evaluate_group(
    gold: str, db_id: str, pairs: list[dict], db_path: Path | None, timeout_ms: int
) -> list[SqlEvalItem]:
    """Score the pairs that share one gold and db_id, whose database file is
    db_path (None when db_id resolves to none).

    Each distinct text is parsed at most once, so a pred equal to its gold
    reuses the gold's parse; the parses are dropped when the group is
    scored. EX is one execution_verdicts call over the group's preds, which
    runs each distinct statement once. EX ordering is read from the gold's
    parse; only a gold that fails to parse is lexed again for it. An item's
    error keeps each of its reasons in the order they arose, joined by "; ".
    """
    parse = cache(parse_or_error)
    gold_cs, gold_error = parse(gold)
    hardness = None if gold_cs is None else classify_hardness(gold_cs)
    items = []
    for pair in pairs:
        item = SqlEvalItem(
            question=pair.get("question", ""),
            db_id=db_id,
            gold=gold,
            pred=pair["pred"],
            hardness=hardness,
            em=False,
            ex=None,
        )
        if gold_error is not None:
            item.error = f"gold parse error: {gold_error}"
        else:
            pred_cs, pred_error = parse(item.pred)
            if pred_error is not None:
                item.error = f"pred parse error: {pred_error}"
            else:
                item.em_clauses = compare_clauses(pred_cs, gold_cs)
                item.em = all(item.em_clauses.values())
        items.append(item)

    reason = f"database not found for db_id {db_id!r}"
    if db_path is not None:
        try:
            verdicts = execution_verdicts(
                gold, [item.pred for item in items], db_path, timeout_ms,
                ordered=None if gold_cs is None else gold_cs.ordered,
            )
        except EvalError as e:
            reason = str(e)
        else:
            for item, ex in zip(items, verdicts):
                item.ex = ex
            return items
    for item in items:
        item.error = "; ".join(filter(None, (item.error, reason)))
    return items


def evaluate_suite(
    pairs: list[dict],
    db_dir: str | Path,
    *,
    jobs: int = 1,
    timeout_ms: int = EVAL_TIMEOUT_MS,
) -> SqlEvalReport:
    """Score every {question, pred, gold, db_id} pair; never aborts mid-suite.

    Pairs are scored in groups that share a gold and a db_id (see
    _evaluate_group), each db_id resolved once. Groups run on as many
    threads as the least of jobs, the group count and the CPUs the process
    may use; when that is 1, they run inline and no thread pool starts.
    Items come back in input order.

    Item-level failures (parse errors, missing databases, failing gold
    queries) are recorded on the item. EX for items whose gold query fails
    or whose database is not found is None and excluded from the
    aggregate; each such item logs one INFO record naming its pair index.

    Raises:
        InvalidInput: empty pair list, a pair missing a required key, or
            jobs below 1.
    """
    if jobs < 1:
        raise InvalidInput(f"jobs must be positive, got {jobs}")
    if not pairs:
        raise InvalidInput("need at least one (pred, gold) pair to evaluate")
    for i, pair in enumerate(pairs):
        for key in ("pred", "gold", "db_id"):
            if key not in pair:
                raise InvalidInput(f"pair {i} is missing {key!r}")
    groups: dict[tuple[str, str], list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault((pair["gold"], pair["db_id"]), []).append(i)

    db_ids = {db_id for _, db_id in groups}
    db_paths = {db_id: resolve_db_path(db_dir, db_id) for db_id in db_ids}

    def score(group: tuple[tuple[str, str], list[int]]) -> list[SqlEvalItem]:
        (gold, db_id), indices = group
        return _evaluate_group(
            gold, db_id, [pairs[i] for i in indices], db_paths[db_id], timeout_ms
        )

    cpus = _usable_cpus()
    threads = min(jobs, len(groups), cpus)
    log.debug("sql eval: %d pairs in %d groups on %d thread(s), the least of "
              "jobs %d, the group count and %d usable CPUs",
              len(pairs), len(groups), threads, jobs, cpus)
    if threads == 1:
        scored = list(map(score, groups.items()))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scored = list(pool.map(score, groups.items()))
    items: list[SqlEvalItem] = [None] * len(pairs)
    for indices, group_items in zip(groups.values(), scored):
        for i, item in zip(indices, group_items):
            items[i] = item
    for i, item in enumerate(items):
        if item.ex is None:
            log.info("sql eval: EX skips pair %d on db_id %r: %s", i, item.db_id, item.error)
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
