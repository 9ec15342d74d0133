"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each traced gtr function, in every gtr module
that binds it, with a wrapper that records a span: name, start, end and the
span that caused it. A layer's self time is its span's duration minus the
part of that interval its child spans cover. Spans opened on a pool thread
with no open span of their own are children of the ``evaluate_suite`` span
that started the pool, so its self time is the pool's overhead. Counts are
taken at the same boundaries. Spans are folded into per-layer totals as
they close, so memory stays flat however long the run.

Functions called once per token (``embedding.bucket_index``) are not
wrapped: the wrapper would cost more than the function.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from gtr import chunking, embedding, llm, metrics, pipeline, store, tables
from gtr.sqleval import exact_match, execution, hardness, parser, suite


def _count(name, fn):
    def post(tracer, args, kwargs, result):
        tracer.counts[name] += fn(args, kwargs, result)
    return post


def _embed_batch_post(tracer, args, kwargs, result):
    tracer.counts["embedding.texts"] += len(args[0])
    tracer.embedded.update(map(hash, args[0]))


def _embed_post(tracer, args, kwargs, result):
    """Count single embeds of a text already embedded earlier in the run."""
    key = hash(args[0])
    if key in tracer.embedded:
        tracer.counts["embedding.repeat_texts"] += 1
    else:
        tracer.embedded.add(key)


def _complete_post(tracer, args, kwargs, result):
    tracer.counts["llm.prompt_tokens"] += result.prompt_tokens
    tracer.counts["llm.completion_tokens"] += result.completion_tokens


def _accuracy_pre(tracer, args, kwargs):
    tracer.local.gold = kwargs.get("gold", args[1] if len(args) > 1 else None)


def _accuracy_post(tracer, args, kwargs, result):
    tracer.local.gold = None


def _execute_post(tracer, args, kwargs, result):
    tracer.counts["tables.execute_sql_calls"] += 1
    tracer.counts["tables.rows_fetched"] += len(result.rows)
    sql = args[0] if isinstance(args[0], str) else args[0].text
    gold = getattr(tracer.local, "gold", None)
    if gold is not None and sql == gold:
        tracer.counts["sqleval.gold_executions"] += 1
        tracer.local.gold = None


def _suite_pre(tracer, args, kwargs):
    pairs = args[0]
    tracer.counts["sqleval.pairs"] += len(pairs)
    tracer.counts["sqleval.distinct_golds"] += len({(p["gold"], p["db_id"]) for p in pairs})


# (layer metric prefix, owner, attribute, pre hook, post hook)
TARGETS = [
    ("chunking.tokenize", chunking, "tokenize", None, None),
    ("chunking.chunk_text", chunking, "chunk_text", None,
     _count("chunking.chunks", lambda a, k, r: len(r))),
    ("chunking.token_count", chunking, "token_count", None,
     _count("chunking.token_count_calls", lambda a, k, r: 1)),
    ("chunking.token_texts", chunking, "token_texts", None, None),
    ("embedding.embed_batch", embedding, "embed_batch", None, _embed_batch_post),
    ("embedding.embed", embedding, "embed", None, _embed_post),
    ("store.insert", store.VectorStore, "insert", None,
     _count("store.inserts", lambda a, k, r: 1)),
    ("store.save", store.VectorStore, "save", None,
     _count("store.bytes_written", lambda a, k, r: os.path.getsize(a[1]))),
    ("store.load", store.VectorStore, "load", None,
     _count("store.records_loaded", lambda a, k, r: len(r))),
    ("store.query_top_k", store.VectorStore, "query_top_k", None,
     _count("store.queries", lambda a, k, r: 1)),
    ("pipeline.ingest", pipeline, "ingest", None, None),
    ("pipeline.answer", pipeline, "answer", None, None),
    ("pipeline.compose_prompt", pipeline, "compose_prompt", None, None),
    ("llm.complete", llm, "complete", None, _complete_post),
    ("tables.profile_tables", tables, "profile_tables", None,
     _count("tables.tables_profiled", lambda a, k, r: len(r))),
    ("tables.index_tables", tables, "index_tables", None, None),
    ("tables.select_tables", tables, "select_tables", None, None),
    ("tables.compose_sql_prompt", tables, "compose_sql_prompt", None, None),
    ("tables.answer_tabular", tables, "answer_tabular", None,
     _count("tables.questions", lambda a, k, r: 1)),
    ("tables.execute_sql", tables, "execute_sql", None, _execute_post),
    ("metrics.rouge_l", metrics, "rouge_l", None, None),
    ("metrics.rouge_n", metrics, "rouge_n", None, None),
    ("metrics.sas", metrics, "sas", None, None),
    ("sqleval.parse_sql", parser, "parse_sql", None,
     _count("sqleval.parse_sql_calls", lambda a, k, r: 1)),
    ("sqleval.classify_hardness", hardness, "classify_hardness", None, None),
    ("sqleval.exact_set_match", exact_match, "exact_set_match", None, None),
    ("sqleval.execution_accuracy", execution, "execution_accuracy", _accuracy_pre,
     _accuracy_post),
    ("sqleval.results_match", execution, "results_match", None, None),
    ("sqleval.evaluate_suite", suite, "evaluate_suite", _suite_pre, None),
]

ADOPTING = "sqleval.evaluate_suite"

# Per-layer metrics in report order: every self time, then every count.
TIME_METRICS = [f"{name}_s" for name, *_ in TARGETS]
COUNT_METRICS = [
    "chunking.chunks", "chunking.token_count_calls", "embedding.texts",
    "embedding.repeat_texts", "store.inserts", "store.bytes_written",
    "store.records_loaded", "store.queries", "llm.prompt_tokens",
    "llm.completion_tokens", "tables.tables_profiled", "tables.questions",
    "tables.execute_sql_calls", "tables.rows_fetched", "sqleval.parse_sql_calls",
    "sqleval.gold_executions", "sqleval.distinct_golds", "sqleval.pairs",
]
COUNT_UNITS = {"store.bytes_written": "bytes", "llm.prompt_tokens": "tokens",
               "llm.completion_tokens": "tokens", "tables.rows_fetched": "rows"}


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class _Span:
    __slots__ = ("children",)

    def __init__(self):
        self.children: list = []


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.embedded: set[int] = set()
        self.local = threading.local()
        self.lock = threading.Lock()
        self.adopter: _Span | None = None

    def _wrap(self, name: str, fn, pre, post):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer.adopter
            span = _Span()
            stack.append(span)
            if name == ADOPTING:
                previous, tracer.adopter = tracer.adopter, span
            if pre is not None:
                pre(tracer, args, kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == ADOPTING:
                    tracer.adopter = previous
                with tracer.lock:
                    covered = _covered(span.children, start, end)
                    tracer.self_s[name] += (end - start) - covered
                    if parent is not None:
                        parent.children.append((start, end))
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        undo = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gtr" or n.startswith("gtr."))]
        try:
            for name, owner, attr, pre, post in TARGETS:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, pre, post))
                    else:
                        wrapped = self._wrap(name, raw, pre, post)
                    setattr(owner, attr, wrapped)
                    undo.append((owner, attr, raw))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, pre, post)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            undo.append((module, key, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def per_layer(self) -> dict:
        out = {}
        for name in TIME_METRICS:
            out[name] = {"value": self.self_s.get(name[:-2], 0.0), "unit": "s"}
        for name in COUNT_METRICS:
            out[name] = {"value": self.counts.get(name, 0),
                         "unit": COUNT_UNITS.get(name, "count")}
        return out
