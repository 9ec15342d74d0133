"""Command-line surface: ingest documents, ask questions, index and query
database tables, and run the evaluation harnesses.

Configuration precedence is flags > environment (GTR_STORE, GTR_EMBED_URL,
GTR_LLM_URL) > defaults; ``ask`` and ``tables ask`` embed with the embedder
the store names. Diagnostics go to stderr, data to stdout or files;
``--log-level`` (default warning) sets which records of the ``gtr`` logger
reach stderr. The exit code is 0 only when no error was recorded.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import metrics, pipeline, sqleval, tables
from .chunking import DEFAULT_CHUNK_SIZE, DEFAULT_OVERLAP, load_documents
from .embedding import DEFAULT_DIM, EmbedderConfig
from .errors import GtrError, InvalidConfig, InvalidInput, StageError, loads_json, read_lines
from .llm import LlmConfig
from .pipeline import Query
from .store import VectorStore

ENV_STORE = "GTR_STORE"
ENV_EMBED_URL = "GTR_EMBED_URL"
ENV_LLM_URL = "GTR_LLM_URL"


def _embedder_config(args) -> EmbedderConfig:
    backend = args.embedder
    endpoint = args.embed_url or os.environ.get(ENV_EMBED_URL)
    if backend == "http" and not endpoint:
        raise InvalidConfig(
            f"--embedder http needs --embed-url or {ENV_EMBED_URL}"
        )
    return EmbedderConfig(
        backend=backend,
        dim=args.dim,
        endpoint_url=endpoint if backend == "http" else None,
    )


def _llm_config(value: str) -> LlmConfig:
    """Parse an --llm value: echo | fixed:TEXT | template:PATH | http[:URL],
    where http's URL defaults to GTR_LLM_URL."""
    kind, _, rest = value.partition(":")
    if kind == "echo":
        return LlmConfig(backend="echo_context")
    if kind == "fixed":
        return LlmConfig(backend="fixed", fixed_text=rest)
    if kind == "template":
        if not rest:
            # Empty registry: every question maps to the null statement.
            return LlmConfig(backend="template_sql")
        path = Path(rest)
        try:
            mapping = loads_json("".join(read_lines(path, "template mapping")))
        except ValueError as e:  # JSONDecodeError, an over-long integer, or nesting too deep
            raise InvalidInput(f"{path}: malformed JSON: {e}")
        if not isinstance(mapping, dict):
            raise InvalidInput(f"{path} must hold a JSON object of question -> SQL")
        for question, sql in mapping.items():
            if type(sql) is not str:
                raise InvalidInput(
                    f"{path}: the SQL for question {question!r} must be a string, "
                    f"got {sql!r}"
                )
        return LlmConfig(backend="template_sql", sql_templates=mapping)
    if kind == "http":
        endpoint = rest or os.environ.get(ENV_LLM_URL)
        if not endpoint:
            raise InvalidConfig(f"--llm http needs http:URL or {ENV_LLM_URL}")
        return LlmConfig(backend="http", endpoint_url=endpoint)
    raise InvalidConfig(f"unknown --llm backend {value!r}")


def _store_path(args) -> str:
    path = args.store or os.environ.get(ENV_STORE)
    if not path:
        raise InvalidConfig(f"--store or {ENV_STORE} is required")
    return path


def _add_embedder_flags(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--embedder", choices=("hashed_bow", "http"), default="hashed_bow"
    )
    parser.add_argument("--dim", type=int, default=DEFAULT_DIM)
    parser.add_argument("--embed-url", default=None)


def _cmd_ingest(args) -> int:
    docs = []
    for input_path in args.input:
        docs.extend(load_documents(input_path))
    store_path = _store_path(args)
    store = pipeline.ingest(
        docs,
        chunk_size=args.chunk_size,
        overlap=args.overlap,
        embedder_config=_embedder_config(args),
        store_path=store_path,
    )
    print(f"ingested {len(docs)} document(s) into {len(store)} chunk(s), dim {store.dim}")
    print(f"store written to {store_path}")
    return 0


def _cmd_ask(args) -> int:
    store = VectorStore.load(_store_path(args))
    trace = pipeline.answer(Query(args.query), store, k=args.k,
                            llm_config=_llm_config(args.llm))
    print(trace.answer)
    if args.trace:
        pipeline.append_trace(trace, args.trace)
    return 0


def _cmd_tables_ingest(args) -> int:
    profiles = tables.profile_tables(args.db, sample_limit=args.sample_limit)
    if not profiles:
        print("database has no user tables", file=sys.stderr)
        return 1
    store_path = _store_path(args)
    store = tables.index_tables(profiles, _embedder_config(args), store_path)
    print(f"indexed {len(store)} table(s) from {args.db}")
    print(f"store written to {store_path}")
    return 0


def _cmd_tables_ask(args) -> int:
    store = VectorStore.load(_store_path(args))
    result = tables.answer_tabular(
        Query(args.query), args.db, store, k=args.k, llm_config=_llm_config(args.llm),
        timeout_ms=args.timeout_ms, row_limit=args.row_limit,
    )
    print(f"SQL: {result.trace.answer}")
    print("\t".join(result.result.columns))
    for row in result.result.rows:
        print("\t".join("" if v is None else str(v) for v in row))
    if result.result.truncated:
        print(f"(output truncated at {args.row_limit} rows)", file=sys.stderr)
    if args.trace:
        pipeline.append_trace(result.trace, args.trace)
    return 0


def _cmd_eval_text(args) -> int:
    items = metrics.load_items_jsonl(args.items)
    report = metrics.aggregate(items, _embedder_config(args))
    print(report.format_summary())
    if args.out:
        report.write_jsonl(args.out)
    return 0


def _cmd_eval_sql(args) -> int:
    pairs = sqleval.load_pairs(args.gold, args.pred)
    report = sqleval.evaluate_suite(pairs, args.db_dir, jobs=args.jobs)
    print(report.format_summary())
    if args.out:
        report.write_jsonl(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtr",
        description="Retrieval-augmented answering over documents and database "
        "tables, with evaluation harnesses.",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="warning",
        help="least severe record of the gtr logger shown on stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="chunk and embed documents into a store")
    p.add_argument("--input", action="append", required=True, help="text or .jsonl file")
    p.add_argument("--store", default=None)
    p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--overlap", type=int, default=DEFAULT_OVERLAP)
    _add_embedder_flags(p)
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser("ask", help="answer a question from an ingested store")
    p.add_argument("query")
    p.add_argument("--store", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--llm", default="echo")
    p.add_argument("--trace", default=None, help="append the answer trace as JSONL")
    p.set_defaults(handler=_cmd_ask)

    tables_parser = sub.add_parser("tables", help="table indexing and SQL answering")
    tables_sub = tables_parser.add_subparsers(dest="tables_command", required=True)

    p = tables_sub.add_parser("ingest", help="profile and embed database tables")
    p.add_argument("--db", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--sample-limit", type=int, default=tables.DEFAULT_SAMPLE_LIMIT)
    _add_embedder_flags(p)
    p.set_defaults(handler=_cmd_tables_ingest)

    p = tables_sub.add_parser("ask", help="answer a question with generated SQL")
    p.add_argument("query")
    p.add_argument("--db", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--k", type=int, default=tables.DEFAULT_TABLE_K)
    p.add_argument("--llm", default="template")
    p.add_argument("--trace", default=None)
    p.add_argument("--timeout-ms", type=int, default=tables.DEFAULT_TIMEOUT_MS)
    p.add_argument("--row-limit", type=int, default=tables.DEFAULT_ROW_LIMIT)
    p.set_defaults(handler=_cmd_tables_ask)

    eval_parser = sub.add_parser("eval", help="run an evaluation harness")
    eval_sub = eval_parser.add_subparsers(dest="eval_command", required=True)

    p = eval_sub.add_parser("text", help="ROUGE / SAS / truthfulness report")
    p.add_argument("--items", required=True, help="JSONL of labeled answers")
    p.add_argument("--out", default=None, help="write per-item results as JSONL")
    _add_embedder_flags(p)
    p.set_defaults(handler=_cmd_eval_text)

    p = eval_sub.add_parser("sql", help="exact-set-match / execution accuracy report")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--db-dir", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="most threads to score groups on, capped at the group count "
                        "and at the CPUs this process may use; at 1 (the default) "
                        "groups are scored inline")
    p.set_defaults(handler=_cmd_eval_sql)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The records go to stderr as the message alone, as Python prints a
    # warning when no handler is set; the logger is left as it was found.
    log = logging.getLogger("gtr")
    handler, previous = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(previous)


def _run(args) -> int:
    try:
        return args.handler(args)
    except StageError as e:
        if getattr(args, "trace", None):  # the partial trace, its error set
            pipeline.append_trace(e.trace, args.trace)
        print(f"error in stage {e}", file=sys.stderr)  # e starts with the stage
        return 1
    except (GtrError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
