"""Table-aware retrieval: profile a database, embed its tables, pick the
relevant ones for a question, prompt for SQL, and execute it read-only.

Databases are SQLite files (the layout used by multi-database text-to-SQL
benchmarks). Each connection opens the file in read-only mode AND carries
an authorizer that lets SQLite compile only the actions of a read (see
_authorize_read), so a run can never mutate the database. SQLite asks the
authorizer about every table, column, function and pragma a statement
uses, when it compiles the statement, so strings, quoted identifiers and
comments are data, and a column named ``release`` is a column. Each thread
reuses its read-only connections (see _connect_readonly).

SQL prompt template (bit-exact), one block per selected table in score
order, then the question::

    Table {name}({col1 type1, col2 type2, ...})\\n{csv}\\n\\n ... Question: {query}\\nSQL:

where {csv} is the table's sample CSV without its final newline. Each
table is profiled once, at ingest; its record keeps its block and its
CREATE statement, so answering profiles nothing and refuses a table whose
CREATE statement has changed since.
"""

from __future__ import annotations

import csv
import io
import os
import re
import sqlite3
import stat
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence
from urllib.parse import quote

from .embedding import EmbedderConfig, embed
from .errors import (
    DbUnreadable,
    EmptyGeneration,
    EmptySelection,
    GtrError,
    InvalidInput,
    NonReadStatement,
    QueryTimeout,
    SqlError,
    StageError,
    check_unicode,
)
from .llm import QUESTION_LINE_PREFIX, LlmConfig, complete
from .pipeline import AnswerTrace, Query, build_store, check_store
from .sqllex import tokenize
from .store import VectorStore, _stat_key

DEFAULT_SAMPLE_LIMIT = 5
DEFAULT_ROW_LIMIT = 1000
DEFAULT_TIMEOUT_MS = 10_000
DEFAULT_TABLE_K = 3


@dataclass
class TableProfile:
    db_id: str
    name: str
    columns: list[tuple[str, str]]
    sample_rows: list[tuple]
    csv: str
    create_sql: str  # the table's CREATE statement, as sqlite_master holds it


@dataclass
class ResultSet:
    columns: list[str]
    rows: list[tuple]
    truncated: bool = False


@dataclass
class TabularAnswer:
    result: ResultSet  # the SQL that made it is trace.answer
    trace: AnswerTrace


# Each user table's name and CREATE statement, in catalog order, without
# SQLite's internal sqlite_* tables.
_USER_TABLES = "SELECT name, sql FROM sqlite_master WHERE type='table' AND name NOT LIKE 'sqlite_%'"


def _quote_ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


# Each thread keeps its most recently used read-only connections, keyed by
# absolute path, each beside the stat identity its file had when opened.
_MAX_CONNECTIONS = 8


class _Connections(threading.local):
    def __init__(self):
        self.lru: OrderedDict[str, tuple[tuple, sqlite3.Connection]] = OrderedDict()


_connections = _Connections()
# SQLite forbids using a connection across fork: a child starts empty.
os.register_at_fork(after_in_child=lambda: _connections.lru.clear())


# The actions a read may ask of SQLite. Besides reading, profile_tables
# reads PRAGMA table_info, and SQLite asks to UPDATE sqlite_master itself
# when it declares a table-valued function such as json_each; it refuses a
# statement that writes sqlite_master before it asks the authorizer.
_READ_ACTIONS = frozenset(
    {sqlite3.SQLITE_SELECT, sqlite3.SQLITE_READ, sqlite3.SQLITE_FUNCTION,
     sqlite3.SQLITE_RECURSIVE}
)


def _authorize_read(action: int, arg1, arg2, db_name, source) -> int:
    allowed = (
        action in _READ_ACTIONS
        or (action == sqlite3.SQLITE_PRAGMA and arg1.lower() == "table_info")
        or (action == sqlite3.SQLITE_UPDATE and arg1 == "sqlite_master")
    )
    return sqlite3.SQLITE_OK if allowed else sqlite3.SQLITE_DENY


def _connect_readonly(db_path: str | Path) -> sqlite3.Connection:
    """This thread's read-only connection to db_path, opened on first use,
    with _authorize_read as its authorizer.

    A cached connection is reused while the file keeps its (device, inode,
    size, mtime): a file replaced or rewritten by something other than
    SQLite gets a new connection. Commits made through SQLite are seen
    anyway, when each read begins. Callers must not close it.
    """
    path = Path(db_path)
    key = os.path.abspath(path)
    lru = _connections.lru
    try:
        st = path.stat()  # before the open, so a later rewrite shows as a change
        identity = _stat_key(st)
    except OSError:
        st = identity = None
    cached = lru.pop(key, None)
    if cached is not None:
        if cached[0] == identity:
            lru[key] = cached
            return cached[1]
        cached[1].close()
    if st is None or not stat.S_ISREG(st.st_mode):
        raise DbUnreadable(f"database file not found: {path}")
    try:
        # Quoted, so a "#", "?" or "%" in the path cannot cut off mode=ro.
        conn = sqlite3.connect(f"file:{quote(path.as_posix())}?mode=ro", uri=True)
    except sqlite3.Error as e:
        raise DbUnreadable(f"cannot open {path}: {e}")
    conn.set_authorizer(_authorize_read)
    try:
        _fetch_all(conn, "SELECT 1 FROM sqlite_master LIMIT 1")
    except sqlite3.Error as e:
        conn.close()  # else the error's traceback keeps the file open
        raise DbUnreadable(f"cannot open {path}: {e}")
    lru[key] = (identity, conn)
    if len(lru) > _MAX_CONNECTIONS:
        lru.popitem(last=False)[1][1].close()
    return conn


def _fetch_all(conn: sqlite3.Connection, sql: str, params: Sequence = ()) -> list:
    """All rows of one statement; its cursor is closed even on error, so no
    statement holds the shared lock once this returns."""
    cursor = conn.cursor()
    try:
        return cursor.execute(sql, params).fetchall()
    finally:
        cursor.close()


def profile_tables(
    db_path: str | Path, sample_limit: int = DEFAULT_SAMPLE_LIMIT
) -> list[TableProfile]:
    """One profile per user table, columns in schema order, in the order
    tables are stored in the catalog. Internal sqlite_* tables are skipped.

    Raises:
        SqlError: the engine could not read a table, such as a sampled
            value that is not UTF-8; the message names the table.
    """
    if sample_limit < 0:
        raise InvalidInput("sample_limit must be nonnegative")
    db_id = Path(db_path).stem
    conn = _connect_readonly(db_path)
    profiles = []
    for name, create_sql in _fetch_all(conn, _USER_TABLES):
        try:
            columns = [
                (str(row[1]), str(row[2]))
                for row in _fetch_all(conn, f"PRAGMA table_info({_quote_ident(name)})")
            ]
            sample_rows = _fetch_all(
                conn, f"SELECT * FROM {_quote_ident(name)} LIMIT ?", (sample_limit,)
            )
        except sqlite3.Error as e:
            raise SqlError(f"cannot profile table {name!r}: {e}") from None
        profiles.append(
            TableProfile(
                db_id=db_id,
                name=name,
                columns=columns,
                sample_rows=sample_rows,
                csv=serialize_table_csv(columns, sample_rows),
                create_sql=create_sql,
            )
        )
    return profiles


def serialize_table_csv(
    columns: Sequence[tuple[str, str]], rows: Sequence[tuple]
) -> str:
    """RFC-4180-style CSV: header of column names, then the sample rows.

    Fields containing commas, quotes, or newlines are double-quoted with
    quote doubling; lines end with "\\n"; NULLs render as empty fields.
    """
    if not columns:
        raise InvalidInput("cannot serialize a table with no columns")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([name for name, _ in columns])
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


def table_record_id(db_id: str, name: str) -> str:
    return f"{db_id}.{name}"


def embedding_text(profile: TableProfile) -> str:
    """The text embedded for one table: name, column list, CSV sample."""
    names = ", ".join(name for name, _ in profile.columns)
    return f"table: {profile.name}\ncolumns: {names}\n{profile.csv}"


def prompt_block(profile: TableProfile) -> str:
    """One table's block of the SQL prompt."""
    cols = ", ".join(
        f"{name} {ctype}" if ctype else name for name, ctype in profile.columns
    )
    body = profile.csv.removesuffix("\n")
    return f"Table {profile.name}({cols})\n{body}\n\n"


def index_tables(
    profiles: Sequence[TableProfile],
    embedder_config: EmbedderConfig | None = None,
    store_path: str | Path | None = None,
) -> VectorStore:
    """Embed one record per table into a new store (id ``<db_id>.<name>``).
    Its metadata keeps the table's prompt block and CREATE statement."""
    if not profiles:
        raise InvalidInput("need at least one table profile to index")
    items = (
        (table_record_id(p.db_id, p.name), embedding_text(p),
         {"db_id": p.db_id, "name": p.name, "prompt_block": prompt_block(p),
          "create_sql": p.create_sql}, None)
        for p in profiles
    )
    return build_store(items, "table", embedder_config, store_path)


def select_tables(
    query: Query,
    store: VectorStore,
    k: int = DEFAULT_TABLE_K,
    *,
    embedder_config: EmbedderConfig | None = None,
) -> list[tuple[str, float]]:
    """Top-k table record ids with scores, by exact cosine over the store.
    With no embedder_config the query is embedded as the store names."""
    embedder_config = check_store(store, embedder_config)
    for record_id, kind in zip(store.ids, store.kinds):
        if kind != "table":
            raise InvalidInput(f"store contains a non-table record {record_id!r}; "
                               "index tables into their own store")
    return store.query_top_k(embed(query.text, embedder_config), k)


def compose_sql_prompt(blocks: Sequence[str], query: Query) -> str:
    """Instantiate the SQL prompt template over the selected tables'
    blocks (see prompt_block)."""
    if not blocks:
        raise EmptySelection("sql prompt needs at least one table")
    return "".join(blocks) + f"{QUESTION_LINE_PREFIX}{query.text}\nSQL:"


# A language tag, if any, ends at the fence's first newline. A one-line fence
# counts only when there is no other, as it may just quote a name.
_FENCE_RE = re.compile(r"```[\w+-]*\n(.*?)```", re.DOTALL)
_ONE_LINE_FENCE_RE = re.compile(r"```(.*?)```")


def extract_sql(completion_text: str) -> str:
    """Trim a completion to its first SQL statement.

    Code fences are stripped, then everything from the first ";" outside
    strings, quoted identifiers and comments on is dropped.

    Raises:
        EmptyGeneration: nothing remains.
    """
    text = completion_text.strip()
    fenced = _FENCE_RE.search(text) or _ONE_LINE_FENCE_RE.search(text)
    if fenced:
        text = fenced.group(1).strip()
    end = next((tok.pos for tok in tokenize(text) if tok.text == ";"), len(text))
    statement = text[:end].strip()
    if not statement:
        raise EmptyGeneration("completion contained no SQL statement")
    return statement


def _check_limits(timeout_ms: int, row_limit: int | None) -> None:
    # The deadline is checked every 5,000 steps, so a short statement would
    # outrun a budget below 1 ms; fetchmany(0) would fetch every row.
    if timeout_ms < 1:
        raise InvalidInput(f"timeout_ms must be positive, got {timeout_ms}")
    if row_limit is not None and row_limit < 1:
        raise InvalidInput(f"row_limit must be positive or None, got {row_limit}")


# SQLite's whole message when the authorizer denies an action, or when it
# refuses, before asking, to write a table it protects or a view. Python
# before 3.11 gives no SQLITE_AUTH code with it, so the message is matched.
_REFUSAL_RE = re.compile(r"not authorized|authorization denied"
                         r"|table \S+ may not be modified|cannot modify .+ because it is a view")


def execute_sql(
    sql: str,
    db_path: str | Path,
    *,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    row_limit: int | None = DEFAULT_ROW_LIMIT,
) -> ResultSet:
    """Run a read statement; rows come back in engine order.

    Results are truncated at row_limit (flag set on the ResultSet);
    row_limit=None disables truncation.

    Raises:
        InvalidInput: timeout_ms or row_limit below 1.
        NonReadStatement: the statement has no result columns (it is
            empty or only a comment), or SQLite refused it as more than a
            read: the authorizer denied one of its actions, or it writes a
            view or a table SQLite protects, such as sqlite_master.
        SqlError: the engine rejected the statement (engine message kept),
            or it holds a lone surrogate, which SQLite cannot be sent.
        QueryTimeout: execution exceeded timeout_ms.
        DbUnreadable: missing or unopenable database file.
    """
    _check_limits(timeout_ms, row_limit)
    try:
        check_unicode(sql)
    except InvalidInput as e:
        raise SqlError(str(e)) from None
    conn = _connect_readonly(db_path)
    deadline = time.monotonic() + timeout_ms / 1000.0
    conn.set_progress_handler(lambda: 1 if time.monotonic() > deadline else 0, 5000)
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        if cursor.description is None:
            raise NonReadStatement("statement is empty or has no result columns")
        if row_limit is None:
            rows = cursor.fetchall()
            truncated = False
        else:
            rows = cursor.fetchmany(row_limit)
            truncated = cursor.fetchone() is not None
        return ResultSet([d[0] for d in cursor.description], rows, truncated)
    except sqlite3.Error as e:
        if _REFUSAL_RE.fullmatch(str(e)):
            raise NonReadStatement(f"statement may only read: {e}")
        if isinstance(e, sqlite3.OperationalError) and "interrupt" in str(e).lower():
            raise QueryTimeout(f"statement exceeded {timeout_ms} ms")
        raise SqlError(str(e))
    finally:
        # The connection is shared: no statement may keep its shared lock,
        # and no old deadline may interrupt a later statement.
        cursor.close()
        conn.set_progress_handler(None, 0)


def answer_tabular(
    query: Query,
    db_path: str | Path,
    store: VectorStore,
    *,
    k: int = DEFAULT_TABLE_K,
    embedder_config: EmbedderConfig | None = None,
    llm_config: LlmConfig | None = None,
    timeout_ms: int = DEFAULT_TIMEOUT_MS,
    row_limit: int | None = DEFAULT_ROW_LIMIT,
) -> TabularAnswer:
    """Select tables, prompt for SQL, execute it, and return the full trace.

    A stage failure raises StageError carrying the stage name and the
    partial trace (with trace.error set); the original error is chained.

    Raises:
        InvalidInput: timeout_ms or row_limit below 1, store not indexed
            from this database, or indexing a table the database no longer
            has or whose CREATE statement differs from the one stored (or
            none was stored).
        DbUnreadable: missing or unopenable database file; raised before
            any stage runs.
        StageError: any stage failed.
    """
    _check_limits(timeout_ms, row_limit)
    db_id = Path(db_path).stem
    schema = dict(_fetch_all(_connect_readonly(db_path), _USER_TABLES))
    stored = dict(zip(store.ids, store.metadata))
    for record_id, meta in stored.items():
        name = meta.get("name")
        if meta.get("db_id") != db_id:
            raise InvalidInput(f"store record {record_id!r} was not indexed from "
                               f"database {db_id!r}")
        if (name not in schema or meta.get("create_sql") != schema[name]
                or "prompt_block" not in meta):
            raise InvalidInput(
                f"table {name!r} of database {db_id!r} is gone or changed since the "
                "store indexed it; re-run `gtr tables ingest`"
            )

    trace = AnswerTrace(query=query.text)

    def fail(stage: str, error: GtrError):
        trace.error = (stage, str(error))
        raise StageError(stage, error, trace) from error

    try:
        trace.retrieved = select_tables(query, store, k, embedder_config=embedder_config)
    except GtrError as e:
        fail("select_tables", e)

    blocks = [stored[table_id]["prompt_block"] for table_id, _ in trace.retrieved]
    try:
        trace.prompt = compose_sql_prompt(blocks, query)
    except GtrError as e:
        fail("compose_sql_prompt", e)

    try:
        trace.completion = complete(trace.prompt, llm_config)
        trace.answer = extract_sql(trace.completion.text)
    except GtrError as e:
        fail("generate_sql", e)

    try:
        result = execute_sql(trace.answer, db_path, timeout_ms=timeout_ms, row_limit=row_limit)
    except GtrError as e:
        fail("execute_sql", e)

    return TabularAnswer(result=result, trace=trace)
