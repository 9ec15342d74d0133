"""Each thread reuses its read-only connections while a database file keeps
its stat identity. These tests hold the cache's invariants: commits and
rewrites are seen, no statement or deadline outlives its call, the cache is
bounded, and neither a failed open nor a fork keeps a connection it should
not."""

import os
import shutil
import sqlite3
import sys
import threading
import time

import pytest

import gtr.tables as tables
from gtr.embedding import EmbedderConfig
from gtr.errors import DbUnreadable, QueryTimeout, SqlError
from gtr.llm import LlmConfig
from gtr.pipeline import Query
from gtr.tables import answer_tabular, execute_sql, index_tables, profile_tables

needs_proc_fd = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd"
)

# 6**5 rows: far more than the 5,000 steps between deadline checks, and
# still only milliseconds to count.
MEDIUM = "SELECT count(*) FROM singer a, singer b, singer c, singer d, singer e"
HEAVY = MEDIUM + ", singer f, singer g, singer h, singer i"


@pytest.fixture(autouse=True)
def empty_cache():
    tables._connections.lru.clear()
    yield
    tables._connections.lru.clear()


def open_descriptors(*paths) -> int:
    """How many of this process's file descriptors point at the paths."""
    targets = {os.path.realpath(p) for p in paths}
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}") in targets
        except OSError:
            pass  # the descriptor listdir itself used
    return count


def make_db(path, names) -> None:
    """Two write transactions whatever the names, so equal-length name
    lists give files of one size and one SQLite change counter."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE singer (name TEXT)")
    conn.executemany("INSERT INTO singer VALUES (?)", [(n,) for n in names])
    conn.commit()
    conn.close()


def names(db) -> list:
    return [row[0] for row in execute_sql("SELECT name FROM singer", db).rows]


def test_one_connection_serves_repeated_calls(toy_db):
    conn = tables._connect_readonly(toy_db)
    assert execute_sql("SELECT count(*) FROM singer", toy_db).rows == [(6,)]
    assert profile_tables(toy_db)
    assert tables._connect_readonly(toy_db) is conn


def test_an_answer_opens_one_connection(toy_db, monkeypatch):
    question = "how many singers?"
    config = EmbedderConfig(dim=64)
    store = index_tables(profile_tables(toy_db), config)
    tables._connections.lru.clear()
    opened = []
    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda *a, **kw: opened.append(a) or connect(*a, **kw))
    llm = LlmConfig(backend="template_sql",
                    sql_templates={question: "SELECT count(*) FROM singer"})
    answer = answer_tabular(Query(question), toy_db, store, embedder_config=config,
                            llm_config=llm)
    assert answer.result.rows == [(6,)]
    assert len(opened) == 1  # the schema check and the statement share it


def test_a_commit_by_another_connection_is_seen(toy_db):
    assert execute_sql("SELECT age FROM singer WHERE singer_id = 1", toy_db).rows == [(52,)]
    before = os.stat(toy_db)
    writer = sqlite3.connect(toy_db)
    writer.execute("UPDATE singer SET age = 99 WHERE singer_id = 1")
    writer.commit()
    writer.close()
    # Same inode, size and mtime: only SQLite itself can see the commit.
    os.utime(toy_db, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(toy_db)
    assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
    assert execute_sql("SELECT age FROM singer WHERE singer_id = 1", toy_db).rows == [(99,)]


def test_a_file_replaced_by_os_replace_is_seen(tmp_path):
    db, other = tmp_path / "db.sqlite", tmp_path / "other.sqlite"
    make_db(db, ["ann", "bob"])
    make_db(other, ["cat", "dan"])
    assert names(db) == ["ann", "bob"]
    os.replace(other, db)
    assert names(db) == ["cat", "dan"]


def test_a_file_rewritten_in_place_is_seen(tmp_path):
    db, other = tmp_path / "db.sqlite", tmp_path / "other.sqlite"
    make_db(db, ["ann", "bob"])
    make_db(other, ["cat", "dan"])
    assert names(db) == ["ann", "bob"]
    before = os.stat(db)
    time.sleep(0.05)  # past the file system's timestamp tick
    shutil.copyfile(other, db)
    after = os.stat(db)
    # Same inode, size and change counter: only the mtime tells.
    assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)
    assert after.st_mtime_ns != before.st_mtime_ns, "file system kept the mtime"
    assert names(db) == ["cat", "dan"]


def test_no_statement_keeps_its_lock_after_a_call(tmp_path):
    db = tmp_path / "db.sqlite"
    make_db(db, ["ann", "bob", "cat", "dan", "eve", "fay"])
    writer = sqlite3.connect(db)
    writer.execute("INSERT INTO singer VALUES (CAST(x'ff' AS TEXT))")
    writer.commit()
    writer.close()
    assert execute_sql("SELECT name FROM singer", db, row_limit=1).truncated
    with pytest.raises(QueryTimeout) as timed_out:
        execute_sql(HEAVY, db, timeout_ms=5)
    # Rows are fetched before the undecodable one fails the statement.
    with pytest.raises(SqlError, match="decode") as undecodable:
        execute_sql("SELECT name FROM singer", db)
    # The errors are still held, and with them the frames that ran them.
    assert timed_out.value and undecodable.value
    writer = sqlite3.connect(db, timeout=0)
    writer.execute("INSERT INTO singer VALUES ('gus')")
    writer.commit()  # "database is locked" if a reader kept its shared lock
    writer.close()
    assert execute_sql("SELECT count(*) FROM singer", db).rows == [(8,)]


def test_an_old_deadline_interrupts_no_later_statement(toy_db):
    assert execute_sql("SELECT 1", toy_db, timeout_ms=1).rows == [(1,)]
    time.sleep(0.01)
    conn = tables._connect_readonly(toy_db)
    assert conn.execute(MEDIUM).fetchall() == [(6**5,)]


@needs_proc_fd
def test_a_failed_open_keeps_no_descriptor(tmp_path):
    junk = tmp_path / "junk.sqlite"
    junk.write_bytes(b"not a database, only text\n" * 20)
    errors = []
    for _ in range(3):
        with pytest.raises(DbUnreadable, match="cannot open") as info:
            execute_sql("SELECT 1", junk)
        errors.append(info.value)
    assert open_descriptors(junk) == 0


@needs_proc_fd
def test_the_cache_holds_at_most_eight_connections(tmp_path):
    paths = []
    for i in range(11):
        paths.append(tmp_path / f"db{i}.sqlite")
        make_db(paths[-1], [f"n{i}"])
    for i, db in enumerate(paths):
        assert names(db) == [f"n{i}"]
    assert 0 < open_descriptors(*paths) <= tables._MAX_CONNECTIONS == 8
    assert names(paths[0]) == ["n0"]  # evicted, then opened again


def test_threads_never_share_a_connection(tmp_path):
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"db{i}.sqlite")
        make_db(paths[-1], [f"n{i}"])
    seen, failures = [], []
    # All six live from the first call to the last, so no thread id and no
    # connection's id is reused by another thread.
    together = threading.Barrier(6, timeout=60)

    def work():
        try:
            together.wait()
            for n in range(30):
                i = n % len(paths)
                assert names(paths[i]) == [f"n{i}"]
                seen.append((threading.get_ident(), id(tables._connect_readonly(paths[i]))))
            together.wait()
        except Exception as e:  # a connection used by two threads raises here
            failures.append(e)
            together.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # Six threads each hold their own three connections, all alive at once.
    assert len(seen) == 6 * 30 and len(set(seen)) == 6 * 3
    assert len({conn for _, conn in seen}) == 6 * 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_opens_its_own_connection(toy_db):
    assert execute_sql("SELECT count(*) FROM singer", toy_db).rows == [(6,)]
    parent_conn = tables._connect_readonly(toy_db)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports through the pipe and never returns
        verdict = b"E"
        try:
            fresh = tables._connect_readonly(toy_db) is not parent_conn
            rows = execute_sql("SELECT count(*) FROM singer", toy_db).rows
            verdict = b"1" if fresh and rows == [(6,)] else b"0"
        finally:
            os.write(write_end, verdict)
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        verdict = pipe.read()
    os.waitpid(pid, 0)
    assert verdict == b"1"
    assert execute_sql("SELECT count(*) FROM singer", toy_db).rows == [(6,)]
    assert tables._connect_readonly(toy_db) is parent_conn
