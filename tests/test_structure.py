"""Structural guard: one concept, one implementation. The package holds
one answer-trace class, one HTTP POST call site, one store builder, writer
and reader, and one reader of text input files, a table is profiled at
ingest only, and asking takes the embedder the store names."""

import argparse
import ast
from pathlib import Path

import gtr
from gtr import cli, store

SRC = Path(gtr.__file__).parent


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_one_requests_post_call_site():
    sites = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "post"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "requests"
    ]
    assert len(sites) == 1 and sites[0].startswith("_http.py:"), sites


def test_one_trace_class():
    traces = [
        node.name
        for _, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "Trace" in node.name
    ]
    assert traces == ["AnswerTrace"]


def test_replaced_names_are_gone():
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    for name in ("TabularTrace", "_post_with_retries", "_complete_http", "retry_backoff_s",
                 "row_count", "SqlQuery", "export_embeddings_csv"):
        assert name not in text
    assert "COUNT(*)" not in (SRC / "tables.py").read_text(encoding="utf-8")


def test_generate_sql_is_only_a_stage_name():
    # The function is gone; "generate_sql" stays the name of the stage
    # that completes the prompt and extracts the SQL, as traces report it.
    names = [
        name
        for _, tree in _trees()
        for node in ast.walk(tree)
        for name in (
            getattr(node, "name", None), getattr(node, "id", None),
            getattr(node, "attr", None), getattr(node, "arg", None),
        )
    ]
    assert "generate_sql" not in names


def test_answer_tabular_profiles_no_table():
    [func] = [
        node
        for path, tree in _trees() if path.name == "tables.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "answer_tabular"
    ]
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
    }
    assert "select_tables" in called and "compose_sql_prompt" in called
    assert "profile_tables" not in called


def test_one_store_writer_and_it_writes_version_2():
    assert store.STORE_VERSION == 2
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert "_vector_json" not in text
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    # Version 1 held the vector inline; nothing in the store reads or
    # writes it any more.
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == "vector"]
    names = {getattr(node, "name", None) for node in ast.walk(tree)}
    assert not names & {"_read_v1", "_parse_v1_record", "_read_v2"}
    # The one commit point of a save is one os.replace.
    replaces = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace" and getattr(node.func.value, "id", None) == "os"
    ]
    assert len(replaces) == 1
    opened_for_writing = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
        and any(isinstance(a, ast.Constant) and "w" in str(a.value) for a in node.args)
    ]
    assert len(opened_for_writing) == 1


def test_input_files_are_read_in_one_place():
    # Text inputs go through errors.read_lines, which names a bad byte's
    # line; the store reads its own binary file.
    readers = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            modes = [a.value for a in [*node.args[1:2], *(k.value for k in node.keywords
                                                           if k.arg == "mode")]
                     if isinstance(a, ast.Constant)]
            if (name == "open" and not any(set(m) & set("wax") for m in modes)
                    or name in ("read_text", "read_bytes")):
                readers.append(path.name)
    assert sorted(set(readers)) == ["errors.py", "store.py"], readers


def test_store_keeps_columns_and_builds_records_only_to_hand_out():
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    text = (SRC / "store.py").read_text(encoding="utf-8")
    # No record list, no id -> record dict, no re-pointed or per-row views.
    for name in ("_next_row", "_by_id", "rows.flags"):
        assert name not in text
    builders = {
        func.name
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VectorRecord"
    }
    # get and records hand records out through _record; load builds none.
    assert builders == {"_record"}
    [load] = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "load"]
    used = {getattr(node, "attr", None) or getattr(node, "id", None) for node in ast.walk(load)}
    assert not used & {"VectorRecord", "_record", "records"}


def test_nothing_in_the_package_walks_store_records():
    # records builds a VectorRecord per row; tables reads the columns.
    readers = [
        f"{path.name}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "records"
    ]
    assert readers == []


def test_one_store_builder_for_documents_and_tables():
    # A new store is made only by pipeline.build_store, and read by
    # VectorStore.load; ingest and index_tables both build through it.
    makers = [
        (path.name, func.name, node.func.id)
        for path, tree in _trees()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("VectorStore", "cls")
    ]
    assert sorted(makers) == [("pipeline.py", "build_store", "VectorStore"),
                              ("store.py", "load", "cls")]
    builders = {
        func.name
        for _, tree in _trees()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "build_store"
    }
    assert builders == {"ingest", "index_tables"}


def test_asking_takes_no_embedder_option():
    def sub(parser, name):
        [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices[name]

    def options(parser):
        return {o for action in parser._actions for o in action.option_strings}

    parser = cli.build_parser()
    embedder = {"--dim", "--embedder", "--embed-url"}
    for ask in (sub(parser, "ask"), sub(sub(parser, "tables"), "ask")):
        assert not options(ask) & embedder
    # They stay where a store is built or texts are scored.
    for command in (sub(parser, "ingest"), sub(sub(parser, "tables"), "ingest"),
                    sub(sub(parser, "eval"), "text")):
        assert embedder <= options(command)
