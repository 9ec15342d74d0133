"""Structural guard: one concept, one implementation. The package holds
one answer-trace class and one HTTP POST call site, and a table is
profiled at ingest only."""

import ast
from pathlib import Path

import gtr

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
