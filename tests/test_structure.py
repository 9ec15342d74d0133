"""Structural guard: one concept, one implementation. The package holds
one answer-trace class, one HTTP POST call site, one store builder, one
store entry encoder that whole saves and appends share, one store reader,
and one reader of text input files, a table is profiled at ingest only,
asking takes the embedder the store names, search sums every score in the
store's own order, execution accuracy has one rule that the suite and
the single-pair scorer share, whether a gold orders its output is read
from its text by that rule alone, every SQLite connection is opened in one
function, which alone sets its authorizer and whose callers never close
it, and the store imports no HTTP
code. JSON lines have one reader and one writer, SQL eval runs and parses
each statement through one helper apiece, user tables are listed by one
query, importing the package loads no HTTP client, the store's matrix
has one capacity rule, applied in the one function that makes the matrix,
the SQL token pattern is compiled in the SQL tokenizer alone, n-gram counts
are built by one function, cosine and SAS share one cosine arithmetic, the
hashed embedder counts a call with one bincount, and the store builder alone
sizes the embedding calls of an ingest."""

import argparse
import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import gtr
from gtr import cli, store
from gtr.sqleval.parser import ClauseSets

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
                 "row_count", "SqlQuery", "export_embeddings_csv",
                 "_accept_name", "_accept_sym", "_expect_name", "_expect_sym", "_advance",
                 "_resolve_expr", "_resolve_ref", "_expr_agg_count", "_value_agg_count",
                 "_pred_agg_count", "_aggregate_count", "assert_read_only",
                 "_WRITE_KEYWORDS", "_NON_SELECT_STARTERS", "SET_OPS"):
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


def _calls(node) -> list[str]:
    return [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_one_store_writer_and_it_writes_version_3():
    assert store.STORE_VERSION == 3
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert "_vector_json" not in text
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    # Version 1 held the vector inline; nothing in the store reads or
    # writes it any more.
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == "vector"]
    names = {getattr(node, "name", None) for node in ast.walk(tree)}
    assert not names & {"_read_v1", "_parse_v1_record", "_read_v2", "_read_vectors"}
    # The one commit point of a whole save is one os.replace.
    replaces = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace" and getattr(node.func.value, "id", None) == "os"
    ]
    assert len(replaces) == 1
    opened_for_writing = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
        and any(isinstance(a, ast.Constant) and set("w+") & set(str(a.value))
                for a in node.args)
    ]
    assert len(opened_for_writing) == 2  # the whole file's temporary, and an append


def test_whole_saves_and_appends_share_one_entry_encoder():
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    methods = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    callers = {name for name, node in methods.items() if "_entries" in _calls(node)}
    assert callers == {"_write_entries"}
    assert _calls(methods["_write_entries"]).count("_entries") == 1
    assert "_write_entries" in _calls(methods["save"])
    assert "_write_entries" in _calls(methods["_append"])
    assert "_append" in _calls(methods["save"])
    # The header is made in one place, for a save and for load's check.
    assert [name for name, node in methods.items() if "_header" in _calls(node)] == [
        "save", "load"]
    # Whether a save appends is decided from the file; save takes no
    # parameter to ask for it.
    assert list(inspect.signature(store.VectorStore.save).parameters) == ["self", "path"]


def test_one_execution_accuracy_rule():
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert text.count("gold query failed") == 1
    functions = {
        (path.name, node.name): node
        for path, tree in _trees()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    rule = functions["execution.py", "execution_verdicts"]
    assert "gold query failed" in ast.unparse(rule)
    assert {"results_match", "has_top_level_order_by"} <= set(_calls(rule))
    assert "execution_verdicts" in _calls(functions["execution.py", "execution_accuracy"])
    # The suite hands its preds to the rule, which runs them; it makes no
    # verdict of its own.
    [suite_tree] = [tree for path, tree in _trees() if path.name == "suite.py"]
    called = set(_calls(suite_tree))
    assert "execution_verdicts" in called
    assert not called & {"results_match", "has_top_level_order_by", "execution_accuracy",
                         "EvalError", "_values_equal", "_rows_equal"}


def test_one_order_rule_and_only_the_ex_rule_reads_it():
    # Whether a gold orders its output is read from its text, by
    # execution_verdicts alone; the parse carries no answer of its own, and
    # no caller hands one in.
    functions = [
        (path.name, node)
        for path, tree in _trees()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    callers = {(name, node.name) for name, node in functions
               if "has_top_level_order_by" in _calls(node)}
    assert callers == {("execution.py", "execution_verdicts")}
    takes_ordered = {(name, node.name) for name, node in functions
                     for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
                     and arg.arg == "ordered"}
    assert takes_ordered == {("execution.py", "results_match")}
    assert not hasattr(ClauseSets, "ordered")


def test_connections_are_opened_in_one_place_and_never_closed_by_users():
    # tables._connect_readonly caches each connection for its thread, so a
    # function that closed the one it got would close it for every later call.
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert text.count("sqlite3.connect") == 1
    functions = [
        node
        for path, tree in _trees() if path.name == "tables.py"
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    [source] = [
        func.name
        for func in functions
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "sqlite3.connect"
    ]
    assert source == "_connect_readonly"
    for func in functions:
        if func.name == source:
            continue
        calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)]
        conns = {ast.unparse(node) for node in calls if ast.unparse(node.func) == source}
        conns |= {
            target.id
            for node in ast.walk(func)
            if isinstance(node, ast.Assign) and ast.unparse(node.value) in conns
            for target in node.targets if isinstance(target, ast.Name)
        }
        closed = {ast.unparse(node.func.value) for node in calls
                  if isinstance(node.func, ast.Attribute) and node.func.attr == "close"}
        closed |= {ast.unparse(arg) for node in calls
                   if ast.unparse(node.func) in ("closing", "contextlib.closing")
                   for arg in node.args}
        assert not closed & conns, func.name


def test_the_authorizer_is_set_where_connections_are_opened():
    # SQLite's authorizer decides what SQL may run, so no other code may
    # replace or clear it.
    sites = [
        (path.name, func.name)
        for path, tree in _trees()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "set_authorizer"
    ]
    assert sites == [("tables.py", "_connect_readonly")]


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


def test_search_sums_in_the_stores_own_order():
    # Scores are summed in the order store._column_dots and store._norms
    # define, the same for every row; a BLAS or NumPy product sums in an
    # order of its own. No @, dot, matmul, einsum or norm in query_top_k or
    # in any store function it reaches.
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    products = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "norm"}
    reached, todo = set(), ["query_top_k"]
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in ast.walk(functions[name]):
            assert not isinstance(getattr(node, "op", None), ast.MatMult), (name, node.lineno)
            called = getattr(node, "id", None) or getattr(node, "attr", None)
            assert called not in products, (name, node.lineno)
            if called in functions and called not in reached:
                todo.append(called)
    assert {"_vector", "_scaled", "_column_dots", "_norm_rows", "_norms"} <= reached


def test_answer_builds_no_record_per_hit():
    # The prompt takes each hit's text by row; get builds a VectorRecord.
    [func] = [
        node
        for path, tree in _trees() if path.name == "pipeline.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "answer"
    ]
    called = {getattr(node.func, "attr", None) for node in ast.walk(func)
              if isinstance(node, ast.Call)}
    assert "row" in called and "get" not in called


def test_store_imports_no_http_code():
    # The store reads and writes local files; the "gtr" logger it warns on
    # is taken by name, so the module pulls in no HTTP client.
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "_http" not in imported and "requests" not in imported, imported


def test_importing_gtr_loads_no_http_client():
    # Only the http backends need requests; _http imports it when it posts.
    code = "import sys, gtr, gtr.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), *sys.path])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_one_json_lines_writer_and_reader():
    # Traces and both eval reports write through errors.write_json_lines, so
    # each escapes a lone surrogate the same way; every other file is opened
    # in binary mode, and nothing writes through Path.
    text_mode = [
        f"{path.name}:{func.name}"
        for path, tree in _trees()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"
        and not (len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                 and "b" in node.args[1].value)
    ]
    assert text_mode == ["errors.py:write_json_lines"]
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert "write_text" not in text and "write_bytes" not in text
    # Documents and eval items read their records through
    # errors.read_json_lines, which alone checks that a line is a JSON object
    # and that its string fields are strings; the loaders only build values.
    readers = {f"{path.name}:{func.name}": func
               for path, tree in _trees()
               for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               and "read_json_lines" in _calls(func)}
    assert sorted(readers) == ["chunking.py:load_documents", "metrics.py:load_items_jsonl"]
    for name, func in readers.items():
        checks = [node.id for node in ast.walk(func) if isinstance(node, ast.Name)
                  and node.id in ("isinstance", "dict", "check_unicode", "KeyError", "TypeError")]
        checks += [node.lineno for node in ast.walk(func) if isinstance(node, ast.Compare)
                   and any(getattr(c, "id", None) == "str" for c in node.comparators)]
        assert checks == [], name
        assert not any(isinstance(node, ast.Try) for node in ast.walk(func)), name


def test_only_the_cli_reads_the_environment():
    # GTR_STORE, GTR_EMBED_URL and GTR_LLM_URL become flags' defaults there;
    # the library takes every setting through its config objects.
    readers = sorted({path.name for path, tree in _trees() for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")})
    assert readers == ["cli.py"]


def test_sql_eval_runs_and_parses_through_one_helper_each():
    # perfbench's tracer rebinds execute_sql and parse_sql in each module
    # that binds them, so the helpers look them up as globals when called.
    sites = {}
    for path, tree in _trees():
        if path.parent.name != "sqleval":
            continue
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for name in _calls(func):
                    if name in ("execute_sql", "parse_sql"):
                        sites.setdefault(name, []).append(f"{path.name}:{func.name}")
    assert sites == {"execute_sql": ["execution.py:execution_verdicts"],
                     "parse_sql": ["exact_match.py:parse_or_error"]}


def test_user_tables_are_listed_by_one_query():
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert text.count("sqlite_master WHERE type='table'") == 1
    assert r"NOT LIKE 'sqlite\_%' ESCAPE '\'" in text


def test_a_files_identity_is_built_in_one_place():
    # store._stat_key, which the store's append check and the cached
    # SQLite connections both use.
    text = "".join(path.read_text(encoding="utf-8") for path in SRC.rglob("*.py"))
    assert text.count("st_mtime_ns") == 1


def test_one_capacity_rule_and_one_matrix_allocation():
    # Only VectorStore._reserve computes a capacity and makes the matrix
    # and its norms (beside the empty store's zero rows); insert_many and
    # load reach it, so a load has no sizing policy of its own.
    [tree] = [tree for path, tree in _trees() if path.name == "store.py"]
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def assigned(func):
        return {getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(func)
                if isinstance(getattr(node, "ctx", None), ast.Store)}

    assert [f.name for f in funcs if "capacity" in assigned(f)] == ["_reserve"]
    assert {f.name for f in funcs if assigned(f) & {"_matrix", "_norms"}} == {
        "__init__", "_reserve"}
    # Every 2-D array of dim columns the store makes: the empty store's,
    # insert_many's staging rows (checked before any record is added), and
    # the matrix, in _reserve alone.
    shapes = sorted(
        (func.name, ast.unparse(node.args[0]))
        for func in funcs for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("zeros", "empty", "ones", "full", "ndarray")
        and node.args and isinstance(node.args[0], ast.Tuple)
        and ast.unparse(node.args[0].elts[-1]) in ("dim", "self.dim")
    )
    assert shapes == [("__init__", "(0, dim)"), ("_reserve", "(capacity, self.dim)"),
                      ("insert_many", "(len(records), self.dim)")]
    reserves = sorted(
        (func.name, ast.unparse(node))
        for func in funcs for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_reserve"
    )
    assert [name for name, _ in reserves] == ["insert_many", "load"]
    assert reserves[1][1] == "store._reserve(count + 1)"


def test_the_sql_token_pattern_is_compiled_only_in_sqllex():
    # Every SQL reader lexes through gtr.sqllex, so only its pattern knows
    # how SQL quotes a string or starts a comment.
    markers = ("''[^']*", r"--[^\n]*")
    sites = [
        f"{path.name}:{call.func.attr}"
        for path, tree in _trees()
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and getattr(call.func.value, "id", None) == "re"
        and any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                and any(marker in node.value for marker in markers)
                for node in ast.walk(call))
    ]
    assert sites == ["sqllex.py:compile"]


def test_metrics_builds_ngram_counters_only_in_ngrams():
    # rouge_n reads its counts from the _ngram_counts memo over _ngrams, so
    # one function says what an n-gram is.
    [tree] = [tree for path, tree in _trees() if path.name == "metrics.py"]
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [f.name for f in funcs if "Counter" in _calls(f)] == ["_ngrams"]
    assert [f.name for f in funcs if "_ngrams" in _calls(f)] == ["_ngram_counts"]


def test_one_cosine_arithmetic():
    # store.cosine and the SAS scorer both prepare each vector with
    # _cosine_side and score a pair with _cosine_pair, which holds the
    # package's one matrix product.
    def users(name):
        return sorted(
            f"{path.name}:{func.name}"
            for path, tree in _trees()
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            if any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(func))
        )

    assert users("_cosine_pair") == users("_cosine_side") == [
        "metrics.py:_sas_scores", "store.py:cosine"]
    assert users("cosine") == []
    products = [
        f"{path.name}:{func.name}"
        for path, tree in _trees()
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]
    assert products == ["store.py:_cosine_pair"]


def test_one_bincount_and_one_ingest_call_size():
    # _hashed_bow counts every text of a call in one matrix, and build_store
    # alone decides how many items each ingest embed_batch call gets.
    [tree] = [tree for path, tree in _trees() if path.name == "embedding.py"]
    assert _calls(tree).count("bincount") == 1

    def users(*names):
        return sorted(
            f"{path.name}:{func.name}"
            for path, tree in _trees()
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            if any(isinstance(node, ast.Name) and node.id in names for node in ast.walk(func))
        )

    assert users("INGEST_DRAW_ITEMS", "islice") == ["pipeline.py:build_store"]
    assert users("embed_batch") == ["metrics.py:_sas_scores", "pipeline.py:build_store"]
