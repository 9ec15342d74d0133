"""Smoke test of the command line in a subprocess (``python -m gtr``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_gtr(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gtr", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


class TestConsoleScript:
    def test_help_exits_zero(self):
        proc = run_gtr("--help")
        assert proc.returncode == 0
        assert "ingest" in proc.stdout and "eval" in proc.stdout

    def test_ingest_and_ask_round_trip(self, tmp_path):
        doc = tmp_path / "doc.txt"
        doc.write_text("a single memorable chunk", encoding="utf-8")
        store = tmp_path / "s.jsonl"
        proc = run_gtr("ingest", "--input", str(doc), "--store", str(store),
                       "--dim", "32")
        assert proc.returncode == 0, proc.stderr
        proc = run_gtr("ask", "what is in the store?", "--store", str(store),
                       "--llm", "echo")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "a single memorable chunk\n"

    def test_error_goes_to_stderr_with_exit_one(self, tmp_path):
        proc = run_gtr("ask", "q", "--store", str(tmp_path / "missing.jsonl"),
                       "--llm", "echo")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error")

    def test_lone_surrogate_in_document_is_an_input_error(self, tmp_path):
        docs = tmp_path / "d.jsonl"
        docs.write_text('{"id": "a", "text": "bad \\ud800 text"}\n', encoding="utf-8")
        proc = run_gtr("ingest", "--input", str(docs), "--store", str(tmp_path / "s.jsonl"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error") and "line 1" in proc.stderr
        assert not (tmp_path / "s.jsonl").exists()

    def test_lone_surrogate_in_eval_item_is_an_input_error(self, tmp_path):
        items = tmp_path / "items.jsonl"
        items.write_text(
            '{"question": "q", "reference": "bad \\ud800 x", "candidate": "c", '
            '"truthful": 1, "response_time_ms": 1.0}\n',
            encoding="utf-8",
        )
        proc = run_gtr("eval", "text", "--items", str(items))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error") and "line 1" in proc.stderr

    @pytest.mark.parametrize("command", ["ask", "tables ask"])
    def test_question_bytes_that_are_not_utf8_are_an_input_error(self, tmp_path, toy_db,
                                                                 command):
        # Such argv bytes arrive as lone surrogates ("\xff" as "\udcff").
        store = tmp_path / "s.gtr"
        if command == "ask":
            doc = tmp_path / "d.jsonl"
            doc.write_text('{"id": "a", "text": "hello world"}\n', encoding="utf-8")
            setup = run_gtr("ingest", "--input", str(doc), "--store", str(store))
            argv = ["ask", "--store", str(store), b"hello \xff"]
        else:
            setup = run_gtr("tables", "ingest", "--db", str(toy_db), "--store", str(store))
            argv = ["tables", "ask", "--db", str(toy_db), "--store", str(store),
                    b"hello \xff"]
        assert setup.returncode == 0, setup.stderr
        proc = run_gtr(*argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: query: not valid Unicode: surrogates not allowed\n"
