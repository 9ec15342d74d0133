import json

import pytest

from gtr.chunking import Document, chunk_text, load_documents, token_texts, tokenize
from gtr.errors import InvalidConfig, InvalidInput


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_whitespace_and_punctuation_split(self):
        assert [t.text for t in tokenize("the cat sat.")] == ["the", "cat", "sat", "."]

    def test_runs_of_whitespace_collapse(self):
        assert [t.text for t in tokenize("a  b")] == ["a", "b"]

    def test_token_texts_matches_tokenize(self):
        text = "Numbers 123, under_scores and hyphen-ated words!"
        assert token_texts(text) == [t.text for t in tokenize(text)]

    @pytest.mark.parametrize(
        "text",
        [
            "plain ascii words",
            "punct: a,b;c!(d)",
            "unicode café naïve 中文 mixed",
            "tabs\tand\nnewlines  spaces",
        ],
    )
    def test_byte_offsets_round_trip(self, text):
        raw = text.encode("utf-8")
        for tok in tokenize(text):
            assert raw[tok.start : tok.end].decode("utf-8") == tok.text


class TestChunkText:
    def _doc(self, n_tokens):
        return Document("d", " ".join(f"w{i}" for i in range(n_tokens)))

    def test_empty_document(self):
        assert chunk_text(Document("d", ""), 4, 1) == []

    def test_sliding_window_spans(self):
        chunks = chunk_text(self._doc(10), 4, 1)
        assert [(c.token_start, c.token_end) for c in chunks] == [(0, 4), (3, 7), (6, 10)]
        assert [c.index for c in chunks] == [0, 1, 2]

    def test_document_shorter_than_window(self):
        chunks = chunk_text(self._doc(3), 8, 2)
        assert [(c.token_start, c.token_end) for c in chunks] == [(0, 3)]

    def test_overlap_must_be_smaller_than_chunk_size(self):
        with pytest.raises(InvalidConfig):
            chunk_text(self._doc(10), 4, 4)
        with pytest.raises(InvalidConfig):
            chunk_text(self._doc(10), 4, -1)
        with pytest.raises(InvalidConfig):
            chunk_text(self._doc(10), 0, 0)

    def test_chunk_text_is_exact_source_slice(self):
        doc = Document("d", "A first sentence. Then another, longer one follows!")
        raw = doc.text.encode("utf-8")
        tokens = tokenize(doc.text)
        for chunk in chunk_text(doc, 3, 1):
            start = tokens[chunk.token_start].start
            end = tokens[chunk.token_end - 1].end
            assert chunk.text == raw[start:end].decode("utf-8")

    def test_coverage_and_overlap_laws(self):
        # Every token index is covered; full-size neighbors share exactly
        # `overlap` tokens; identical inputs give identical outputs.
        import random

        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(0, 60)
            chunk_size = rng.randint(1, 12)
            overlap = rng.randint(0, chunk_size - 1)
            doc = Document("d", " ".join(f"t{i}" for i in range(n)))
            chunks = chunk_text(doc, chunk_size, overlap)
            assert chunks == chunk_text(doc, chunk_size, overlap)
            covered = set()
            for c in chunks:
                covered.update(range(c.token_start, c.token_end))
            assert covered == set(range(n))
            for a, b in zip(chunks, chunks[1:]):
                assert b.token_start == a.token_start + (chunk_size - overlap)
                if a.token_end - a.token_start == chunk_size:
                    assert a.token_end - b.token_start == overlap

    def test_all_but_last_are_full_size(self):
        chunks = chunk_text(self._doc(23), 5, 2)
        assert all(c.token_end - c.token_start == 5 for c in chunks[:-1])

    def test_document_id_required(self):
        with pytest.raises(InvalidInput):
            Document("", "text")


class TestLoadDocuments:
    def test_plain_text_file(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("hello world", encoding="utf-8")
        docs = load_documents(path)
        assert len(docs) == 1
        assert docs[0].id == "notes"
        assert docs[0].text == "hello world"

    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        records = [{"id": "a", "text": "first"}, {"id": "b", "text": "second"}]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        docs = load_documents(path)
        assert [(d.id, d.text) for d in docs] == [("a", "first"), ("b", "second")]

    def test_malformed_jsonl_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{oops\n', encoding="utf-8")
        with pytest.raises(InvalidInput, match="line 2"):
            load_documents(path)

    @pytest.mark.parametrize(
        "line",
        [
            r'{"id": "a", "text": "bad \ud800 text"}',
            r'{"id": "a\udfff", "text": "fine"}',
        ],
    )
    def test_lone_surrogate_names_line(self, tmp_path, line):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "ok", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="line 2: .*not valid Unicode"):
            load_documents(path)

    def test_line_ends_are_read_as_text_mode_open_reads_them(self, tmp_path):
        data = "a\r\nb\rc\n\rd é\r".encode("utf-8")
        path = tmp_path / "doc.txt"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as f:
            want = f.read()
        assert want == "a\nb\nc\n\nd é\n"
        assert load_documents(path)[0].text == want
        jsonl = tmp_path / "docs.jsonl"
        jsonl.write_bytes(b'{"id": "a", "text": "x"}\r{"id": "b", "text": "y"}\r\n\r{oops\n')
        with pytest.raises(InvalidInput, match="line 4: malformed JSON"):
            load_documents(jsonl)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput, match="not found"):
            load_documents(tmp_path / "absent.txt")

    def test_integer_too_long_to_parse_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "b", "text": "y", "n": 1'
                        + "0" * 4300 + "}\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match="line 2: malformed JSON"):
            load_documents(path)

    def test_deep_nesting_names_line(self, tmp_path):
        # json.loads raises RecursionError here; it used to escape.
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + "[" * 5000 + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput,
                           match=f"^{path}: line 2: malformed JSON: nested too deeply$"):
            load_documents(path)

    @pytest.mark.parametrize("line, message", [
        ('{"id": null, "text": "x"}', "id must be a JSON string, got None"),
        ('{"id": 7, "text": "x"}', "id must be a JSON string, got 7"),
        ('{"id": "a", "text": null}', "text must be a JSON string, got None"),
        ('{"id": "a", "text": ["x"]}', "text must be a JSON string, got ['x']"),
        ('{"text": "x"}', "missing field 'id'"),
        ('{"id": "a"}', "missing field 'text'"),
    ])
    def test_id_and_text_must_be_strings(self, tmp_path, line, message):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "ok", "text": "x"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput) as info:
            load_documents(path)
        assert str(info.value) == f"{path}: line 2: {message}"
