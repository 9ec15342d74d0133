"""The ingest hot path against the reference code it replaced.

``ingest_oracles`` holds the original tokenizer, chunker, hashed
bag-of-words embedder and store serialisation. Chunks and the token texts
they carry must be equal and vectors bit-identical, on the repository's own
documents, on hand-picked Unicode edge cases and on seeded random Unicode
strings, whether the embedder is handed the chunks' tokens or tokenizes their
texts itself. The original serialisation writes store format version 1: the
records the store oracle reads from those bytes, inserted into a production
store and saved, must give the very file the production save wrote.
"""

import random
from pathlib import Path

import numpy as np
import pytest

import ingest_oracles as oracle
from gtr import pipeline
from gtr.chunking import Document, chunk_text, token_texts, tokenize
from gtr.embedding import BUCKET_CACHE_SIZE, EmbedderConfig, bucket_index, embed, embed_batch
from gtr.errors import DuplicateId, InvalidInput, ZeroVector
from gtr.pipeline import ingest
from gtr.store import VectorRecord, VectorStore
from store_oracles import VectorStore as OracleStore
from store_oracles import as_production, v3_bytes

ROOT = Path(__file__).resolve().parent.parent

WINDOWS = [(1, 0), (2, 1), (3, 1), (4, 0), (7, 3), (512, 64)]
DIMS = [1, 7, 384]
GROUP = 1000  # chunks per embed_batch call

HAND_PICKED = [
    "",
    " ",
    "\t\n\r ",
    "plain ascii words",
    "punct: a,b;c!(d)",
    "unicode café naïve 中文 mixed",
    "tabs\tand\nnewlines  spaces",
    "emoji 😀 and 👍🏽 and flags 🇺🇸🇫🇷",
    "family 👨\u200d👩\u200d👧\u200d👦 joined by zero-width joiners",
    "zero\u200bwidth\u200cnon\u200djoiner",
    "combining e\u0301 a\u0308 o\u0302\u0323 marks",
    "\u0301leading combining mark",
    "İstanbul İİ iİ Iı ß ẞ ﬁ ﬀ ΣΑΣ σς",
    "CJK 漢字かなカナ한국어 テスト。句読点、です",
    "Arabic العربية and Hebrew עברית with \u200emarks\u200f",
    "no\xa0break\u2028line\u2029para\u3000ideographic\x85next",
    "digits ٣٤٥ ①②③ ¹²³ ½ and _under_scores_",
    "astral 𝔘𝔫𝔦𝔠𝔬𝔡𝔢 𐍈 𝟘𝟙",
    "\ufeffbyte order mark and � replacement",
    "x" * 3000,
    "\u00e1" * 700,
]

POOLS = [
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
    " \t\n\r\x0b\x0c\xa0\u2028\u3000\x85",
    ".,;:!?()[]{}'\"-/\\@#$%^&*+=<>|~`",
    "éèüßøåñçİıΣσςΑΩжЖ",
    "\u0300\u0301\u0308\u0323\u20dd\u200b\u200c\u200d\ufe0f",
    "漢字かなカナ한국어。、",
    "😀👍🏽🇺🇸👨👩👧🎉🧪𝔘𝟘",
]


def _random_text(rng: random.Random) -> str:
    out = []
    for _ in range(rng.randint(0, 60)):
        if rng.random() < 0.1:
            # Any scalar value: code points outside the surrogate block.
            cp = rng.choice([rng.randint(0, 0xD7FF), rng.randint(0xE000, 0x10FFFF)])
            out.append(chr(cp))
        else:
            out.append(rng.choice(rng.choice(POOLS)))
    return "".join(out)


RANDOM_TEXTS = [_random_text(random.Random(seed)) for seed in range(2000)]


def _corpus() -> list[str]:
    docs = [(ROOT / name).read_text(encoding="utf-8") for name in ("README.md", "PAPER.md")]
    docs += sorted(p.read_text(encoding="utf-8") for p in (ROOT / "demos").glob("*.py"))
    return docs + HAND_PICKED


def _assert_texts_equivalent(texts: list[str]) -> None:
    """Chunks, their tokens and their vectors, the chunks of up to GROUP
    texts embedded in one batch, and each whole text's vector."""
    tokens = [[t.text for t in oracle.tokenize(text)] for text in texts]
    for size, overlap in WINDOWS:
        chunks = []
        for text, text_tokens in zip(texts, tokens):
            doc = Document("d", text)
            doc_chunks = chunk_text(doc, size, overlap)
            assert doc_chunks == oracle.chunk_text(doc, size, overlap)
            assert [c.tokens for c in doc_chunks] == [
                text_tokens[c.token_start : c.token_end] for c in doc_chunks]
            chunks += doc_chunks
        for start in range(0, len(chunks), GROUP):
            batch = chunks[start : start + GROUP]
            for dim in DIMS:
                got = embed_batch([c.text for c in batch], EmbedderConfig(dim=dim),
                                  [c.tokens for c in batch])
                want = {}  # short chunks repeat; each is embedded once
                for vector, chunk in zip(got, batch, strict=True):
                    if chunk.text not in want:
                        want[chunk.text] = oracle.embed_hashed_bow(chunk.text, dim).tobytes()
                    assert vector.tobytes() == want[chunk.text]
    for text in texts:
        assert tokenize(text) == oracle.tokenize(text)
        if text.strip():
            for dim in DIMS:
                got = embed(text, EmbedderConfig(dim=dim))
                assert np.array_equal(got, oracle.embed_hashed_bow(text, dim))


class TestChunksAndVectors:
    @pytest.mark.parametrize("index", range(len(_corpus())))
    def test_corpus_and_hand_picked(self, index):
        _assert_texts_equivalent([_corpus()[index]])

    def test_seeded_random_unicode(self):
        _assert_texts_equivalent(RANDOM_TEXTS)

    def test_default_window(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8") * 3
        doc = Document("readme", text)
        chunks = chunk_text(doc)
        assert len(chunks) > 1
        assert chunks == oracle.chunk_text(doc)

    def test_tokenize_byte_offsets_unchanged(self):
        for text in _corpus() + RANDOM_TEXTS[:200]:
            raw = text.encode("utf-8")
            tokens = tokenize(text)
            assert [(t.start, t.end) for t in tokens] == [
                (t.start, t.end) for t in oracle.tokenize(text)
            ]
            for tok in tokens:
                assert raw[tok.start : tok.end].decode("utf-8") == tok.text

    def test_bucket_memo_is_bounded_and_exact(self):
        words = [f"word{i}" for i in range(BUCKET_CACHE_SIZE * 2)]
        for dim in (5, 384):
            assert [bucket_index(w, dim) for w in words] == [
                oracle.bucket_index(w, dim) for w in words
            ]
        info = bucket_index.cache_info()
        assert info.maxsize == BUCKET_CACHE_SIZE
        assert info.currsize <= BUCKET_CACHE_SIZE

    def test_embed_batch_matches_oracle_across_evictions(self):
        texts = [t for t in RANDOM_TEXTS if t.strip()]
        config = EmbedderConfig(dim=384)
        for got, text in zip(embed_batch(texts, config), texts):
            assert np.array_equal(got, oracle.embed_hashed_bow(text, 384))


class TestEmbedBatchTokens:
    def test_chunk_tokens_give_the_vectors_of_the_texts(self):
        for text in _corpus():
            for size, overlap in WINDOWS[3:]:
                chunks = chunk_text(Document("d", text), size, overlap)
                texts = [c.text for c in chunks]
                for dim in DIMS:
                    config = EmbedderConfig(dim=dim)
                    given = embed_batch(texts, config, [c.tokens for c in chunks])
                    tokenized = embed_batch(texts, config)
                    assert [v.tobytes() for v in given] == [v.tobytes() for v in tokenized]

    @pytest.mark.parametrize("texts", [
        [],
        ["The the THE"],
        ["The the THE", "the", "THE The", "a The a", "The the THE", "İ i̇ I ı"],
        ["x", "X x", "y x", "x"] * 20,
    ], ids=["empty", "one", "case variants", "repeats"])
    def test_each_text_embeds_as_it_would_alone(self, texts):
        for dim in DIMS:
            config = EmbedderConfig(dim=dim)
            got = embed_batch(texts, config)
            assert len(got) == len(texts)
            for vector, text in zip(got, texts):
                assert vector.tobytes() == embed(text, config).tobytes()
                assert np.array_equal(vector, oracle.embed_hashed_bow(text, dim))

    def test_token_lists_must_match_the_texts(self):
        with pytest.raises(InvalidInput, match="1 token lists for 2 texts"):
            embed_batch(["a", "b"], EmbedderConfig(dim=8), [["a"]])


class TestOneMatrixPerCall:
    """embed_batch counts a whole call in one matrix; each row must keep the
    bytes of embedding its text alone, whatever the call's size."""

    WORDS = ["a", "The", "the", "THE", "İ", "i̇", "ı", "ß", "SS", "ẞ", "😀", "👍🏽",
             "naïve", "x" * 70, "_under_", "٣٤٥", "ﬁ"]

    def _texts(self, rng, n):
        texts = []
        for _ in range(n):
            shape = rng.randrange(4)
            if shape == 0:  # one token
                texts.append(rng.choice(self.WORDS))
            elif shape == 1:  # one token repeated
                texts.append(" ".join([rng.choice(self.WORDS)] * rng.randint(2, 40)))
            else:
                texts.append(" ".join(rng.choices(self.WORDS, k=rng.randint(1, 60))))
        return texts

    @pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 255, 256, 257, 600])
    def test_rows_equal_each_texts_embed(self, size):
        rng = random.Random(size)
        texts = self._texts(rng, size)
        if size == 600:
            texts[rng.randrange(size)] = " ".join(rng.choices(self.WORDS, k=50_000))
        for dim in (7, 384):
            config = EmbedderConfig(dim=dim)
            alone = [embed(text, config).tobytes() for text in texts]
            lowered = [[t.lower() for t in token_texts(text)] for text in texts]
            for tokens in (None, lowered):
                got = embed_batch(texts, config, tokens)
                assert [v.tobytes() for v in got] == alone

    def test_a_call_with_an_empty_token_list_is_refused(self):
        with pytest.raises(ZeroVector):
            embed_batch(["a", "b"], EmbedderConfig(dim=8), [["a"], []])


class TestIngestOrder:
    def _record(self, monkeypatch):
        events = []

        def chunk(doc, *args):
            events.append(("chunk", doc.id))
            return chunk_text(doc, *args)

        def embed_texts(texts, *args, **kwargs):
            events.append(("embed", len(texts)))
            return embed_batch(texts, *args, **kwargs)

        monkeypatch.setattr(pipeline, "chunk_text", chunk)
        monkeypatch.setattr(pipeline, "embed_batch", embed_texts)
        return events

    def test_each_document_is_chunked_when_a_batch_needs_it(self, monkeypatch, tmp_path):
        events = self._record(monkeypatch)
        monkeypatch.setattr(pipeline, "INGEST_DRAW_ITEMS", 3)
        docs = [Document(f"d{i}", " ".join(f"w{i}{j}" for j in range(8))) for i in range(4)]
        path = tmp_path / "s"
        ingest(docs, chunk_size=2, overlap=0,
               embedder_config=EmbedderConfig(dim=16, batch_size=3), store_path=path)
        # Four chunks per document, three per batch.
        assert events == [("chunk", "d0"), ("embed", 3), ("chunk", "d1"), ("embed", 3),
                          ("chunk", "d2"), ("embed", 3), ("embed", 3), ("chunk", "d3"),
                          ("embed", 3), ("embed", 1)]
        oracle_chunks = [c for d in docs for c in oracle.chunk_text(d, 2, 0)]
        assert list(VectorStore.load(path).texts) == [c.text for c in oracle_chunks]

    @pytest.mark.parametrize("batch_size, sizes", [
        (32, [256, 256, 88]), (7, [252, 252, 96]), (100, [200, 200, 200]), (300, [300, 300]),
    ])
    def test_a_call_embeds_a_whole_number_of_batches_near_256(self, monkeypatch, tmp_path,
                                                             batch_size, sizes):
        events = self._record(monkeypatch)
        # 30 documents of 20 chunks each.
        docs = [Document(f"d{i}", " ".join(f"w{i}_{j}" for j in range(40))) for i in range(30)]
        ingest(docs, chunk_size=2, overlap=0,
               embedder_config=EmbedderConfig(dim=16, batch_size=batch_size),
               store_path=tmp_path / "s")
        assert [n for kind, n in events if kind == "embed"] == sizes
        # Each document is chunked while the call that needs its first chunk
        # is filled: before that call, and after the one before it.
        drawn = 0
        chunked = []
        for kind, value in events:
            if kind == "chunk":
                chunked.append(value)
            else:
                drawn += value
                assert chunked == [f"d{i}" for i in range(30) if 20 * i < drawn]

    def test_an_http_ingest_sends_the_requests_of_one_call_per_batch(
            self, monkeypatch, tmp_path, json_server):
        def responder(path, body):
            return 200, {"embeddings": [[len(t), 1.0, t.count("1"), 0.5] for t in body["inputs"]]}

        docs = [Document(f"d{i}", " ".join(f"w{i}_{j}" for j in range(40))) for i in range(30)]
        chunks = [c.text for d in docs for c in chunk_text(d, 2, 0)]
        assert len(chunks) == 600
        server = json_server(responder)
        config = EmbedderConfig("http", 4, server.url + "embed", batch_size=3)
        stores = []
        for draw in (pipeline.INGEST_DRAW_ITEMS, 3):  # 3: one call per request
            monkeypatch.setattr(pipeline, "INGEST_DRAW_ITEMS", draw)
            server.requests.clear()
            ingest(docs, chunk_size=2, overlap=0, embedder_config=config,
                   store_path=tmp_path / f"s{draw}")
            inputs = [body["inputs"] for _, body in server.requests]
            assert len(inputs) == 200
            assert all(len(batch) == 3 for batch in inputs)
            assert [text for batch in inputs for text in batch] == chunks
            stores.append((tmp_path / f"s{draw}").read_bytes())
        assert stores[0] == stores[1]

    def test_duplicate_ids_are_refused_before_any_work(self, monkeypatch, tmp_path):
        events = self._record(monkeypatch)
        docs = [Document("a", "x y"), Document("b", "z"), Document("a", "w")]
        with pytest.raises(DuplicateId, match="'a'"):
            ingest(docs, chunk_size=1, overlap=0, embedder_config=EmbedderConfig(dim=8),
                   store_path=tmp_path / "s")
        assert events == []
        assert not (tmp_path / "s").exists()


def assert_same_store_as_oracle_bytes(store, path, tmp_path):
    """The version-1 file the original code wrote for ``store`` reads back
    to the same records, bit for bit, and they save to the bytes at
    ``path``, which spell out format version 3."""
    v1 = tmp_path / "v1.jsonl"
    v1.write_bytes(oracle.store_bytes(store))
    loaded = as_production(OracleStore.load(v1))
    assert [(r.id, r.kind, r.text, r.metadata) for r in loaded.records] == [
        (r.id, r.kind, r.text, r.metadata) for r in store.records]
    for got, want in zip(loaded.records, store.records):
        assert got.vector.tobytes() == want.vector.tobytes()
    resaved = tmp_path / "resaved"
    loaded.save(resaved)
    assert resaved.read_bytes() == path.read_bytes()
    assert path.read_bytes() == v3_bytes(store.dim, store.embedder_fingerprint, store.records)


class TestStoreBytes:
    def test_ingested_store_matches_oracle_serialisation(self, tmp_path):
        docs = [Document(f"d{i}", text) for i, text in enumerate(_corpus()) if text.strip()]
        docs.append(Document("random", "\n".join(RANDOM_TEXTS)))
        path = tmp_path / "s.jsonl"
        store = ingest(docs, chunk_size=64, overlap=8,
                       embedder_config=EmbedderConfig(dim=96), store_path=path)
        assert_same_store_as_oracle_bytes(store, path, tmp_path)

    def test_edge_values_match_oracle_serialisation(self, tmp_path):
        rng = np.random.default_rng(5)
        edge = [0.0, -0.0, 1.0, -1.0, 0.1, 1 / 3, 5e-324, -5e-324, 2.2250738585072014e-308,
                1e300, -1.7976931348623157e308, 1e16, 123456789.0, 1e-7, 0.5]
        store = VectorStore(len(edge), "fp")
        store.insert(VectorRecord("edge", edge, "chunk", "t"))
        store.insert(VectorRecord('r"é\t\u2028', edge[::-1], "table", "é\n\"q\"", {"k": "ü"}))
        store.insert(VectorRecord("zeros", [0.0] * len(edge), "chunk", "z"))
        store.insert(VectorRecord("negzeros", [-0.0] * len(edge), "chunk", "z"))
        for i in range(50):
            vec = rng.standard_normal(len(edge)) * 10.0 ** rng.integers(-30, 30)
            store.insert(VectorRecord(f"r{i}", vec, "chunk", f"text {i}"))
        strided = np.arange(2 * len(edge), dtype=np.float64)[::2] / 7
        store.insert(VectorRecord("strided", strided, "chunk", "s"))
        path = tmp_path / "s.jsonl"
        store.save(path)
        assert_same_store_as_oracle_bytes(store, path, tmp_path)
        reloaded = VectorStore.load(path)
        assert np.array_equal(np.signbit(reloaded.get("negzeros").vector), [True] * len(edge))
