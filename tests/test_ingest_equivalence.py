"""The ingest hot path against the reference code it replaced.

``ingest_oracles`` holds the original tokenizer, chunker, hashed
bag-of-words embedder and store serialisation. Chunks must be equal and
vectors bit-identical, on the repository's own documents, on hand-picked
Unicode edge cases and on seeded random Unicode strings. The original
serialisation writes store format version 1: loading its bytes and saving
must give the very file the production save wrote.
"""

import random
from pathlib import Path

import numpy as np
import pytest

import ingest_oracles as oracle
from gtr.chunking import Document, chunk_text, tokenize
from gtr.embedding import BUCKET_CACHE_SIZE, EmbedderConfig, bucket_index, embed, embed_batch
from gtr.pipeline import ingest
from gtr.store import VectorRecord, VectorStore

ROOT = Path(__file__).resolve().parent.parent

WINDOWS = [(1, 0), (2, 1), (3, 1), (4, 0), (7, 3), (512, 64)]
DIMS = [1, 7, 384]

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


def _assert_text_equivalent(text: str) -> None:
    assert tokenize(text) == oracle.tokenize(text)
    doc = Document("d", text)
    for size, overlap in WINDOWS:
        assert chunk_text(doc, size, overlap) == oracle.chunk_text(doc, size, overlap)
    if text.strip():
        for dim in DIMS:
            got = embed(text, EmbedderConfig(dim=dim))
            assert np.array_equal(got, oracle.embed_hashed_bow(text, dim))


class TestChunksAndVectors:
    @pytest.mark.parametrize("index", range(len(_corpus())))
    def test_corpus_and_hand_picked(self, index):
        _assert_text_equivalent(_corpus()[index])

    def test_seeded_random_unicode(self):
        for text in RANDOM_TEXTS:
            _assert_text_equivalent(text)

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


def assert_same_store_as_oracle_bytes(store, path, tmp_path):
    """The version-1 file the original code wrote for ``store`` loads to
    the same records, bit for bit, and saves to the bytes at ``path``."""
    v1 = tmp_path / "v1.jsonl"
    v1.write_bytes(oracle.store_bytes(store))
    loaded = VectorStore.load(v1)
    assert [(r.id, r.kind, r.text, r.metadata) for r in loaded.records] == [
        (r.id, r.kind, r.text, r.metadata) for r in store.records]
    for got, want in zip(loaded.records, store.records):
        assert got.vector.tobytes() == want.vector.tobytes()
    resaved = tmp_path / "resaved"
    loaded.save(resaved)
    assert resaved.read_bytes() == path.read_bytes()


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
