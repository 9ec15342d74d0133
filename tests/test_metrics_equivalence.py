"""The bit-parallel ROUGE-L and the token memo against the code they replaced
(``metrics_oracles``).

LCS lengths must equal the dynamic program's on seeded random token lists
of lengths around int digit and word boundaries, on Unicode text, and on
empty and identical sides; ``aggregate`` must write byte-identical report
files, also over several slices of items with texts repeated across them.
``aggregate`` must also keep calling the module-level ``rouge_n`` and
``rouge_l`` for every item and ``embed_batch`` once per slice, since
per-layer tracing wraps exactly those names, and must tokenize each text
once per item.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import metrics_oracles as oracle
from gtr import metrics
from gtr.embedding import EmbedderConfig
from gtr.metrics import GtrEvalItem, aggregate, lcs_length, rouge_l

CONFIG = EmbedderConfig(dim=64)
# Around the 30-bit digits CPython ints are made of, and 64-bit words.
BOUNDARY_LENGTHS = (0, 1, 2, 29, 30, 31, 60, 61, 63, 64, 65, 127, 128, 129)

UNICODE_TEXTS = [
    "İstanbul İSTANBUL istanbul i̇stanbul",
    "Straße STRASSE strasse straße ß ẞ",
    "café café CAFÉ é ́",
    "東京 は 日本 の 首都 です 東京",
    "👍 👍🏽 👨‍👩‍👧 🇫🇷 ok 👍",
    "MiXeD CaSe mixed case MIXED CASE",
    "ǅemal ǆemal Ǆemal ΣΊΣΥΦΟΣ σίσυφος ς",
]


def _zipf_tokens(rng: random.Random, vocab: int, length: int) -> list[str]:
    words = [f"w{i}" for i in range(vocab)]
    weights = [1 / (i + 1) for i in range(vocab)]
    return rng.choices(words, weights, k=length)


def _assert_lcs_equal(a, b):
    expected = oracle.lcs_length(a, b)
    assert lcs_length(a, b) == expected, (len(a), len(b))
    assert lcs_length(b, a) == expected, (len(b), len(a))


class TestLcsLength:
    @pytest.mark.parametrize("vocab", [2, 5, 400])
    def test_word_boundary_lengths(self, vocab):
        rng = random.Random(vocab)
        for n in BOUNDARY_LENGTHS:
            for m in BOUNDARY_LENGTHS:
                words = [f"t{i}" for i in range(vocab)]
                _assert_lcs_equal(rng.choices(words, k=n), rng.choices(words, k=m))

    def test_seeded_random_lists(self):
        rng = random.Random(61)
        for _ in range(120):
            vocab = rng.choice([2, 3, 8, 40, 400])
            words = [f"t{i}" for i in range(vocab)]
            a = rng.choices(words, k=rng.randint(0, 300))
            b = rng.choices(words, k=rng.randint(0, 300))
            _assert_lcs_equal(a, b)

    @pytest.mark.parametrize("n, m, vocab", [
        (1500, 1500, 400),
        (1500, 64, 2),
        (1000, 120, 400),
        (1000, 65, 40),
    ])
    def test_long_lists(self, n, m, vocab):
        rng = random.Random(n * m + vocab)
        _assert_lcs_equal(_zipf_tokens(rng, vocab, n), _zipf_tokens(rng, vocab, m))

    def test_related_lists(self):
        """A reference cut from the candidate with edits, as answers are."""
        rng = random.Random(67)
        for _ in range(40):
            cand = _zipf_tokens(rng, 300, rng.randint(50, 400))
            ref = [t for t in cand if rng.random() < 0.3]
            ref += _zipf_tokens(rng, 300, rng.randint(0, 20))
            head = ref[: len(ref) // 3]
            rng.shuffle(head)
            ref[: len(head)] = head
            _assert_lcs_equal(cand, ref)

    def test_empty_and_identical_sides(self):
        rng = random.Random(71)
        for n in (0, 1, 63, 64, 65, 200):
            a = _zipf_tokens(rng, 30, n)
            assert lcs_length(a, a) == n
            assert lcs_length(a, []) == 0
            assert lcs_length([], a) == 0
            _assert_lcs_equal(a, list(a))

    def test_unicode_tokens(self):
        texts = UNICODE_TEXTS + ["".join(UNICODE_TEXTS), " ".join(reversed(UNICODE_TEXTS))]
        for a in texts:
            for b in texts:
                ta, tb = oracle._tokens(a), oracle._tokens(b)
                assert list(metrics._tokens(a)) == ta
                _assert_lcs_equal(ta, tb)
                assert rouge_l(a, b) == oracle.rouge_l(a, b)
                for n in (1, 2, 3):
                    assert metrics.rouge_n(a, b, n) == oracle.rouge_n(a, b, n)


def _items(seed: int) -> list[GtrEvalItem]:
    """Answer-shaped items: long candidates that quote the reference in
    part, short ones, n-best candidates sharing a reference, identical
    answers, and candidates with no token in common."""
    rng = random.Random(seed)
    items = []
    for i in range(36):
        reference = " ".join(_zipf_tokens(rng, 500, rng.randint(110, 130)))
        ref_tokens = reference.split()
        shape = i % 6
        if shape == 0:  # deep-sized: 1,000 tokens around pieces of the reference
            kept = [t for t in ref_tokens if rng.random() < 0.6]
            candidate = " ".join(_zipf_tokens(rng, 500, 1000 - len(kept)) + kept)
        elif shape == 1:
            candidate = reference
        elif shape == 2:
            candidate = " ".join(rng.choices(ref_tokens, k=rng.randint(5, 60)))
        elif shape == 3:
            candidate = "Zzz. " + " ".join(f"x{j}" for j in range(rng.randint(1, 40)))
        elif shape == 4:
            candidate = rng.choice(UNICODE_TEXTS) + " " + reference.upper()
        else:
            candidate = " ".join(_zipf_tokens(rng, 50, rng.randint(1, 3)))
        items.append(GtrEvalItem(question=f"q{i} ¿qué?", reference=reference,
                                 candidate=candidate, truthful=i % 2,
                                 response_time_ms=rng.uniform(0.0, 5000.0)))
        if shape == 2:  # n-best: more candidates for the same reference
            for _ in range(2):
                candidate = " ".join(rng.sample(ref_tokens, k=30))
                items.append(GtrEvalItem(question=f"q{i}", reference=reference,
                                         candidate=candidate, truthful=1,
                                         response_time_ms=float(i)))
    return items


def _slice_items(seed: int, n: int) -> list[GtrEvalItem]:
    """Short items whose sides come from a small pool, so texts repeat
    within and across slices: whitespace-only and empty sides, punctuation
    alone, Unicode, case variants and identical pairs."""
    rng = random.Random(seed)
    pool = UNICODE_TEXTS + ["", " \n\t", "  ", "?!", "¿qué?", "The answer.", "the ANSWER"]
    pool += [" ".join(_zipf_tokens(rng, 40, rng.randint(1, 25))) for _ in range(60)]
    items = []
    for i in range(n):
        reference = rng.choice(pool)
        candidate = reference if i % 7 == 0 else rng.choice(pool)
        items.append(GtrEvalItem(question=f"q{i}", reference=reference, candidate=candidate,
                                 truthful=i % 2, response_time_ms=float(i)))
    return items


def _assert_report_bytes_equal(items, tmp_path, config=CONFIG):
    report = aggregate(items, config)
    expected = oracle.aggregate(items, config)
    report.write_jsonl(tmp_path / "new.jsonl")
    expected.write_jsonl(tmp_path / "old.jsonl")
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    assert report.format_summary() == expected.format_summary()


class TestAggregate:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_report_bytes_equal_oracle(self, seed, tmp_path):
        items = _items(seed)
        assert any(len(oracle._tokens(i.candidate)) >= 1000 for i in items)
        _assert_report_bytes_equal(items, tmp_path)

    @pytest.mark.parametrize("seed, n", [(5, 600), (6, 257), (7, 256)])
    def test_report_bytes_equal_oracle_over_slices(self, seed, n, tmp_path):
        items = _slice_items(seed, n)
        assert {"", " \n\t"} <= {i.candidate for i in items}
        _assert_report_bytes_equal(items, tmp_path)

    def test_small_slices_equal_oracle(self, monkeypatch, tmp_path):
        monkeypatch.setattr(metrics, "SAS_SLICE_ITEMS", 5)
        _assert_report_bytes_equal(_items(8), tmp_path)
        _assert_report_bytes_equal(_slice_items(9, 101), tmp_path)

    @pytest.mark.parametrize("slice_items", [7, metrics.SAS_SLICE_ITEMS])
    def test_scorers_called_through_module_names(self, monkeypatch, slice_items):
        """Per-layer tracing replaces these module attributes, so aggregate
        must look each up at call time: the ROUGE scorers once per item,
        ``embed_batch`` once per slice with each distinct text of the
        slice's items whose sides both have tokens."""
        monkeypatch.setattr(metrics, "SAS_SLICE_ITEMS", slice_items)
        calls = Counter()

        def counting(name):
            original = getattr(metrics, name)

            def counted(candidate, reference, *rest):
                n = rest[0] if name == "rouge_n" else None
                calls[name, n, candidate, reference] += 1
                return original(candidate, reference, *rest)

            return counted

        for name in ("rouge_n", "rouge_l"):
            monkeypatch.setattr(metrics, name, counting(name))
        batches = []
        embed_batch = metrics.embed_batch

        def counted_batch(texts, config, tokens):
            batches.append(texts)
            return embed_batch(texts, config, tokens)

        monkeypatch.setattr(metrics, "embed_batch", counted_batch)
        items = _items(3) + _slice_items(3, 40)
        aggregate(items, CONFIG)
        pairs = Counter((i.candidate, i.reference) for i in items)
        expected = Counter()
        for (cand, ref), count in pairs.items():
            expected["rouge_n", 1, cand, ref] = count
            expected["rouge_n", 2, cand, ref] = count
            expected["rouge_l", None, cand, ref] = count
        assert calls == expected
        expected_batches = []
        for first in range(0, len(items), slice_items):
            texts = {}
            for item in items[first : first + slice_items]:
                if oracle._tokens(item.candidate) and oracle._tokens(item.reference):
                    texts.update(dict.fromkeys((item.candidate, item.reference)))
            expected_batches.append(list(texts))
        assert batches == expected_batches
        assert len(batches) == -(-len(items) // slice_items)

    def test_each_text_tokenized_once_per_item(self, monkeypatch):
        calls = Counter()
        original = metrics.token_texts

        def counted(text):
            calls[text] += 1
            return original(text)

        monkeypatch.setattr(metrics, "token_texts", counted)
        metrics._tokens.cache_clear()
        items = _items(4)
        aggregate(items, CONFIG)
        texts = Counter()
        for item in items:
            texts.update({item.candidate, item.reference})
        assert set(calls) == set(texts)
        for text, count in calls.items():
            assert count <= texts[text]
        # n-best candidates come one after another with their reference
        shared = [r for r, n in Counter(i.reference for i in items).items() if n > 1]
        assert shared and all(calls[r] == 1 for r in shared)


ODD_TEXTS = ["İ", "ß", "👍", "İstanbul STRASSE ß 👍🏽", " \n\t", "", "one", "Straße"]


def _nbest_items(seed: int, n: int) -> list[GtrEvalItem]:
    """n items in runs of 2–6 candidates sharing one reference, as n-best
    answers are scored: repeated candidates, candidates equal to their
    reference, whitespace-only and empty sides, one-token texts, which have
    no bigrams, and İ, ß and emoji."""
    rng = random.Random(seed)
    items = []
    while len(items) < n:
        if rng.random() < 0.3:
            reference = rng.choice(ODD_TEXTS)
        else:
            reference = " ".join(_zipf_tokens(rng, 60, rng.randint(1, 40)))
        words = reference.split() + ["İ", "ß", "👍", "x"]
        candidates = []
        for _ in range(rng.randint(2, 6)):
            shape = rng.randrange(5)
            if shape == 0:
                candidates.append(reference)
            elif shape == 1 and candidates:
                candidates.append(candidates[-1])
            elif shape == 2:
                candidates.append(rng.choice(ODD_TEXTS))
            else:
                candidates.append(" ".join(rng.choices(words, k=rng.randint(1, 30))))
        for candidate in candidates:
            k = len(items)
            items.append(GtrEvalItem(question=f"q{k}", reference=reference, candidate=candidate,
                                     truthful=k % 2, response_time_ms=k / 3))
    return items[:n]


class TestNbestScoring:
    """Candidates that share a reference share its n-gram counts and its
    prepared SAS vector; nothing they score changes."""

    @pytest.mark.parametrize("seed, n, slice_items", [
        (11, 600, metrics.SAS_SLICE_ITEMS), (12, 300, 1), (13, 101, 5), (14, 68, 7),
    ])
    def test_report_bytes_equal_oracle(self, monkeypatch, tmp_path, seed, n, slice_items):
        monkeypatch.setattr(metrics, "SAS_SLICE_ITEMS", slice_items)
        items = _nbest_items(seed, n)
        texts = {i.candidate for i in items} | {i.reference for i in items}
        assert {"İ", "ß", "👍", " \n\t", "one"} <= texts
        assert any(i.candidate == i.reference for i in items)
        assert any(a.candidate == b.candidate and a.reference == b.reference
                   for a, b in zip(items, items[1:]))
        _assert_report_bytes_equal(items, tmp_path)

    def test_ngram_counts_are_built_once_per_run_of_items_sharing_a_text(self, monkeypatch):
        calls = Counter()
        ngrams = metrics._ngrams

        def counted(tokens, n):
            calls[tuple(tokens), n] += 1
            return ngrams(tokens, n)

        monkeypatch.setattr(metrics, "_ngrams", counted)
        metrics._ngram_counts.cache_clear()
        items = _nbest_items(15, 300)
        aggregate(items, CONFIG)
        # Keyed by tokens, which distinct texts ("" and " \n\t") can share.
        runs = Counter()
        texts: set = set()
        for item in items:
            item_texts = {item.candidate, item.reference}
            for text in item_texts - texts:
                for n in (1, 2):
                    runs[tuple(oracle._tokens(text)), n] += 1
            texts = item_texts
        assert set(calls) == set(runs)
        assert all(calls[key] <= runs[key] for key in runs)
        assert sum(calls.values()) < 2 * len(items)  # four per item without the memo
        assert metrics._ngram_counts.cache_info().maxsize == 8

    @pytest.mark.parametrize("slice_items", [7, metrics.SAS_SLICE_ITEMS])
    def test_each_distinct_vector_is_prepared_once_per_slice(self, monkeypatch, slice_items):
        monkeypatch.setattr(metrics, "SAS_SLICE_ITEMS", slice_items)
        events = []
        prepare, embed_batch = metrics._cosine_side, metrics.embed_batch

        def counted_prepare(vector):
            events[-1][1] += 1
            return prepare(vector)

        def counted_batch(texts, config, tokens):
            events.append([len(texts), 0])
            return embed_batch(texts, config, tokens)

        monkeypatch.setattr(metrics, "_cosine_side", counted_prepare)
        monkeypatch.setattr(metrics, "embed_batch", counted_batch)
        items = _nbest_items(16, 300)
        aggregate(items, CONFIG)
        assert len(events) == -(-len(items) // slice_items)
        assert all(embedded == prepared for embedded, prepared in events)
        scored = sum(bool(oracle._tokens(i.candidate) and oracle._tokens(i.reference))
                     for i in items)
        assert sum(prepared for _, prepared in events) < scored  # two per pair without
