import math
import random

import numpy as np
import pytest

from gtr import embedding
from gtr.embedding import (
    _KERNEL_MAX_BYTES,
    EmbedderConfig,
    _fnv1a_buckets,
    bucket_index,
    config_from_fingerprint,
    embed,
    embed_batch,
    fingerprint,
)
from gtr.errors import (BackendUnavailable, EmptyText, FingerprintMismatch, InvalidConfig,
                        InvalidInput)
from gtr.store import cosine


class TestHashedBow:
    def test_deterministic_bitwise(self):
        config = EmbedderConfig(dim=64)
        a = embed("the quick brown fox", config)
        b = embed("the quick brown fox", config)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        rng = np.random.default_rng(11)
        config = EmbedderConfig(dim=48)
        words = ["alpha", "beta", "gamma", "delta", "x1", "x2", "zz"]
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(1, 12)))
            vec = embed(text, config)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
            assert vec.shape == (48,)

    def test_identical_inputs_have_cosine_one(self):
        config = EmbedderConfig(dim=32)
        assert cosine(embed("cat", config), embed("cat", config)) == 1.0

    def test_disjoint_buckets_have_cosine_zero(self):
        # Hand-pick tokens landing in different buckets, then the dot
        # product is a sum of exact zero terms.
        dim = 16
        a, b = "cat", "dog"
        assert bucket_index(a, dim) != bucket_index(b, dim)
        config = EmbedderConfig(dim=dim)
        assert cosine(embed(a, config), embed(b, config)) == 0.0

    def test_case_folding(self):
        config = EmbedderConfig(dim=32)
        assert np.array_equal(embed("Cat", config), embed("cat", config))

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            embed("   \n\t", EmbedderConfig(dim=8))

    def test_repeated_tokens_accumulate(self):
        config = EmbedderConfig(dim=8)
        one = embed("cat", config)
        twice = embed("cat cat", config)
        # Same direction either way: counts scale, normalization cancels.
        assert np.allclose(one, twice)


class TestEmbedBatch:
    def test_empty_batch(self):
        assert embed_batch([], EmbedderConfig(dim=8)) == []

    def test_pointwise_equivalence(self):
        config = EmbedderConfig(dim=32)
        texts = ["a b", "c", "a c b"]
        batch = embed_batch(texts, config)
        for text, vec in zip(texts, batch):
            assert np.array_equal(vec, embed(text, config))

    def test_error_carries_index(self):
        with pytest.raises(EmptyText, match="index 1"):
            embed_batch(["fine", "  ", "also fine"], EmbedderConfig(dim=8))

    def test_lone_surrogate_is_an_input_error_naming_its_index(self):
        texts = ["fine", "also fine", "bad \udcff", "worse \ud800"]
        config = EmbedderConfig(dim=8)
        message = "^cannot embed text at index 2: not valid Unicode: surrogates not allowed$"
        with pytest.raises(InvalidInput, match=message):
            embed_batch(texts, config)
        with pytest.raises(InvalidInput, match=message):
            embed_batch(texts, config, [t.split() for t in texts])
        with pytest.raises(InvalidInput, match="index 0: not valid Unicode"):
            embed("hello \udcff", config)


def _random_token(rng: random.Random) -> str:
    # Letters that change length or context when lowercased, non-BMP
    # letters and combining marks, in tokens from 1 byte to past the cutoff.
    pool = "aZ_9éÉßẞİıΣσςΟΔ漢字😀𝔘𝟘\u0301\u0308\u20dd"
    return "".join(rng.choice(pool) for _ in range(rng.randint(1, 40)))


def _kernel_tokens() -> list[str]:
    rng = random.Random(18)
    cut = _KERNEL_MAX_BYTES
    edges = ["ΟΔΟΣ", "Σ", "İ", "ß", "𝔘𝔫𝔦", "e\u0301", "\u0301", "a", "Z", "%", "",
             "x" * (cut - 1), "X" * cut, "x" * (cut + 1), "é" * (cut // 2),
             "É" * (cut // 2) + "a", "f" * 100_000]
    return edges + [_random_token(rng) for _ in range(3000)]


class TestBatchKernel:
    """The batch kernel against the scalar FNV-1a of ``bucket_index``."""

    @pytest.mark.parametrize("dim", [1, 7, 384, 2**40 + 3])
    def test_buckets_equal_the_scalar_hash(self, dim):
        tokens = _kernel_tokens()
        assert _fnv1a_buckets(tokens, dim).tolist() == [
            bucket_index(t.lower(), dim) for t in tokens]

    def test_only_tokens_past_the_cutoff_take_the_scalar_hash(self, monkeypatch):
        scalar = embedding._fnv1a
        hashed = []
        monkeypatch.setattr(embedding, "_fnv1a", lambda data: hashed.append(data) or scalar(data))
        cut = _KERNEL_MAX_BYTES
        tokens = ["x" * cut, "Y" * (cut + 1), "é" * (cut // 2), "z" * 100_000, "a"]
        want = [scalar(t.lower().encode("utf-8")) % 8 for t in tokens]
        assert _fnv1a_buckets(tokens, 8).tolist() == want
        assert sorted(hashed) == [b"y" * (cut + 1), b"z" * 100_000]

    def test_batch_vectors_equal_single_text_vectors(self):
        rng = random.Random(7)
        tokens = [[_random_token(rng) for _ in range(rng.randint(1, 30))] for _ in range(50)]
        texts = [" ".join(t) for t in tokens]
        config = EmbedderConfig(dim=97)
        for given in (None, tokens):
            batch = embed_batch(texts, config, given)
            for i, vec in enumerate(batch):
                [alone] = embed_batch([texts[i]], config, given and [tokens[i]])
                assert vec.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("texts", [[], ["Cat", "cat", "CAT cat"]])
    def test_empty_and_one_token_batches_equal_embed(self, texts):
        config = EmbedderConfig(dim=16)
        batch = embed_batch(texts, config)
        assert [v.tobytes() for v in batch] == [embed(t, config).tobytes() for t in texts]

    def test_batch_leaves_the_query_lru_untouched(self):
        config = EmbedderConfig(dim=384)
        embed("warm the cache", config)
        before = bucket_index.cache_info()
        embed_batch([f"novel{i} words here" for i in range(100)], config)
        assert bucket_index.cache_info() == before

    def test_str_lower_is_idempotent_on_every_code_point(self):
        """Every character ``str.lower`` makes lowercases to itself, and
        none is the one letter lowered by context (Σ), so lowering a
        lowered string changes nothing: lowercased tokens bucket as the
        tokens themselves do."""
        made = set()
        for c in range(0x110000):
            made.update(chr(c).lower())
        assert "Σ" not in made
        assert [d for d in made | {"ς"} if d.lower() != d] == []

    def test_lowercased_tokens_give_embed_vectors(self):
        rng = random.Random(23)
        texts = [" ".join(_random_token(rng) for _ in range(rng.randint(1, 30)))
                 for _ in range(50)] + ["ΟΔΟΣ ΣΟΦΟΣ Σ", "İSTANBUL ẞ"]
        config = EmbedderConfig(dim=97)
        lowered = [[t.lower() for t in embedding.token_texts(text)] for text in texts]
        for batch in (embed_batch(texts, config, lowered),
                      [embed_batch([t], config, [toks])[0] for t, toks in zip(texts, lowered)]):
            assert [v.tobytes() for v in batch] == [embed(t, config).tobytes() for t in texts]

    def test_caller_token_holding_a_newline_is_hashed_as_given(self):
        config = EmbedderConfig(dim=64)
        tokens = [["a\nb", "c"], ["d"], ["\n", "e\n"]]
        texts = ["a b c", "d", "e"]
        batch = embed_batch(texts, config, tokens)
        for i, vec in enumerate(batch):
            counts = np.zeros(64)
            for tok in tokens[i]:
                counts[bucket_index(tok.lower(), 64)] += 1.0
            assert vec.tobytes() == (counts / np.linalg.norm(counts)).tobytes()


class TestConfig:
    def test_http_requires_endpoint(self):
        with pytest.raises(InvalidConfig):
            EmbedderConfig(backend="http")

    def test_endpoint_forbidden_for_hashed_bow(self):
        with pytest.raises(InvalidConfig):
            EmbedderConfig(backend="hashed_bow", endpoint_url="http://x/")

    def test_unknown_backend(self):
        with pytest.raises(InvalidConfig):
            EmbedderConfig(backend="word2vec")

    def test_fingerprint_distinguishes_backend_and_dim(self):
        a = fingerprint(EmbedderConfig(dim=16))
        b = fingerprint(EmbedderConfig(dim=32))
        c = fingerprint(EmbedderConfig(backend="http", dim=16, endpoint_url="http://x/"))
        assert len({a, b, c}) == 3

    @pytest.mark.parametrize("config", [
        EmbedderConfig(dim=64),
        EmbedderConfig(dim=1),
        EmbedderConfig(backend="http", dim=16, endpoint_url="http://x:8080/embed?a=b:c"),
    ])
    def test_config_rebuilt_from_its_fingerprint(self, config):
        assert config_from_fingerprint(fingerprint(config)) == config

    @pytest.mark.parametrize("fp", [
        "hashed_bow:64:0000000000000000",  # another hash seed
        "bogus:64:x",
        "hashed_bow:sixty:cbf29ce484222325",
        "hashed_bow:064:cbf29ce484222325",
        "hashed_bow:0:cbf29ce484222325",
        "hashed_bow:64",
        "http:64",
        "",
    ])
    def test_fingerprint_no_config_has_is_refused(self, fp):
        with pytest.raises(FingerprintMismatch, match="names no known embedder"):
            config_from_fingerprint(fp)


@pytest.mark.usefixtures("fast_retries")
class TestHttpBackend:
    def _config(self, server, **kwargs):
        return EmbedderConfig(
            backend="http",
            dim=4,
            endpoint_url=server.url + "embed",
            **kwargs,
        )

    def test_round_trip_and_normalization(self, json_server):
        def responder(path, body):
            return 200, {"embeddings": [[2.0, 0.0, 0.0, 0.0] for _ in body["inputs"]]}

        server = json_server(responder)
        vec = embed("hello", self._config(server))
        assert np.allclose(vec, [1.0, 0.0, 0.0, 0.0])

    def test_batching_sends_ceil_requests(self, json_server):
        def responder(path, body):
            return 200, {"embeddings": [[1.0, 0, 0, 0] for _ in body["inputs"]]}

        server = json_server(responder)
        out = embed_batch(list("abcde"), self._config(server, batch_size=2))
        assert len(out) == 5
        assert len(server.requests) == math.ceil(5 / 2)
        assert [len(body["inputs"]) for _, body in server.requests] == [2, 2, 1]

    def test_failure_exhausts_three_attempts(self, json_server):
        server = json_server(lambda path, body: (500, {}))
        with pytest.raises(BackendUnavailable):
            embed("hello", self._config(server))
        assert len(server.requests) == 3

    def test_malformed_response(self, json_server):
        server = json_server(lambda path, body: (200, {"vectors": []}))
        with pytest.raises(BackendUnavailable):
            embed("hello", self._config(server))

    def test_wrong_dimension_rejected(self, json_server):
        server = json_server(lambda path, body: (200, {"embeddings": [[1.0, 2.0]]}))
        with pytest.raises(BackendUnavailable):
            embed("hello", self._config(server))

    def test_unreachable_endpoint(self):
        config = EmbedderConfig(
            backend="http",
            dim=4,
            endpoint_url="http://127.0.0.1:1/embed",
            timeout_s=0.2,
        )
        with pytest.raises(BackendUnavailable):
            embed("hello", config)
