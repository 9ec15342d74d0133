import math

import numpy as np
import pytest

from gtr.embedding import (
    EmbedderConfig,
    bucket_index,
    config_from_fingerprint,
    embed,
    embed_batch,
    fingerprint,
)
from gtr.errors import BackendUnavailable, EmptyText, FingerprintMismatch, InvalidConfig
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
