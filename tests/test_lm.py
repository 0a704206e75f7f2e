import io
import json
import math
import re
import socket
import threading

import numpy as np
import pytest

from triefusion.errors import ProviderUnavailable
from triefusion.lm import (
    ExternalLogitProvider,
    LogitProvider,
    NGramModel,
    PROTOCOL_VERSION,
    serve_logits,
    train_ngram,
)


class UniformLogitProvider(LogitProvider):
    """All-zero logits; softmax is uniform for any prefix."""

    def logits(self, prefix):
        self._check_prefix(prefix)
        return np.zeros(self.vocab_size)


@pytest.mark.parametrize("build", [
    UniformLogitProvider,
    lambda vocab: NGramModel(3, 1.0, vocab),
    lambda vocab: ExternalLogitProvider(
        *_stub_server([json.dumps({"protocol": PROTOCOL_VERSION})]), vocab_size=vocab),
], ids=["uniform", "ngram", "external"])
def test_every_provider_needs_two_tokens(build):
    assert build(2).vocab_size == 2
    with pytest.raises(ValueError, match="vocab_size must be >= 2"):
        build(1)


class TestUniform:
    def test_softmax_is_uniform(self):
        provider = UniformLogitProvider(8)
        z = provider.logits([0, 1])
        probs = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(probs, 1 / 8)

    def test_prefix_validation(self):
        with pytest.raises(ValueError):
            UniformLogitProvider(4).logits([9])


class TestNGram:
    def test_trigram_forced_argmax(self):
        model = train_ngram([[0, 1, 2]], order=3, smoothing_k=0.01)
        assert int(np.argmax(model.logits([0, 1]))) == 2

    def test_symmetric_counts(self):
        # "a b" and "a c" with vanishing smoothing
        model = train_ngram([[0, 1], [0, 2]], order=2, smoothing_k=1e-9)
        probs = model.probabilities([0])
        assert probs[1] == pytest.approx(0.5, abs=1e-6)
        assert probs[2] == pytest.approx(0.5, abs=1e-6)

    def test_unseen_context_uniform(self):
        model = train_ngram([[0, 1], [0, 2]], order=2, smoothing_k=1.0)
        np.testing.assert_allclose(model.probabilities([2]), 1 / 3)

    def test_add_k_arithmetic(self):
        # "a b" twice, "a c" once, k = 0.01, |V| = 3
        model = train_ngram([[0, 1], [0, 1], [0, 2]], order=2, smoothing_k=0.01)
        assert model.probabilities([0])[1] == pytest.approx(2.01 / 3.03, abs=1e-12)

    def test_conditionals_sum_to_one(self):
        model = train_ngram([[0, 1, 2, 1], [2, 2, 0]], order=3, smoothing_k=0.3)
        for prefix in ([], [0], [0, 1], [2, 2], [1, 1]):
            assert model.probabilities(prefix).sum() == pytest.approx(1.0, abs=1e-9)

    def test_logits_are_log_probabilities(self):
        model = train_ngram([[0, 1, 2]], order=2, smoothing_k=0.5)
        np.testing.assert_allclose(np.exp(model.logits([0])), model.probabilities([0]))

    def test_logits_are_the_exact_log_of_the_conditionals(self):
        model = train_ngram([[0, 1, 2, 1], [2, 2, 0]], order=3, smoothing_k=0.3, vocab_size=40)
        for prefix in ([], [0], [0, 1], [2, 2], [1, 1], [39]):
            assert np.array_equal(model.logits(prefix), np.log(model.probabilities(prefix)))

    def test_determinism(self):
        model = train_ngram([[0, 1, 2], [0, 2, 1]], order=3, smoothing_k=0.1)
        np.testing.assert_array_equal(model.logits([0, 1]), model.logits([0, 1]))

    def test_short_prefix_uses_short_context(self):
        model = train_ngram([[0, 1, 2]], order=3, smoothing_k=0.01)
        # context (0,) was counted at training position 1
        assert int(np.argmax(model.probabilities([0]))) == 1

    def test_bruteforce_consistency(self):
        rng = np.random.default_rng(5)
        corpus = [list(rng.integers(0, 6, size=rng.integers(1, 9))) for _ in range(40)]
        order, k = 3, 0.25
        model = train_ngram(corpus, order=order, smoothing_k=k)
        vocab = model.vocab_size
        for _ in range(30):
            prefix = list(rng.integers(0, vocab, size=rng.integers(0, 5)))
            context = tuple(prefix[max(0, len(prefix) - (order - 1)) :])
            counts = {}
            for seq in corpus:
                for pos, token in enumerate(seq):
                    if tuple(seq[max(0, pos - (order - 1)) : pos]) == context:
                        counts[token] = counts.get(token, 0) + 1
            total = sum(counts.values())
            expected = [
                (counts.get(t, 0) + k) / (total + k * vocab) if total else 1 / vocab
                for t in range(vocab)
            ]
            np.testing.assert_allclose(model.probabilities(prefix), expected, atol=1e-12)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="training corpus is empty"):
            train_ngram([], order=2, smoothing_k=0.5)
        with pytest.raises(ValueError, match="training corpus is empty"):
            train_ngram([[]], order=2, smoothing_k=0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            train_ngram([[0, 1]], order=0, smoothing_k=0.5)
        with pytest.raises(ValueError):
            train_ngram([[0, 1]], order=2, smoothing_k=0.0)

    @pytest.mark.parametrize("k", [5e-324, 1e308])
    def test_smoothing_that_breaks_a_row_is_refused(self, k):
        # a row with a 0 or behind an infinite denominator has a -inf logit
        message = re.escape(f"smoothing_k {k!r} breaks the n-gram rows")
        with pytest.raises(ValueError, match=message):
            train_ngram([[0, 1], [0, 1]], order=2, smoothing_k=k)

    def test_save_load_roundtrip(self, tmp_path):
        model = train_ngram([[0, 1, 2], [0, 1, 1]], order=3, smoothing_k=0.2, vocab_size=5)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = NGramModel.load(path)
        assert loaded.order == model.order
        assert loaded.vocab_size == model.vocab_size
        for prefix in ([], [0], [0, 1], [4]):
            np.testing.assert_array_equal(loaded.logits(prefix), model.logits(prefix))


def _stub_server(lines):
    """Reader/writer pair where the 'server' side is a fixed script."""
    reader = io.StringIO("".join(line + "\n" for line in lines))
    writer = io.StringIO()
    return reader, writer


class TestExternalProtocol:
    def test_roundtrip_against_served_provider(self):
        client_sock, server_sock = socket.socketpair()
        backing = UniformLogitProvider(7)
        server = threading.Thread(
            target=serve_logits,
            args=(backing, server_sock.makefile("r"), server_sock.makefile("w")),
            daemon=True,
        )
        server.start()
        provider = ExternalLogitProvider(
            client_sock.makefile("r"), client_sock.makefile("w"), vocab_size=7
        )
        vector = provider.logits([1, 2, 3])
        assert vector.shape == (7,)
        np.testing.assert_array_equal(vector, np.zeros(7))
        provider.close()
        client_sock.close()
        server.join(timeout=5)
        server_sock.close()

    def test_handshake_required(self):
        reader, writer = _stub_server(['{"nope": 1}'])
        with pytest.raises(ProviderUnavailable):
            ExternalLogitProvider(reader, writer, vocab_size=3)

    def test_malformed_response(self):
        reader, writer = _stub_server(
            [json.dumps({"protocol": PROTOCOL_VERSION}), "this is not json"]
        )
        provider = ExternalLogitProvider(reader, writer, vocab_size=3)
        with pytest.raises(ProviderUnavailable):
            provider.logits([0])

    def test_length_mismatch(self):
        reader, writer = _stub_server(
            [json.dumps({"protocol": PROTOCOL_VERSION}), json.dumps({"logits": [0.0, 1.0]})]
        )
        provider = ExternalLogitProvider(reader, writer, vocab_size=3)
        with pytest.raises(ProviderUnavailable):
            provider.logits([0])

    # json reads NaN and Infinity as floats, so they need their own check
    @pytest.mark.parametrize("logits", [[0.0, "x", 2.0], [0.0, [1.0], 2.0], [0.0, True, 2.0],
                                        [0.0, math.nan, 2.0], [0.0, -math.inf, 2.0],
                                        [0.0, 10**400, 2.0]])
    def test_non_number_elements(self, logits):
        reader, writer = _stub_server(
            [json.dumps({"protocol": PROTOCOL_VERSION}), json.dumps({"logits": logits})]
        )
        provider = ExternalLogitProvider(reader, writer, vocab_size=3)
        with pytest.raises(ProviderUnavailable):
            provider.logits([0])

    def test_closed_stream(self):
        reader, writer = _stub_server([json.dumps({"protocol": PROTOCOL_VERSION})])
        provider = ExternalLogitProvider(reader, writer, vocab_size=3)
        with pytest.raises(ProviderUnavailable):
            provider.logits([0])

    def test_vocab_mismatch_served_as_error(self):
        request = json.dumps({"prefix": [0], "vocab": 99})
        reader = io.StringIO(request + "\n")
        writer = io.StringIO()
        serve_logits(UniformLogitProvider(4), reader, writer)
        lines = writer.getvalue().splitlines()
        assert json.loads(lines[0]) == {"protocol": PROTOCOL_VERSION}
        assert "error" in json.loads(lines[1])

    def test_bad_requests_get_errors_and_serving_continues(self):
        requests = [
            "{not json",
            json.dumps([0, 1]),
            json.dumps({"vocab": 4}),
            json.dumps({"prefix": [9], "vocab": 4}),
            json.dumps({"prefix": ["a"], "vocab": 4}),
            json.dumps({"prefix": [1], "vocab": 4}),
        ]
        reader = io.StringIO("".join(line + "\n" for line in requests))
        writer = io.StringIO()
        serve_logits(UniformLogitProvider(4), reader, writer)
        replies = [json.loads(line) for line in writer.getvalue().splitlines()[1:]]
        assert len(replies) == len(requests)
        assert all(set(reply) == {"error"} for reply in replies[:-1])
        assert "outside vocabulary" in replies[3]["error"]
        assert replies[-1] == {"logits": [0.0] * 4}

    def test_error_reply_carries_server_text(self):
        reader, writer = _stub_server([
            json.dumps({"protocol": PROTOCOL_VERSION}),
            json.dumps({"error": "prefix token 9 outside vocabulary of 4"}),
        ])
        provider = ExternalLogitProvider(reader, writer, vocab_size=4)
        with pytest.raises(ProviderUnavailable, match="prefix token 9 outside vocabulary of 4"):
            provider.logits([0])

    def test_tcp_connection_refused(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(ProviderUnavailable):
            ExternalLogitProvider.connect_tcp("127.0.0.1", port, vocab_size=4, timeout=2.0)
