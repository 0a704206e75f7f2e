"""Next-token logit providers.

Two implementations share one interface: a built-in add-k smoothed n-gram
model (the stand-in for a fine-tuned neural model at desk scale) and a
client for an external process that speaks a line-delimited JSON protocol.

Wire protocol ``logit-stream/1``: the serving side opens with one handshake
line ``{"protocol": "logit-stream/1"}``. Each request is one line
``{"prefix": [int, ...], "vocab": int}`` and each response one line
``{"logits": [float, ...]}`` whose array length equals the requested vocab
size. A request the server cannot answer gets ``{"error": str}`` instead.
One request is answered at a time per connection; an error reply or a
malformed, truncated, or mis-sized response raises
:class:`ProviderUnavailable`.
"""

from __future__ import annotations

import abc
import json
import socket
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .errors import MISSING, ProviderUnavailable, typed, typed_items
from .vocab import TokenId

PROTOCOL_VERSION = "logit-stream/1"


class LogitProvider(abc.ABC):
    """Deterministic map from a token-id prefix to a full-vocabulary logit row."""

    def __init__(self, vocab_size: int):
        if vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        self._vocab_size = vocab_size

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    @abc.abstractmethod
    def logits(self, prefix: Sequence[TokenId]) -> np.ndarray: ...

    def close(self) -> None:
        """Release what the model holds open; an in-process model holds nothing."""

    def _check_prefix(self, prefix: Sequence[TokenId]) -> None:
        for token in prefix:
            if not 0 <= token < self.vocab_size:
                raise ValueError(f"prefix token {token} outside vocabulary of {self.vocab_size}")


class NGramModel(LogitProvider):
    """Add-k smoothed n-gram model over the shared id space.

    Contexts are the up-to-(order-1) previous tokens; prefixes shorter than
    that fall back to the matching shorter context, which was counted during
    training. An entirely unseen context yields the uniform conditional.
    Logits are log probabilities, so softmax recovers the conditionals.
    """

    def __init__(self, order: int, smoothing_k: float, vocab_size: int):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not smoothing_k > 0:
            raise ValueError("smoothing_k must be > 0")
        super().__init__(vocab_size)
        self.order = order
        self.smoothing_k = float(smoothing_k)
        self._counts: dict[tuple[TokenId, ...], Counter] = {}

    def _observe(self, sequence: Sequence[TokenId]) -> None:
        history = self.order - 1
        for position, token in enumerate(sequence):
            if not 0 <= token < self._vocab_size:
                raise ValueError(f"corpus token {token} outside vocabulary of {self._vocab_size}")
            context = tuple(sequence[max(0, position - history) : position])
            counter = self._counts.get(context)
            if counter is None:
                counter = self._counts[context] = Counter()
            counter[token] += 1

    def _context(self, prefix: Sequence[TokenId]) -> tuple[TokenId, ...]:
        return tuple(prefix[max(0, len(prefix) - self.order + 1) :])

    def probabilities(self, prefix: Sequence[TokenId]) -> np.ndarray:
        self._check_prefix(prefix)
        vocab = self._vocab_size
        counter = self._counts.get(self._context(prefix))
        if counter is None:
            return np.full(vocab, 1.0 / vocab)
        total = sum(counter.values())
        k = self.smoothing_k
        denominator = total + k * vocab
        probs = np.full(vocab, k / denominator)
        for token, count in counter.items():
            probs[token] = (count + k) / denominator
        return probs

    def logits(self, prefix: Sequence[TokenId]) -> np.ndarray:
        probs = self.probabilities(prefix)
        return np.log(probs, out=probs)

    def save(self, path) -> None:
        contexts = sorted(self._counts.items())
        payload = {
            "format": "ngram-lm/1",
            "order": self.order,
            "smoothing_k": self.smoothing_k,
            "vocab_size": self._vocab_size,
            "contexts": [
                [list(context), sorted([t, c] for t, c in counter.items())]
                for context, counter in contexts
            ],
        }
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        """Read a :meth:`save` file; a field no saved model holds is a ValueError naming it.

        Tokens lie below ``vocab_size``, counts are at least 1, and a context
        is shorter than ``order``; no context, nor a token within one, repeats.
        """
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != "ngram-lm/1":
            raise ValueError(f"not an ngram-lm/1 file: {path}")
        where = f"model file {path}"

        def need(ok, key, wanted, value):
            if not ok:
                raise ValueError(f"{where} {key!r} needs {wanted}, got {value!r}")

        model = cls(*(typed(kind, payload.get(key, MISSING), key, where) for kind, key
                      in ((int, "order"), (float, "smoothing_k"), (int, "vocab_size"))))
        ids = range(model.vocab_size)
        contexts = typed_items(list, payload.get("contexts", MISSING), "contexts", where)
        for i, entry in enumerate(contexts):
            key = f"contexts[{i}]"
            need(len(entry) == 2, key, "[context, pairs]", entry)
            context = typed_items(int, entry[0], f"{key}[0]", where)
            need(len(context) < model.order and all(t in ids for t in context)
                 and context not in model._counts, f"{key}[0]",
                 f"a new context of fewer than {model.order} ids below {len(ids)}", list(context))
            counter = model._counts[context] = Counter()
            for j, pair in enumerate(typed_items(list, entry[1], f"{key}[1]", where)):
                need(len(pair) == 2, f"{key}[1][{j}]", "[token, count]", pair)
                token, count = typed_items(int, pair, f"{key}[1][{j}]", where)
                need(token in ids and token not in counter and count >= 1, f"{key}[1][{j}]",
                     f"a new id below {len(ids)} and a count >= 1", pair)
                counter[token] = count
        return model


def train_ngram(
    corpus: Iterable[Sequence[TokenId]],
    order: int,
    smoothing_k: float,
    vocab_size: int | None = None,
) -> NGramModel:
    """Count-based training; vocabulary defaults to the largest corpus id + 1."""
    sequences = [list(seq) for seq in corpus]
    if not sequences or all(not seq for seq in sequences):
        raise ValueError("training corpus is empty")
    if vocab_size is None:
        vocab_size = max(max(seq) for seq in sequences if seq) + 1
    model = NGramModel(order, smoothing_k, vocab_size)
    for seq in sequences:
        if seq:
            model._observe(seq)
    return model


class ExternalLogitProvider(LogitProvider):
    """Client for the ``logit-stream/1`` protocol over text streams."""

    def __init__(self, reader, writer, vocab_size: int):
        super().__init__(vocab_size)
        self._reader = reader
        self._writer = writer
        self._socket = None
        handshake = self._read_line()
        try:
            announced = json.loads(handshake)
        except json.JSONDecodeError as exc:
            raise ProviderUnavailable(f"bad handshake: {handshake!r}") from exc
        if not isinstance(announced, dict) or announced.get("protocol") != PROTOCOL_VERSION:
            raise ProviderUnavailable(f"unsupported protocol announcement: {announced!r}")

    @classmethod
    def connect_tcp(
        cls, host: str, port: int, vocab_size: int, timeout: float = 10.0
    ) -> "ExternalLogitProvider":
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ProviderUnavailable(f"cannot connect to {host}:{port}: {exc}") from exc
        try:
            provider = cls(
                sock.makefile("r", encoding="utf-8"),
                sock.makefile("w", encoding="utf-8"),
                vocab_size,
            )
        except ProviderUnavailable:
            sock.close()
            raise
        provider._socket = sock
        return provider

    def _read_line(self) -> str:
        try:
            line = self._reader.readline()
        except OSError as exc:
            raise ProviderUnavailable(f"read failed: {exc}") from exc
        if not line:
            raise ProviderUnavailable("provider closed the stream")
        return line

    def logits(self, prefix: Sequence[TokenId]) -> np.ndarray:
        self._check_prefix(prefix)
        request = {"prefix": [int(t) for t in prefix], "vocab": self._vocab_size}
        try:
            self._writer.write(json.dumps(request, separators=(",", ":")) + "\n")
            self._writer.flush()
        except OSError as exc:
            raise ProviderUnavailable(f"write failed: {exc}") from exc
        line = self._read_line()
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProviderUnavailable(f"malformed response: {line!r}") from exc
        if isinstance(payload, dict) and "error" in payload:
            raise ProviderUnavailable(f"provider error: {payload['error']}")
        values = payload.get("logits") if isinstance(payload, dict) else None
        if not isinstance(values, list) or len(values) != self._vocab_size:
            raise ProviderUnavailable(
                f"expected {self._vocab_size} logits, got {type(values).__name__}"
            )
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
            raise ProviderUnavailable("response logits must all be numbers")
        try:
            vector = np.asarray(values, dtype=float)
        except OverflowError as exc:  # an integer too large for a float
            raise ProviderUnavailable(f"response logits overflow a float: {exc}") from exc
        if not np.all(np.isfinite(vector)):
            raise ProviderUnavailable("response contains non-finite logits")
        return vector

    def close(self) -> None:
        for stream in (self._reader, self._writer):
            try:
                stream.close()
            except OSError:
                pass
        if self._socket is not None:
            self._socket.close()


def _answer(provider: LogitProvider, line: str) -> dict:
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"error": f"malformed request: {exc}"}
    if not isinstance(request, dict) or "prefix" not in request:
        return {"error": "request must be an object with a prefix"}
    if request.get("vocab") != provider.vocab_size:
        return {"error": "vocab size mismatch"}
    prefix = request["prefix"]
    if not (isinstance(prefix, list) and all(type(t) is int for t in prefix)):
        return {"error": "prefix must be a list of token ids"}
    try:
        vector = provider.logits(prefix)
    except ValueError as exc:  # out-of-vocabulary prefix token
        return {"error": str(exc)}
    return {"logits": [float(v) for v in vector]}


def serve_logits(provider: LogitProvider, reader, writer) -> None:
    """Answer ``logit-stream/1`` requests from ``provider`` until EOF.

    Glue for hosts that want to expose a model over stdio or a socket. A
    request the provider cannot answer (malformed JSON, a missing key, a
    vocab-size mismatch, an out-of-vocabulary prefix) gets an error object,
    which clients surface as ProviderUnavailable, and serving goes on.
    """
    writer.write(json.dumps({"protocol": PROTOCOL_VERSION}) + "\n")
    writer.flush()
    for line in reader:
        if not line.strip():
            continue
        writer.write(json.dumps(_answer(provider, line)) + "\n")
        writer.flush()
