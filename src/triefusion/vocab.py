"""Shared token-id space for the trie, the base model, and the fusion loop.

Tokenization is whitespace-based and case-sensitive: every maximal run of
non-whitespace characters is one token. Ids are assigned first-come and are
never reused or reordered, so any component holding ids stays consistent as
the vocabulary grows. The registry supports single-writer growth; reads are
safe once a write has completed, but mutation and reads must not interleave.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

TokenId = int


class VocabRegistry:
    """Bijective token <-> id table with append-only growth."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._token_to_id: dict[str, TokenId] = {}
        self._id_to_token: list[str] = []
        for token in tokens:
            self.add(token)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def add(self, token: str) -> TokenId:
        """Register ``token`` if unseen; return its id either way."""
        token_id = self._token_to_id.get(token)
        if token_id is None:
            if not token or token.split() != [token]:
                raise ValueError(f"token must be a single non-empty word: {token!r}")
            token_id = len(self._id_to_token)
            self._token_to_id[token] = token_id
            self._id_to_token.append(token)
        return token_id

    def id_of(self, token: str) -> TokenId:
        try:
            return self._token_to_id[token]
        except KeyError:
            raise ValueError(f"unregistered token: {token!r}") from None

    def token_of(self, token_id: TokenId) -> str:
        if not 0 <= token_id < len(self._id_to_token):
            raise ValueError(f"id {token_id} outside registry of size {len(self)}")
        return self._id_to_token[token_id]

    def tokens(self) -> tuple[str, ...]:
        return tuple(self._id_to_token)

    def save(self, path) -> None:
        """Persist as newline-delimited UTF-8; the line number is the id."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for token in self._id_to_token:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path) -> "VocabRegistry":
        """Read a :meth:`save` file; a token on two lines would shift every later id."""
        registry = cls()
        with open(path, encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                token = line.rstrip("\n")
                if token in registry:
                    raise ValueError(
                        f"vocabulary file {path} line {line_number} repeats token {token!r} "
                        f"from line {registry.id_of(token) + 1}")
                registry.add(token)
        return registry


def tokenize(text: str, registry: VocabRegistry, grow: bool = False) -> list[TokenId]:
    """Map whitespace-delimited ``text`` to ids, registering new forms if ``grow``."""
    tokens = text.split()
    if not tokens:
        raise ValueError("cannot tokenize empty or whitespace-only text")
    if grow:
        return [registry.add(token) for token in tokens]
    return [registry.id_of(token) for token in tokens]


def detokenize(ids: Sequence[TokenId], registry: VocabRegistry) -> str:
    """Inverse of :func:`tokenize` up to whitespace normalization."""
    return " ".join(registry.token_of(token_id) for token_id in ids)
