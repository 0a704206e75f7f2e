"""Turns trie lookups into a scored candidate set and a sparse distribution.

For the current decoding prefix, every suffix shorter than the trie's n_max
is looked up in the trie, longest first; each child of a matched path
becomes one raw ``(token, FeatureTriple)`` candidate carrying that node's
stored features. The raw features are then normalized across the whole
collected set:

* frequency is log-damped and divided by the set maximum, so heavy counts
  cannot swamp the other signals;
* depth is divided by the prefix length and clamped at 1, crediting longer
  contextual matches proportionally;
* the recency gap (query time minus last-seen time) is shifted so the
  freshest candidate sits at gap zero, then squashed with exp(-gap/max_gap),
  giving the freshest candidate exactly 1 while older ones stay positive.

The final score is the convex combination of the three normalized features
under the configured weights, so it always lands in (0, 1]. A token reached
through several suffixes keeps its best score. The distribution keeps the
top score as the top token's probability and splits the remaining mass
among the rest proportionally to their scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyCandidates
from .summation import left_sum
from .trie import FeatureTriple, PrefixTrie
from .vocab import TokenId


@dataclass(frozen=True)
class ScoringWeights:
    """Non-negative mixing weights for (frequency, length, recency); sum to 1."""

    frequency: float = 1.0 / 3.0
    length: float = 1.0 / 3.0
    recency: float = 1.0 / 3.0

    def __post_init__(self):
        for name in ("frequency", "length", "recency"):
            if not getattr(self, name) >= 0:  # written so that NaN fails too
                raise ValueError(f"weight {name} must be non-negative")
        total = self.frequency + self.length + self.recency
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")


DEFAULT_WEIGHTS = ScoringWeights()


@dataclass
class SparseDistribution:
    """Probabilities over the candidate support, in ascending token order; zero mass elsewhere."""

    probs: dict[TokenId, float]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("sparse distribution needs at least one entry")
        self.probs = dict(sorted(self.probs.items()))
        if not all(p >= 0 for p in self.probs.values()):  # NaN fails too
            raise ValueError("probabilities must be non-negative")
        total = left_sum(self.probs.values())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")

    def max_prob(self) -> float:
        return max(self.probs.values())

    def argmax_token(self) -> TokenId:
        """The most probable token; ``max`` keeps the first, so ties go to the smallest id."""
        return max(self.probs, key=self.probs.__getitem__)

    def top_tokens(self, k: int) -> list[TokenId]:
        """Up to ``k`` positive-mass tokens, highest probability first, ties by id."""
        ranked = sorted(
            ((token, prob) for token, prob in self.probs.items() if prob > 0),
            key=lambda item: (-item[1], item[0]),
        )
        return [token for token, _ in ranked[:k]]


def collect_candidates(
    trie: PrefixTrie, prefix: Sequence[TokenId]
) -> list[tuple[TokenId, FeatureTriple]]:
    """Union of next-token lookups for every suffix of ``prefix`` shorter than n_max.

    Longest suffix first, each node's children in insertion order. A suffix
    of n_max or more tokens always ends at a leaf (paths stop at depth
    n_max), so each step walks at most n_max - 1 suffixes whatever the
    prefix length.
    """
    prefix = list(prefix)
    if not prefix:
        raise ValueError("prefix must be non-empty")
    raw: list[tuple[TokenId, FeatureTriple]] = []
    for length in range(min(len(prefix), trie.config.n_max - 1), 0, -1):
        raw += trie.next_tokens(prefix[len(prefix) - length :])
    return raw


def score_candidates(
    raw: Sequence[tuple[TokenId, FeatureTriple]],
    prefix_len: int,
    now: float,
    weights: ScoringWeights = DEFAULT_WEIGHTS,
) -> dict[TokenId, float]:
    """Token -> best score over its raw entries, in first-seen token order.

    Two passes: the maxima are taken only after everything is gathered, as
    normalizing inside the collection loop would divide by a moving maximum.
    """
    if not raw:
        raise EmptyCandidates("no raw candidates to score")
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")

    damped = [math.log1p(features.frequency) for _, features in raw]
    damped_max = max(damped)
    gaps = [now - features.recency for _, features in raw]
    gap_base = min(gaps)
    shifted = [gap - gap_base for gap in gaps]
    gap_max = max(shifted)

    best: dict[TokenId, float] = {}
    for (token, features), freq_damped, gap in zip(raw, damped, shifted):
        score = (
            weights.frequency * (freq_damped / damped_max)
            + weights.length * min(1.0, features.depth / prefix_len)
            + weights.recency * (1.0 if gap_max == 0 else math.exp(-gap / gap_max))
        )
        current = best.get(token)
        if current is None or score > current:
            best[token] = score
    return best


def top_preserving_distribution(scores: dict[TokenId, float]) -> SparseDistribution:
    """Keep the best score as the winner's probability, share the rest.

    The winner (ties broken toward the smallest token id) gets exactly its
    score; the remaining 1 - score mass is split among the other candidates
    proportionally to their scores. A single candidate takes all the mass.
    """
    if not scores:
        raise EmptyCandidates("cannot normalize an empty candidate set")
    score_max = max(scores.values())
    winner = min(token for token, score in scores.items() if score == score_max)
    if len(scores) == 1:
        return SparseDistribution({winner: 1.0})
    rest_total = left_sum(score for token, score in scores.items() if token != winner)
    return SparseDistribution({
        token: score_max if token == winner else (1.0 - score_max) * score / rest_total
        for token, score in scores.items()
    })


def trie_prior(
    trie: PrefixTrie,
    prefix: Sequence[TokenId],
    now: float,
    weights: ScoringWeights = DEFAULT_WEIGHTS,
) -> SparseDistribution | None:
    """Full collect -> score -> normalize pipeline; None when the trie is silent."""
    raw = collect_candidates(trie, prefix)
    if not raw:
        return None
    return top_preserving_distribution(score_candidates(raw, len(prefix), now, weights))
