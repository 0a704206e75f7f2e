"""Turns trie lookups into a scored candidate set and a sparse distribution.

For the current decoding prefix, every suffix shorter than the trie's n_max
is looked up in the trie, longest first, in one locked read
(``PrefixTrie.suffix_columns``); each child of a matched path is one raw
candidate, held as an entry of its suffix's token, frequency and recency
columns, with the child depth shared by the suffix. The raw features are
then normalized across the whole collected set:

* frequency is log-damped and divided by the set maximum, so heavy counts
  cannot swamp the other signals;
* depth is divided by the prefix length and clamped at 1, crediting longer
  contextual matches proportionally;
* the recency gap (query time minus last-seen time) is shifted so the
  freshest candidate sits at gap zero, then squashed with exp(-gap/max_gap),
  giving the freshest candidate exactly 1 while older ones stay positive.

The final score is the convex combination of the three normalized features
under the configured weights, so it always lands in (0, 1]. A step's ~100
candidates carry only a few distinct frequencies and recencies, so each
weighted feature term is computed once per distinct value (the length term
once per suffix) and every score is their sum, left to right. A token reached
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
from .trie import PrefixTrie, SuffixColumns
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
        probs = self.probs
        self.probs = {token: probs[token] for token in sorted(probs)}
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
        """Up to ``k`` positive-mass tokens, highest probability first, ties by id.

        The sort is stable and the keys are ascending, so equal probabilities
        keep the smaller id first; zero mass sorts last, so dropping it after
        the cut leaves the same tokens as dropping it before.
        """
        probs = self.probs
        ranked = sorted(probs, key=probs.__getitem__, reverse=True)[:k]
        return [token for token in ranked if probs[token] > 0]


class RawCandidates:
    """Every (token, matched suffix) entry of one step, as per-suffix node columns.

    ``len()`` is the raw entry count over all suffixes, so a token reached
    through several suffixes counts once per suffix.
    """

    __slots__ = ("columns", "count")

    def __init__(self, columns: list[SuffixColumns]):
        self.columns = columns
        self.count = sum(len(group.tokens) for group in columns)

    def __len__(self) -> int:
        return self.count


def collect_candidates(trie: PrefixTrie, prefix: Sequence[TokenId]) -> RawCandidates:
    """Children of every suffix of ``prefix`` shorter than n_max, from one locked trie read.

    Longest suffix first, each node's children in insertion order.
    """
    if len(prefix) == 0:
        raise ValueError("prefix must be non-empty")
    return RawCandidates(trie.suffix_columns(prefix))


def score_candidates(
    raw: RawCandidates,
    prefix_len: int,
    now: float,
    weights: ScoringWeights = DEFAULT_WEIGHTS,
) -> dict[TokenId, float]:
    """Token -> best score over its raw entries, in first-seen token order.

    Two passes: the maxima are taken only after everything is gathered, as
    normalizing inside the collection loop would divide by a moving maximum.
    Each feature term is computed once per distinct column value (a step
    sees a few distinct frequencies and recencies among ~100 entries); the
    extremes over distinct values are those over all entries.
    """
    if not raw:
        raise EmptyCandidates("no raw candidates to score")
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    columns = raw.columns
    frequencies, recencies = set(), set()
    for group in columns:
        frequencies.update(group.frequencies)
        recencies.update(group.recencies)

    damped = {freq: math.log1p(freq) for freq in frequencies}
    damped_max = max(damped.values())
    frequency_term = {freq: weights.frequency * (d / damped_max) for freq, d in damped.items()}
    # float subtraction rounds monotonically, so the newest recency gives the
    # smallest gap and the oldest the widest shifted gap
    gap_base = now - max(recencies)
    gap_max = (now - min(recencies)) - gap_base
    recency_term = {
        recency: weights.recency * (
            1.0 if gap_max == 0 else math.exp(-((now - recency) - gap_base) / gap_max))
        for recency in recencies
    }

    best: dict[TokenId, float] = {}
    for group in columns:
        length_term = weights.length * min(1.0, group.depth / prefix_len)
        for token, freq, recency in zip(group.tokens, group.frequencies, group.recencies):
            score = frequency_term[freq] + length_term + recency_term[recency]
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
    share = 1.0 - score_max
    probs = {token: share * score / rest_total for token, score in scores.items()}
    probs[winner] = score_max
    return SparseDistribution(probs)


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
