"""Reference copy of the collect -> score -> distribute prior pipeline.

This is the pipeline as it stood before ``triefusion.prior`` moved to plain
``(token, FeatureTriple)`` lists and ``token -> score`` dicts, kept verbatim
(wrapper classes included) so tests can assert ``==`` on every probability,
order included, against the production path. Each suffix's children are read
through ``trie_ref.suffix_children``, the one-suffix lookup it was written
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from trie_ref import FeatureTriple, suffix_children
from triefusion.prior import DEFAULT_WEIGHTS, ScoringWeights, SparseDistribution
from triefusion.trie import PrefixTrie
from triefusion.vocab import TokenId


@dataclass(frozen=True)
class RawCandidate:
    """One (token, matched suffix) pair before deduplication."""

    token: TokenId
    features: FeatureTriple
    source_suffix_len: int


@dataclass(frozen=True)
class CandidateScore:
    score: float
    normalized: tuple[float, float, float]  # (frequency', length', recency')


@dataclass
class CandidateSet:
    """Deduplicated candidates; per token the best score over all suffixes."""

    entries: dict[TokenId, CandidateScore] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


def collect_candidates(trie: PrefixTrie, prefix: Sequence[TokenId]) -> list[RawCandidate]:
    """Union of next-token lookups for every suffix of ``prefix``.

    Suffix lengths 1..len(prefix) are each walked once, so the trie work is
    quadratic in the prefix length and independent of the stored corpus.
    """
    prefix = list(prefix)
    if not prefix:
        raise ValueError("prefix must be non-empty")
    raw: list[RawCandidate] = []
    for length in range(len(prefix), 0, -1):
        suffix = prefix[len(prefix) - length :]
        for token, features in suffix_children(trie, suffix):
            raw.append(RawCandidate(token, features, length))
    return raw


def score_candidates(
    raw: Sequence[RawCandidate],
    prefix_len: int,
    now: float,
    weights: ScoringWeights = DEFAULT_WEIGHTS,
) -> CandidateSet:
    """Two passes: normalize features across the full raw set, then score.

    Normalizing inside the collection loop would divide by a maximum that is
    still moving, so the maxima are taken only after everything is gathered.
    """
    if not raw:
        raise ValueError("no raw candidates to score")
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")

    damped = [math.log1p(cand.features.frequency) for cand in raw]
    damped_max = max(damped)
    gaps = [now - cand.features.recency for cand in raw]
    gap_base = min(gaps)
    shifted = [gap - gap_base for gap in gaps]
    gap_max = max(shifted)

    best: dict[TokenId, CandidateScore] = {}
    for cand, freq_damped, gap in zip(raw, damped, shifted):
        freq_norm = freq_damped / damped_max
        len_norm = min(1.0, cand.features.depth / prefix_len)
        rec_norm = 1.0 if gap_max == 0 else math.exp(-gap / gap_max)
        score = (
            weights.frequency * freq_norm
            + weights.length * len_norm
            + weights.recency * rec_norm
        )
        current = best.get(cand.token)
        if current is None or score > current.score:
            best[cand.token] = CandidateScore(score, (freq_norm, len_norm, rec_norm))
    return CandidateSet(entries=best)


def top_preserving_distribution(candidates: CandidateSet) -> SparseDistribution:
    """Keep the best score as the winner's probability, share the rest.

    The winner (ties broken toward the smallest token id) gets exactly its
    score; the remaining 1 - score mass is split among the other candidates
    proportionally to their scores. A single candidate takes all the mass.
    """
    if not candidates:
        raise ValueError("cannot normalize an empty candidate set")
    entries = candidates.entries
    score_max = max(entry.score for entry in entries.values())
    winner = min(token for token, entry in entries.items() if entry.score == score_max)
    if len(entries) == 1:
        return SparseDistribution({winner: 1.0})
    rest_total = sum(entry.score for token, entry in entries.items() if token != winner)
    probs: dict[TokenId, float] = {}
    for token in sorted(entries):
        if token == winner:
            probs[token] = score_max
        else:
            probs[token] = (1.0 - score_max) * entries[token].score / rest_total
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


def top_tokens(probs: dict[TokenId, float], k: int) -> list[TokenId]:
    """``SparseDistribution.top_tokens`` as it stood: positive mass sorted by (-prob, token)."""
    ranked = sorted(
        ((token, prob) for token, prob in probs.items() if prob > 0),
        key=lambda item: (-item[1], item[0]),
    )
    return [token for token, _ in ranked[:k]]


def argmax_token(probs: dict[TokenId, float]) -> TokenId:
    """``SparseDistribution.argmax_token`` as it stood: a scan in sorted token order."""
    best_token, best_prob = -1, -1.0
    for token in sorted(probs):
        prob = probs[token]
        if prob > best_prob:
            best_token, best_prob = token, prob
    return best_token
