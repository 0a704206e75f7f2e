"""Reference-vs-hypothesis lexical scoring.

Conventions (also flagged in CLI output headers):

* exact_match: whitespace-normalized string equality, 0 or 1.
* edit_similarity: 1 - levenshtein/max-length at character level, so higher
  is better and identical strings score 1. The distance is computed
  bit-parallel (Myers 1999, Hyyro 2001): one Python int per DP column over
  the shorter string, one pass over the longer, O(n * ceil(m / w)) word ops.
* bleu: sentence-level, n-gram orders 1..4 but never longer than the
  hypothesis, uniform weights, add-one smoothing on every order, times the
  standard brevity penalty. Scores sit in [0, 1].
* rouge_l: F1 of the longest common subsequence over whitespace tokens, its
  length bit-parallel (Crochemore et al. 2001, Hyyro 2004) over the hypothesis.
* chrf: character n-gram F-score, orders 1..6 on whitespace-stripped text,
  recall-weighted with beta = 2, scaled to [0, 100].

Bootstrap intervals resample with ``random.Random(seed).randrange`` picks
and add each resample's values left to right, in item order.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .summation import left_sum

METRIC_FIELDS = ("exact_match", "edit_similarity", "bleu", "rouge_l", "chrf")

# Mersenne Twister words per bootstrap draw: 16 KB, so no transient array grows
# with the resample count.
_WORD_BLOCK = 4096


@dataclass(frozen=True)
class MetricBundle:
    exact_match: float
    edit_similarity: float
    bleu: float
    rouge_l: float
    chrf: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_FIELDS}


def levenshtein(a: str, b: str) -> int:
    """Character edit distance, bit-parallel over the shorter string.

    Myers (JACM 1999) in Hyyro's (2001) formulation for global distance: bit
    ``i`` of ``vp``/``vn`` holds the +1/-1 vertical delta of row ``i`` in the
    current column, one Python int for the whole column, and ``score`` follows
    the last row.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq = _match_masks(b)
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    vp, vn, score = mask, 0, len(b)
    for char in a:
        eq = peq.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            score += 1
        elif hn & last:
            score -= 1
        # row 0 grows by one per column, so a +1 horizontal delta enters at bit 0
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return score


def _match_masks(items: Sequence) -> dict:
    """Bit ``i`` of ``masks[x]`` is set where ``items[i] == x``."""
    masks: dict = {}
    for i, item in enumerate(items):
        masks[item] = masks.get(item, 0) | (1 << i)
    return masks


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """LCS length; a zero bit ``j`` of ``v`` is a +1 step of the DP column at ``b[j]``."""
    masks = _match_masks(b)
    full = (1 << len(b)) - 1
    v = full
    for item in a:
        u = v & masks.get(item, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _ngram_counts(items: Sequence, n: int) -> Counter:
    return Counter(items[i : i + n] for i in range(len(items) - n + 1))


def sentence_bleu(reference_tokens: Sequence[str], hypothesis_tokens: Sequence[str]) -> float:
    reference, hypothesis = tuple(reference_tokens), tuple(hypothesis_tokens)
    hyp_len, ref_len = len(hypothesis), len(reference)
    if hyp_len == 0:
        return 0.0
    log_precisions = []
    for order in range(1, min(4, hyp_len) + 1):
        counts = _ngram_counts(hypothesis, order) & _ngram_counts(reference, order)
        total = hyp_len - order + 1
        log_precisions.append(math.log((sum(counts.values()) + 1) / (total + 1)))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * math.exp(left_sum(log_precisions) / len(log_precisions))


def rouge_l(reference_tokens: Sequence[str], hypothesis_tokens: Sequence[str]) -> float:
    if not reference_tokens or not hypothesis_tokens:
        return 0.0
    lcs = _lcs_length(reference_tokens, hypothesis_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(hypothesis_tokens)
    recall = lcs / len(reference_tokens)
    return 2.0 * precision * recall / (precision + recall)


def chrf(reference: str, hypothesis: str, max_order: int = 6, beta: float = 2.0) -> float:
    ref_chars = "".join(reference.split())
    hyp_chars = "".join(hypothesis.split())
    precisions = []
    recalls = []
    longest = max(len(ref_chars), len(hyp_chars))
    for order in range(1, min(max_order, longest) + 1):
        ref_total = max(len(ref_chars) - order + 1, 0)
        hyp_total = max(len(hyp_chars) - order + 1, 0)
        counts = _ngram_counts(hyp_chars, order) & _ngram_counts(ref_chars, order)
        matches = sum(counts.values())
        precisions.append(matches / hyp_total if hyp_total else 0.0)
        recalls.append(matches / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    mean_p = left_sum(precisions) / len(precisions)
    mean_r = left_sum(recalls) / len(recalls)
    denominator = beta * beta * mean_p + mean_r
    if denominator == 0:
        return 0.0
    return 100.0 * (1.0 + beta * beta) * mean_p * mean_r / denominator


def evaluate_pair(reference: str, hypothesis: str) -> MetricBundle:
    """All metrics for one pair; the reference must be non-empty."""
    ref_norm = " ".join(reference.split())
    if not ref_norm:
        raise ValueError("reference is empty after whitespace normalization")
    hyp_norm = " ".join(hypothesis.split())
    ref_tokens = ref_norm.split()
    hyp_tokens = hyp_norm.split()
    distance = levenshtein(ref_norm, hyp_norm)
    longest = max(len(ref_norm), len(hyp_norm))
    return MetricBundle(
        exact_match=1.0 if ref_norm == hyp_norm else 0.0,
        edit_similarity=1.0 - distance / longest,
        bleu=sentence_bleu(ref_tokens, hyp_tokens),
        rouge_l=rouge_l(ref_tokens, hyp_tokens),
        chrf=chrf(ref_norm, hyp_norm),
    )


def aggregate(bundles: Sequence[MetricBundle]) -> MetricBundle:
    """Arithmetic mean per field."""
    if not bundles:
        raise ValueError("nothing to aggregate")
    count = len(bundles)
    return MetricBundle(
        **{name: left_sum(getattr(b, name) for b in bundles) / count for name in METRIC_FIELDS}
    )


def _bootstrap_picks(rng: random.Random, count: int, n_resamples: int) -> np.ndarray:
    """``rng.randrange(count)`` drawn ``n_resamples * count`` times, row-major.

    ``randrange(count)`` keeps the top ``count.bit_length()`` bits of one
    32-bit Mersenne Twister word and draws again while the value is not below
    ``count``; ``getrandbits(32 * n)`` returns the next ``n`` words, first word
    least significant. Drawing words in blocks and keeping the small ones
    therefore yields the same picks in the same order, and the same words
    consumed, up to the unused tail of the last block. Needs count < 2**32.
    """
    shift = 32 - count.bit_length()
    picks = np.empty(n_resamples * count, dtype=np.min_scalar_type(count - 1))
    filled = 0
    while filled < picks.size:
        raw = rng.getrandbits(32 * _WORD_BLOCK).to_bytes(4 * _WORD_BLOCK, "little")
        values = np.frombuffer(raw, dtype="<u4") >> shift
        kept = values[values < count][: picks.size - filled]
        picks[filled : filled + kept.size] = kept
        filled += kept.size
    return picks.reshape(n_resamples, count)


def aggregate_with_ci(
    bundles: Sequence[MetricBundle],
    n_resamples: int = 1000,
    seed: int = 0,
    confidence: float = 0.95,
) -> tuple[MetricBundle, dict[str, tuple[float, float]]]:
    """Means plus seeded bootstrap percentile intervals per field.

    Resample ``r`` is row ``r`` of the picks; its mean adds the picked values
    in pick order, one ``sums +=`` per position, then divides by the count.
    """
    means = aggregate(bundles)
    count = len(bundles)
    picks = _bootstrap_picks(random.Random(seed), count, n_resamples)
    tail = (1.0 - confidence) / 2.0
    lo_index = int(round(tail * (n_resamples - 1)))
    hi_index = int(round((1.0 - tail) * (n_resamples - 1)))
    table = np.array([[getattr(b, name) for name in METRIC_FIELDS] for b in bundles])
    sums = np.zeros((n_resamples, len(METRIC_FIELDS)))
    for i in range(count):
        sums += table[picks[:, i]]
    values = np.sort(sums / count, axis=0)
    intervals = {
        name: (float(values[lo_index, f]), float(values[hi_index, f]))
        for f, name in enumerate(METRIC_FIELDS)
    }
    return means, intervals
