"""Reference copies of the two root Jensen-Shannon loops.

These are ``fusion.disagreement`` and ``stream.lexical_drift_telemetry`` as
they stood when each carried its own divergence loop, kept verbatim so tests
can assert ``==`` against the production path, which now shares one loop.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable

import numpy as np

from triefusion.fusion import DEFAULT_TOP_K, top_k_tokens
from triefusion.prior import SparseDistribution


def disagreement(q_lm, prior: SparseDistribution, k: int = DEFAULT_TOP_K) -> float:
    q_lm = np.asarray(q_lm, dtype=float)
    union = sorted(set(top_k_tokens(q_lm, k)) | set(prior.top_tokens(k)))
    lm_raw = [float(q_lm[token]) for token in union]
    trie_raw = [prior.probs.get(token, 0.0) for token in union]
    lm_mass = sum(lm_raw)
    trie_mass = sum(trie_raw)
    if lm_mass <= 0.0 or trie_mass <= 0.0:
        return 1.0  # degenerate support
    divergence = 0.0
    for lm_value, trie_value in zip(lm_raw, trie_raw):
        p = lm_value / lm_mass
        q = trie_value / trie_mass
        m = 0.5 * (p + q)
        if p > 0:
            divergence += 0.5 * p * math.log(p / m)
        if q > 0:
            divergence += 0.5 * q * math.log(q / m)
    return min(1.0, math.sqrt(max(0.0, divergence)))


def lexical_drift_telemetry(window_a: Iterable, window_b: Iterable) -> float:
    counts_a = Counter(window_a)
    counts_b = Counter(window_b)
    if not counts_a or not counts_b:
        raise ValueError("both windows must contain at least one token")
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    divergence = 0.0
    for token in set(counts_a) | set(counts_b):
        p = counts_a.get(token, 0) / total_a
        q = counts_b.get(token, 0) / total_b
        m = 0.5 * (p + q)
        if p > 0:
            divergence += 0.5 * p * math.log(p / m)
        if q > 0:
            divergence += 0.5 * q * math.log(q / m)
    return math.sqrt(max(0.0, divergence))
