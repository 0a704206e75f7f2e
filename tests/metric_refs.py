"""Independent reference implementations of the lexical metrics.

Kept deliberately different from the production code paths: full-matrix
edit distance, memoized recursive LCS, product-form BLEU, one ``randrange``
call per bootstrap pick. Used to cross-check the bundled metric suite.
"""

import itertools
import math
import random
from collections import Counter
from functools import lru_cache


def ref_levenshtein(a, b):
    """Full-matrix edit distance."""
    rows, cols = len(a) + 1, len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


def ref_lcs(a, b):
    """Recursive memoized longest common subsequence."""

    @lru_cache(maxsize=None)
    def walk(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + walk(i + 1, j + 1)
        return max(walk(i + 1, j), walk(i, j + 1))

    return walk(0, 0)


def ref_rouge_l(ref, hyp):
    ref_t, hyp_t = tuple(ref.split()), tuple(hyp.split())
    if not ref_t or not hyp_t:
        return 0.0
    lcs = ref_lcs(ref_t, hyp_t)
    if lcs == 0:
        return 0.0
    p, r = lcs / len(hyp_t), lcs / len(ref_t)
    return 2 * p * r / (p + r)


def _grams(seq, n):
    return Counter(itertools.islice(zip(*(seq[k:] for k in range(n))), None))


def ref_bleu(ref, hyp):
    ref_t, hyp_t = ref.split(), hyp.split()
    if not hyp_t:
        return 0.0
    product = 1.0
    orders = 0
    for n in range(1, 5):
        if n > len(hyp_t):
            break
        hyp_grams = _grams(hyp_t, n)
        ref_grams = _grams(ref_t, n)
        overlap = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
        product *= (overlap + 1) / (sum(hyp_grams.values()) + 1)
        orders += 1
    bp = min(1.0, math.exp(1 - len(ref_t) / len(hyp_t)))
    return bp * product ** (1 / orders)


def ref_chrf(ref, hyp, beta=2.0):
    r = ref.replace(" ", "")
    h = hyp.replace(" ", "")
    ps, rs = [], []
    for n in range(1, 7):
        rg, hg = _grams(r, n), _grams(h, n)
        if not rg and not hg:
            continue
        matches = sum(min(c, rg[g]) for g, c in hg.items())
        ps.append(matches / sum(hg.values()) if hg else 0.0)
        rs.append(matches / sum(rg.values()) if rg else 0.0)
    if not ps:
        return 0.0
    p, r_ = sum(ps) / len(ps), sum(rs) / len(rs)
    if beta * beta * p + r_ == 0:
        return 0.0
    return 100 * (1 + beta * beta) * p * r_ / (beta * beta * p + r_)


def ref_edit_similarity(ref, hyp):
    longest = max(len(ref), len(hyp))
    if longest == 0:
        return 1.0
    return 1.0 - ref_levenshtein(ref, hyp) / longest


FIELDS = ("exact_match", "edit_similarity", "bleu", "rouge_l", "chrf")


def ref_aggregate_with_ci(bundles, n_resamples=1000, seed=0, confidence=0.95):
    """Means and bootstrap percentile intervals, one ``randrange`` per pick.

    Returns ``(means, intervals)`` as dicts keyed by field name.
    """
    count = len(bundles)
    means = {name: sum(getattr(b, name) for b in bundles) / count for name in FIELDS}
    rng = random.Random(seed)
    columns = {name: [getattr(b, name) for b in bundles] for name in FIELDS}
    samples = {name: [] for name in FIELDS}
    for _ in range(n_resamples):
        picks = [rng.randrange(count) for _ in range(count)]
        for name, column in columns.items():
            samples[name].append(sum(column[i] for i in picks) / count)
    tail = (1.0 - confidence) / 2.0
    intervals = {}
    for name, values in samples.items():
        values.sort()
        lo_index = int(round(tail * (n_resamples - 1)))
        hi_index = int(round((1.0 - tail) * (n_resamples - 1)))
        intervals[name] = (values[lo_index], values[hi_index])
    return means, intervals
