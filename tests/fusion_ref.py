"""Reference copies of the full-vocabulary fusion primitives.

These are ``softmax_with_temperature``, ``entropy_confidence``,
``calibrate_temperature`` (plain bisection, one ``exp`` pass per evaluated
temperature) and ``top_k_tokens`` (one ``np.partition``) as they stood
before the calibration replay, the shared ``q_lm`` row and the argmax top-k,
and ``fuse_step`` as it stood before it range-checked only the ends of the
prior's support and ranked the prior's top tokens by a keyed sort, kept
verbatim so tests can assert ``==`` against the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import prior_ref
from triefusion import fusion
from triefusion.errors import NonPositiveTemperature
from triefusion.fusion import (
    BRACKET_HI,
    BRACKET_LO,
    CONTINUITY_SCALE,
    DEFAULT_TOP_K,
    TEMPERATURE_CEIL,
    TEMPERATURE_FLOOR,
    DenseDistribution,
    LogitVector,
    StepDiagnostics,
)
from triefusion.prior import SparseDistribution
from triefusion.summation import left_sum
from triefusion.vocab import TokenId


@dataclass(frozen=True)
class CalibrationResult:
    temperature: float
    clamped: bool
    iterations: int


def softmax_with_temperature(z: LogitVector, temperature: float) -> DenseDistribution:
    """Numerically stable softmax of z / temperature; argmax is preserved."""
    if not temperature > 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature!r}")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("logit vector is empty")
    shifted = (z - z.max()) / temperature
    exps = np.exp(shifted)
    return exps / exps.sum()


def entropy_confidence(q: DenseDistribution) -> float:
    """1 - H(q)/log|V|: 0 for the uniform distribution, 1 for a one-hot."""
    q = np.asarray(q, dtype=float)
    if q.size < 2:
        raise ValueError("confidence needs a vocabulary of at least 2")
    positive = q[q > 0]
    entropy = float(-(positive * np.log(positive)).sum())
    confidence = 1.0 - entropy / math.log(q.size)
    return min(1.0, max(0.0, confidence))


def calibrate_temperature(
    z: LogitVector,
    target_max: float,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> CalibrationResult:
    """Find T with max softmax(z/T) == target_max by bisection in log T.

    The peak probability is continuous and strictly decreasing in T for any
    non-constant z, so a sign change brackets a unique root. The initial
    bracket [1e-3, 1e3] is widened geometrically if needed. Unattainable
    targets clamp: constant logits pin the peak at 1/|V| (T = 1 returned),
    target 1 needs T -> 0 (floor returned), target <= 1/|V| needs T -> inf
    (ceiling returned); all clamped results are flagged.
    """
    z = np.asarray(z, dtype=float)
    if z.size < 2:
        raise ValueError("calibration needs a vocabulary of at least 2")
    if not 0.0 < target_max <= 1.0:
        raise ValueError(f"target_max must be in (0, 1], got {target_max!r}")

    shifted = z - z.max()

    def peak(temperature: float) -> float:
        # max softmax == 1 / sum exp((z - max)/T): the max term is exp(0).
        return 1.0 / float(np.exp(shifted / temperature).sum())

    if np.ptp(z) == 0:
        return CalibrationResult(1.0, True, 0)
    if target_max >= 1.0:
        return CalibrationResult(TEMPERATURE_FLOOR, True, 0)
    if target_max <= 1.0 / z.size:
        return CalibrationResult(TEMPERATURE_CEIL, True, 0)

    lo, hi = BRACKET_LO, BRACKET_HI
    while peak(lo) < target_max:
        lo *= 0.1
        if lo <= TEMPERATURE_FLOOR:
            return CalibrationResult(TEMPERATURE_FLOOR, True, 0)
    while peak(hi) > target_max:
        hi *= 10.0
        if hi >= TEMPERATURE_CEIL:
            return CalibrationResult(TEMPERATURE_CEIL, True, 0)

    mid = math.sqrt(lo * hi)
    for iteration in range(1, max_iterations + 1):
        mid = math.sqrt(lo * hi)
        gap = peak(mid) - target_max
        if abs(gap) <= tol:
            return CalibrationResult(mid, False, iteration)
        if gap > 0:
            lo = mid
        else:
            hi = mid
    return CalibrationResult(mid, False, max_iterations)


def top_k_tokens(q: DenseDistribution, k: int) -> list[TokenId]:
    """Indices of the k largest entries; boundary ties go to smaller ids."""
    q = np.asarray(q, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, q.size)
    kth_value = np.partition(q, q.size - k)[q.size - k]
    above = np.flatnonzero(q > kth_value)
    ties = np.flatnonzero(q == kth_value)
    chosen = np.concatenate([above, ties[: k - above.size]])
    return sorted(int(t) for t in chosen)


def disagreement(q_lm: DenseDistribution, prior: SparseDistribution, k: int) -> float:
    """``fusion.disagreement`` with the prior's top tokens from ``prior_ref.top_tokens``."""
    q_lm = np.asarray(q_lm, dtype=float)
    union = sorted(set(fusion.top_k_tokens(q_lm, k)) | set(prior_ref.top_tokens(prior.probs, k)))
    lm_raw = [float(q_lm[token]) for token in union]
    trie_raw = [prior.probs.get(token, 0.0) for token in union]
    if left_sum(lm_raw) <= 0.0 or left_sum(trie_raw) <= 0.0:
        return 1.0  # degenerate support
    return min(1.0, fusion.root_jensen_shannon(lm_raw, trie_raw))


def fuse_step(
    z: LogitVector,
    prior: SparseDistribution | None,
    run_length: int = 0,
    top_k: int = DEFAULT_TOP_K,
    continuity_scale: float = CONTINUITY_SCALE,
) -> tuple[TokenId, StepDiagnostics, int]:
    """One step after a streak of ``run_length``; returns (token, diagnostics, new streak)."""
    if prior is None:
        return fusion.bypass_step(z)
    z = fusion._checked_logits(z)
    for token in prior.probs:
        if not 0 <= token < z.size:
            raise ValueError(f"prior token {token} outside vocabulary of {z.size}")

    c_lm = fusion.entropy_confidence(fusion.softmax_with_temperature(z, 1.0))
    score_max = min(1.0, prior.max_prob())
    c_trie = score_max
    calibration = fusion.calibrate_temperature(z, score_max)
    q_lm = calibration.probs
    omega = disagreement(q_lm, prior, top_k)
    continuity_value = fusion.continuity(run_length, continuity_scale)
    c_lm_adjusted, c_trie_adjusted = fusion.adjust_confidences(
        c_lm, c_trie, omega, continuity_value)
    denominator = c_lm_adjusted + c_trie_adjusted
    gamma = 0.5 if denominator == 0.0 else c_lm_adjusted / denominator

    lm_top = int(np.argmax(q_lm))
    fused = q_lm
    fused *= gamma
    trie_share = 1.0 - gamma
    for token, prob in prior.probs.items():
        fused[token] += trie_share * prob
    chosen = int(np.argmax(fused))

    streak = run_length + 1 if lm_top == prior.argmax_token() else 0
    diagnostics = StepDiagnostics(
        c_lm=c_lm,
        c_trie=c_trie,
        c_lm_adjusted=c_lm_adjusted,
        c_trie_adjusted=c_trie_adjusted,
        omega=omega,
        continuity=continuity_value,
        gamma=gamma,
        temperature=calibration.temperature,
        temperature_clamped=calibration.clamped,
        bypass=False,
    )
    return chosen, diagnostics, streak
