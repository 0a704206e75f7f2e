"""Adaptive fusion of the dense base-model distribution with the trie prior.

Per decoding step the engine:

1. reads the base model's confidence off the entropy of its untempered
   softmax (1 - H/log|V|, natural log, so 0 is uniform and 1 is one-hot),
2. rescales the base logits with a bisection-calibrated temperature so the
   base peak probability matches the trie prior's peak; the bisection is
   replayed from a Newton-seeded bracket, which gives the same floats with a
   fraction of its full-vocabulary exp passes; every tempered row is an exp
   pass over the one shifted row z - max(z) over its sum, but at the
   temperature floor every entry more than 7.5e-7 under the peak
   underflows to 0, so a row with no other entry that close gets 1/ties on
   the peak's ties and 0 elsewhere without an exp pass,
3. measures expert disagreement as the square root of the Jensen-Shannon
   divergence between the two distributions renormalized over the union of
   their top-k tokens,
4. rewards the trie for a streak of consecutive top-token agreements with a
   saturating bonus 1 - exp(-streak/scale),
5. penalizes the base confidence by (1 - disagreement^2), mixes the two
   distributions with the relative adjusted confidences, and picks the
   argmax of the mixture (ties go to the smallest token id).

Steps with no trie candidates bypass all of this and fall back to greedy
selection from the raw logits, resetting the agreement streak.

Everything here is pure; the agreement streak is an int that each step
takes and returns, one per generated sequence. Full-vocabulary temporaries
live in three scratch rows per thread (24 bytes per vocabulary entry, kept
for the last width used); only ``softmax_with_temperature``'s return and
``CalibrationResult.probs`` are fresh arrays.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .prior import DEFAULT_WEIGHTS, ScoringWeights, SparseDistribution
from .summation import left_sum
from .vocab import TokenId

# Unnormalized log-score row / probability row over the full vocabulary.
LogitVector = np.ndarray
DenseDistribution = np.ndarray

DEFAULT_TOP_K = 5
DEFAULT_MAX_NEW_TOKENS = 64
CONTINUITY_SCALE = 3.0
BRACKET_LO = 1e-3
BRACKET_HI = 1e3
TEMPERATURE_FLOOR = 1e-9
TEMPERATURE_CEIL = 1e9
STRATEGIES = ("odd", "greedy", "temp-scaled")
# (z - max) / TEMPERATURE_FLOOR is below -745, where exp underflows to 0, for
# every entry further than this under the peak
_FLOOR_REACH = 7.5e-7


@dataclass(frozen=True)
class StepDiagnostics:
    c_lm: float
    c_trie: float
    c_lm_adjusted: float
    c_trie_adjusted: float
    omega: float
    continuity: float
    gamma: float
    temperature: float
    temperature_clamped: bool
    bypass: bool


@dataclass(frozen=True)
class CalibrationResult:
    temperature: float
    clamped: bool
    iterations: int
    # False only when the bisection ran out of iterations before the peak met its target
    converged: bool
    # softmax(z / temperature), bit for bit, made by _PeakGaps
    probs: DenseDistribution = field(compare=False, repr=False)


class _Scratch(threading.local):
    """This thread's three full-vocabulary rows, replaced when the width changes.

    Row 0 holds the T = 1 softmax behind ``c_lm``, then ``_PeakGaps``'
    shifted row; row 1 its exp row, behind every calibration row; row 2 holds
    ``entropy_confidence``'s log row and ``top_k_tokens``' working copy. No
    row leaves a public function, and no function writes a row its caller
    still reads.
    """

    rows = np.empty((3, 0))

    def __call__(self, size: int) -> np.ndarray:
        if self.rows.shape[1] != size:
            self.rows = np.empty((3, size))
        return self.rows


_scratch = _Scratch()


def _softmax(z: LogitVector, temperature: float, out: np.ndarray) -> DenseDistribution:
    np.subtract(z, z.max(), out=out)
    if temperature != 1.0:
        out /= temperature
    np.exp(out, out=out)
    out /= out.sum()
    return out


def softmax_with_temperature(z: LogitVector, temperature: float) -> DenseDistribution:
    """Numerically stable softmax of z / temperature; argmax is preserved."""
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature!r}")
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise ValueError("logit vector is empty")
    return _softmax(z, temperature, np.empty(z.shape))


def entropy_confidence(q: DenseDistribution) -> float:
    """1 - H(q)/log|V|: 0 for the uniform distribution, 1 for a one-hot."""
    q = np.asarray(q, dtype=float)
    if q.size < 2:
        raise ValueError("confidence needs a vocabulary of at least 2")
    positive = q if q.min() > 0 else q[q > 0]
    terms = np.log(positive, out=_scratch(q.size)[2, :positive.size])
    terms *= positive
    entropy = -float(terms.sum())
    confidence = 1.0 - entropy / math.log(q.size)
    return min(1.0, max(0.0, confidence))


# An exact peak is 1 / sum(exp(shifted / T)) with sum and exp rounding errors
# around 1e-15, far below this margin, so an exact gap beyond tol + margin
# decides the bisection's comparisons at every temperature past it.
_GAP_MARGIN = 1e-12
_NEWTON_STEPS = 30  # a cap only: the replay is exact however the seed ends
_PROBE_REACH_MAX = math.log(TEMPERATURE_CEIL / TEMPERATURE_FLOOR)  # the clamp range, in log T


class _PeakGaps:
    """The bisection's peak gaps for one logit row and target, from as few exp passes as possible.

    ``exact(T)`` is the bisection's own ``1 / sum(exp(shifted / T)) - target``.
    The peak falls as T rises, so an exact gap above ``tol + margin`` at T is
    above ``tol`` at every colder T too, and one below ``-(tol + margin)`` is
    below ``-tol`` at every hotter T. Calling the object returns the gap the
    bisection needs at T: ``inf`` or ``-inf`` where such a bound decides every
    comparison it makes, the exact gap in between.
    """

    def __init__(self, z: LogitVector, target: float, tol: float, rows: np.ndarray):
        self.shifted = np.subtract(z, z.max(), out=rows[0])
        self.ties = int(np.count_nonzero(self.shifted == 0.0))  # 0 unless the max is finite
        self.target = target
        self.margin = max(tol, 0.0) + _GAP_MARGIN
        self.cold = 0.0  # the largest T whose exact gap is above the margin
        self.hot = math.inf  # the smallest T whose exact gap is below -margin
        self.row = rows[1]  # the exp row of the last exact evaluation
        self.total = 1.0  # and its sum

    def exact(self, temperature: float) -> float:
        np.divide(self.shifted, temperature, out=self.row)
        np.exp(self.row, out=self.row)
        self.total = self.row.sum()
        gap = 1.0 / float(self.total) - self.target
        if gap > self.margin:
            self.cold = max(self.cold, temperature)
        elif gap < -self.margin:
            self.hot = min(self.hot, temperature)
        return gap

    def __call__(self, temperature: float) -> float:
        if temperature <= self.cold:
            return math.inf
        if temperature >= self.hot:
            return -math.inf
        return self.exact(temperature)

    def probs(self) -> DenseDistribution:
        """The last exact row over its sum, fresh: softmax_with_temperature's floats at that T."""
        return np.divide(self.row, self.total)

    def clamp(self, temperature: float) -> CalibrationResult:
        """A clamp's result; at the floor, without the exp pass where only the peak's ties survive it."""
        if temperature == TEMPERATURE_FLOOR and 0 < self.ties == np.count_nonzero(
                self.shifted >= -_FLOOR_REACH):
            # each tie's exp is exp(0) = 1 and every other entry's underflows to 0
            probs = np.zeros(self.shifted.shape)
            probs[self.shifted == 0.0] = 1.0 / self.ties
        else:
            self.exact(temperature)
            probs = self.probs()
        return CalibrationResult(temperature, True, 0, True, probs)

    def seed(self) -> None:
        """Pin the root between exact gaps just past the margin on either side.

        Newton runs on v = 1/T, where log(sum - ties) is a log-sum-exp of
        lines in v: convex and falling, so Newton overshoots at most once and
        then closes in on the root from the hot side. A step that leaves the
        sign bracket, or a flat row, falls back to a tenfold step or the
        bracket's geometric middle. Two probes sized from the slope at the
        landing point then set the bounds.
        """
        excess = 1.0 / self.target - self.ties  # what the non-peak terms must sum to
        if not excess > 0.0:  # the peak never exceeds 1/ties: there is no root
            self.exact(TEMPERATURE_FLOOR)
            return
        goal = math.log(excess)
        v_hot, v_cold = 0.0, math.inf  # 1/T values whose gaps are below / above zero
        v = 1.0
        for _ in range(_NEWTON_STEPS):
            temperature = 1.0 / v
            gap = self.exact(temperature)
            # d sum / d v; einsum, because a BLAS dot may wake threads that contend
            slope = float(np.einsum("i,i", self.shifted, self.row))
            if abs(gap) <= self.margin:
                break
            if gap > 0:
                v_cold = v
            else:
                v_hot = v
            rest = float(self.total) - self.ties
            step = v - rest * (math.log(rest) - goal) / slope if rest > 0.0 > slope else v
            if not v_hot < step < v_cold:
                step = v / 10.0 if gap > 0 else v * 10.0
                if not v_hot < step < v_cold:
                    step = math.sqrt(v_hot * v_cold)
            step = min(max(step, 1.0 / TEMPERATURE_CEIL), 1.0 / TEMPERATURE_FLOOR)
            if step == v:
                break
            v = step
        log_slope = -slope / (temperature * float(self.total) ** 2)  # -d peak / d log T
        if not log_slope > 0.0:
            return
        for side in (-1.0, 1.0):  # colder, then hotter
            reach = (1.25 * self.margin + side * gap) / log_slope  # in log T
            for _ in range(3):
                if not 0.0 < reach <= _PROBE_REACH_MAX:
                    break
                probe = temperature * math.exp(side * reach)
                if self.cold >= probe if side < 0 else self.hot <= probe:
                    break  # a bound at least this close is already known
                self.exact(probe)
                reach *= 2.0


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

    The bisection is replayed, not run: a Newton-seeded bracket of exact gaps
    (:class:`_PeakGaps`) decides most midpoints without an exp pass, and the
    rest are evaluated with the bisection's own float ops, so every
    temperature, flag and iteration count is the plain bisection's. The same
    object makes every ``probs`` row, at a clamp or an unfinished bisection too.
    """
    z = np.asarray(z, dtype=float)
    if z.size < 2:
        raise ValueError("calibration needs a vocabulary of at least 2")
    if not 0.0 < target_max <= 1.0:
        raise ValueError(f"target_max must be in (0, 1], got {target_max!r}")

    gap = _PeakGaps(z, target_max, tol, _scratch(z.size))
    if gap.ties == z.size:  # every shifted entry is 0, every exp 1, their sum |V|
        return CalibrationResult(1.0, True, 0, True, np.full(z.shape, 1.0 / z.size))
    if target_max >= 1.0:
        return gap.clamp(TEMPERATURE_FLOOR)
    if target_max <= 1.0 / z.size:
        return gap.clamp(TEMPERATURE_CEIL)

    gap.seed()
    lo, hi = BRACKET_LO, BRACKET_HI
    while gap(lo) < 0:
        lo *= 0.1
        if lo <= TEMPERATURE_FLOOR:
            return gap.clamp(TEMPERATURE_FLOOR)
    while gap(hi) > 0:
        hi *= 10.0
        if hi >= TEMPERATURE_CEIL:
            return gap.clamp(TEMPERATURE_CEIL)

    mid = math.sqrt(lo * hi)
    for iteration in range(1, max_iterations + 1):
        mid = math.sqrt(lo * hi)
        mid_gap = gap(mid)
        if abs(mid_gap) <= tol:
            # only an exact gap can be within tol, so the last row is this mid's
            return CalibrationResult(mid, False, iteration, True, gap.probs())
        if mid_gap > 0:
            lo = mid
        else:
            hi = mid
    gap.exact(mid)  # the last mid's gap may have come from a bound, with no row
    return CalibrationResult(mid, False, max_iterations, False, gap.probs())


def top_k_tokens(q: DenseDistribution, k: int) -> list[TokenId]:
    """Indices of the k largest entries of a probability row; boundary ties go to smaller ids.

    k argmax passes over a copy: argmax returns the first maximum, and each
    pick is masked with -inf before the next pass.
    """
    q = np.asarray(q, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    work = _scratch(q.size)[2]
    work[:] = q
    chosen = []
    for _ in range(min(k, work.size)):
        token = int(work.argmax())
        chosen.append(token)
        work[token] = -np.inf
    return sorted(chosen)


def disagreement(q_lm: DenseDistribution, prior: SparseDistribution, k: int = DEFAULT_TOP_K) -> float:
    """Root Jensen-Shannon divergence over the union of the experts' top-k.

    Both distributions are renormalized over the union set. Natural log, so
    the divergence tops out at ln 2 and the result stays within [0, 1]. If
    the dense side carries zero mass on the whole union set there is nothing
    to compare and the disagreement is maximal.
    """
    q_lm = np.asarray(q_lm, dtype=float)
    union = sorted(set(top_k_tokens(q_lm, k)) | set(prior.top_tokens(k)))
    lm_raw = [float(q_lm[token]) for token in union]
    trie_raw = [prior.probs.get(token, 0.0) for token in union]
    if left_sum(lm_raw) <= 0.0 or left_sum(trie_raw) <= 0.0:
        return 1.0  # degenerate support
    return min(1.0, root_jensen_shannon(lm_raw, trie_raw))


def root_jensen_shannon(a: Sequence[float], b: Sequence[float]) -> float:
    """Root JS divergence (natural log) of two aligned lists, each normalized by its sum."""
    mass_a, mass_b = left_sum(a), left_sum(b)
    divergence = 0.0
    for weight_a, weight_b in zip(a, b):
        p = weight_a / mass_a
        q = weight_b / mass_b
        m = 0.5 * (p + q)
        if m == 0.0:  # p + q is at most the smallest subnormal: the exact term rounds to 0
            continue
        if p > 0:
            divergence += 0.5 * p * math.log(p / m)
        if q > 0:
            divergence += 0.5 * q * math.log(q / m)
    return math.sqrt(max(0.0, divergence))


def continuity(run_length: int, scale: float = CONTINUITY_SCALE) -> float:
    """Saturating agreement reward 1 - exp(-run_length/scale)."""
    if run_length < 0:
        raise ValueError("run_length must be >= 0")
    if not scale > 0:
        raise ValueError("scale must be > 0")
    return 1.0 - math.exp(-run_length / scale)


def adjust_confidences(
    c_lm: float, c_trie: float, omega: float, continuity_value: float
) -> tuple[float, float]:
    """Penalize the base by disagreement, amplify the trie by continuity."""
    for name, value in (("c_lm", c_lm), ("c_trie", c_trie), ("omega", omega),
                        ("continuity", continuity_value)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    adjusted_lm = c_lm * (1.0 - omega * omega)
    adjusted_trie = c_trie + (1.0 - c_trie) * c_trie * c_trie * continuity_value
    return adjusted_lm, adjusted_trie


def _checked_logits(z: LogitVector) -> LogitVector:
    z = np.asarray(z, dtype=float)
    if z.size < 2:
        raise ValueError("fusion needs a vocabulary of at least 2")
    if not (math.isfinite(z.max()) and math.isfinite(z.min())):  # NaN propagates to both
        raise ValueError("logits must be finite")
    return z


def bypass_step(
    z: LogitVector, temperature: float = 1.0
) -> tuple[TokenId, StepDiagnostics, int]:
    """Greedy step on the raw logits, with the base confidence read at ``temperature``.

    Serves both baselines and every fusion step without trie candidates; the
    temperature cannot change the argmax, only the reported confidence.
    """
    z = _checked_logits(z)
    c_lm = entropy_confidence(_softmax(z, temperature, _scratch(z.size)[0]))
    diagnostics = StepDiagnostics(
        c_lm=c_lm,
        c_trie=0.0,
        c_lm_adjusted=c_lm,
        c_trie_adjusted=0.0,
        omega=0.0,
        continuity=0.0,
        gamma=1.0,
        temperature=temperature,
        temperature_clamped=False,
        bypass=True,
    )
    return int(np.argmax(z)), diagnostics, 0


def fuse_step(
    z: LogitVector,
    prior: SparseDistribution | None,
    run_length: int = 0,
    top_k: int = DEFAULT_TOP_K,
    continuity_scale: float = CONTINUITY_SCALE,
) -> tuple[TokenId, StepDiagnostics, int]:
    """One step after a streak of ``run_length``; returns (token, diagnostics, new streak)."""
    if prior is None:
        return bypass_step(z)
    z = _checked_logits(z)
    support = list(prior.probs)  # ascending, so its ends bound every token
    for token in (support[0], support[-1]):
        if not 0 <= token < z.size:
            raise ValueError(f"prior token {token} outside vocabulary of {z.size}")

    c_lm = entropy_confidence(_softmax(z, 1.0, _scratch(z.size)[0]))
    # weight/probability validation tolerates 1e-9 of slack; keep the peak a
    # legal calibration target
    score_max = min(1.0, prior.max_prob())
    c_trie = score_max
    calibration = calibrate_temperature(z, score_max)
    q_lm = calibration.probs
    omega = disagreement(q_lm, prior, top_k)
    continuity_value = continuity(run_length, continuity_scale)
    c_lm_adjusted, c_trie_adjusted = adjust_confidences(c_lm, c_trie, omega, continuity_value)
    denominator = c_lm_adjusted + c_trie_adjusted
    gamma = 0.5 if denominator == 0.0 else c_lm_adjusted / denominator

    lm_top = int(np.argmax(q_lm))
    fused = q_lm  # scaled in place: q_lm is not read again
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


@dataclass(frozen=True)
class DecoderConfig:
    """One engine, three presets: full fusion, greedy, fixed-temperature."""

    strategy: str = "odd"
    weights: ScoringWeights = DEFAULT_WEIGHTS
    top_k: int = DEFAULT_TOP_K
    continuity_scale: float = CONTINUITY_SCALE
    fixed_temperature: float = 1.0
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not self.continuity_scale > 0:
            raise ValueError("continuity_scale must be > 0")
        if not self.fixed_temperature > 0:
            raise ValueError("fixed_temperature must be > 0")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")


class Decoder:
    """Stateless step dispatcher; the caller threads each sequence's streak."""

    def __init__(self, config: DecoderConfig | None = None):
        self.config = config or DecoderConfig()

    @property
    def wants_prior(self) -> bool:
        return self.config.strategy == "odd"

    def step(
        self, z: LogitVector, prior: SparseDistribution | None, run_length: int
    ) -> tuple[TokenId, StepDiagnostics, int]:
        if self.wants_prior:
            return fuse_step(z, prior, run_length, self.config.top_k, self.config.continuity_scale)
        scaled = self.config.strategy == "temp-scaled"
        return bypass_step(z, self.config.fixed_temperature if scaled else 1.0)
