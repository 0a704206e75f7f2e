import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import jsd_ref

from triefusion import fusion
from triefusion.fusion import (
    Decoder,
    DecoderConfig,
    adjust_confidences,
    calibrate_temperature,
    continuity,
    disagreement,
    entropy_confidence,
    fuse_step,
    softmax_with_temperature,
    top_k_tokens,
)
from triefusion.prior import SparseDistribution


def _jsd(p, q):
    """Scalar reference divergence used to cross-check the library path."""
    total = 0.0
    for pv, qv in zip(p, q):
        m = 0.5 * (pv + qv)
        if pv > 0:
            total += 0.5 * pv * math.log(pv / m)
        if qv > 0:
            total += 0.5 * qv * math.log(qv / m)
    return total


class TestSoftmax:
    def test_zero_logits_uniform(self):
        np.testing.assert_allclose(softmax_with_temperature(np.zeros(11), 3.0), 1 / 11)

    def test_two_logit_values(self):
        probs = softmax_with_temperature(np.array([2.0, 0.0]), 1.0)
        np.testing.assert_allclose(probs, [0.8808, 0.1192], atol=1e-4)

    def test_high_temperature_flattens(self):
        probs = softmax_with_temperature(np.array([2.0, 0.0]), 1e4)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-3)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError, match="temperature must be > 0, got 0.0"):
            softmax_with_temperature(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError, match="temperature must be > 0, got -2.0"):
            softmax_with_temperature(np.array([1.0, 0.0]), -2.0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(scale=rng.uniform(0.1, 20), size=rng.integers(2, 400))
            assert softmax_with_temperature(z, rng.uniform(0.01, 100)).sum() == pytest.approx(
                1.0, abs=1e-9
            )


class TestEntropyConfidence:
    def test_uniform_is_zero(self):
        assert entropy_confidence(np.full(32, 1 / 32)) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_is_one(self):
        one_hot = np.zeros(9)
        one_hot[4] = 1.0
        assert entropy_confidence(one_hot) == 1.0

    def test_binary_example(self):
        value = entropy_confidence(np.array([0.9, 0.1]))
        expected = 1.0 - 0.3250829733914482 / math.log(2)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.5310, abs=1e-4)

    def test_needs_two_tokens(self):
        with pytest.raises(ValueError):
            entropy_confidence(np.array([1.0]))


class TestCalibration:
    def test_two_logit_analytic(self):
        result = calibrate_temperature(np.array([2.0, 0.0]), 0.6)
        assert not result.clamped
        assert result.temperature == pytest.approx(2.0 / math.log(1.5), abs=1e-6)

    def test_consistency_with_softmax(self):
        result = calibrate_temperature(np.array([2.0, 0.0]), 0.8807970779778823)
        assert result.temperature == pytest.approx(1.0, abs=1e-6)

    def test_constant_logits(self):
        result = calibrate_temperature(np.full(6, 3.3), 0.5)
        assert result.clamped and result.temperature == 1.0

    def test_target_one_clamps_low(self):
        result = calibrate_temperature(np.array([2.0, 0.0]), 1.0)
        assert result.clamped and result.temperature < 1e-6

    def test_unreachable_low_target_clamps_high(self):
        result = calibrate_temperature(np.array([2.0, 0.0]), 0.4)
        assert result.clamped and result.temperature > 1e6

    def test_postcondition_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            size = int(rng.integers(2, 200))
            z = rng.normal(scale=rng.uniform(0.3, 6), size=size)
            t_true = float(10 ** rng.uniform(-1.2, 1.2))
            target = float(softmax_with_temperature(z, t_true).max())
            result = calibrate_temperature(z, target)
            assert result.iterations <= 200
            achieved = float(softmax_with_temperature(z, result.temperature).max())
            assert abs(achieved - target) <= 1e-6
            # clamping only happens when the target saturates in float64
            if 1.0 / size * (1 + 1e-9) < target < 1.0 - 1e-12:
                assert not result.clamped

    def test_target_validation(self):
        with pytest.raises(ValueError):
            calibrate_temperature(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(ValueError):
            calibrate_temperature(np.array([1.0, 0.0]), 1.5)


class TestTopK:
    def test_basic_order(self):
        assert top_k_tokens(np.array([0.1, 0.5, 0.2, 0.15, 0.05]), 2) == [1, 2]

    def test_boundary_ties_prefer_small_ids(self):
        assert top_k_tokens(np.array([0.25, 0.25, 0.25, 0.25]), 2) == [0, 1]

    def test_k_larger_than_vocab(self):
        assert top_k_tokens(np.array([0.6, 0.4]), 9) == [0, 1]


class TestDisagreement:
    def test_identical_distributions(self):
        prior = SparseDistribution({0: 0.7, 1: 0.3})
        dense = np.array([0.7, 0.3])
        assert disagreement(dense, prior, 5) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_top_k_maximal(self):
        dense = np.array([0.5, 0.5, 0.0, 0.0])
        prior = SparseDistribution({2: 0.5, 3: 0.5})
        assert disagreement(dense, prior, 2) == pytest.approx(math.sqrt(math.log(2)), abs=1e-9)

    def test_swapped_mass_example(self):
        dense = np.array([0.9, 0.1])
        prior = SparseDistribution({0: 0.1, 1: 0.9})
        expected = math.sqrt(_jsd([0.9, 0.1], [0.1, 0.9]))
        value = disagreement(dense, prior, 5)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.6067, abs=1e-4)

    def test_one_sided_mass(self):
        # dense [0.6, 0.4] against a prior fully on token 1
        value = disagreement(np.array([0.6, 0.4]), SparseDistribution({1: 1.0}), 5)
        assert value == pytest.approx(math.sqrt(_jsd([0.6, 0.4], [0.0, 1.0])), abs=1e-12)
        assert value == pytest.approx(0.523792, abs=1e-6)

    def test_degenerate_lm_support(self):
        dense = np.array([0.5, 0.5, 0.0, 0.0])
        prior = SparseDistribution({2: 1.0})
        # force the union to only cover zero-mass dense tokens
        value = disagreement(np.array([0.0, 0.0, 0.0, 0.0]), prior, 1)
        assert value == 1.0
        assert 0.0 <= disagreement(dense, prior, 2) <= 1.0

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference_loop(self, data):
        # bit for bit against the loop as it stood before it was shared
        vocab = data.draw(st.integers(min_value=2, max_value=40))
        weight = st.one_of(st.just(0.0), st.floats(min_value=1e-300, max_value=1.0))
        dense = np.array(data.draw(st.lists(weight, min_size=vocab, max_size=vocab)))
        if data.draw(st.booleans()) and dense.sum() > 0:
            dense = dense / dense.sum()
        support = data.draw(st.dictionaries(st.integers(min_value=0, max_value=vocab - 1),
                                            weight, min_size=1))
        total = sum(support.values())
        assume(total > 0)
        prior = SparseDistribution({t: w / total for t, w in support.items()})
        k = data.draw(st.integers(min_value=1, max_value=8))
        assert disagreement(dense, prior, k) == jsd_ref.disagreement(dense, prior, k)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            size = int(rng.integers(2, 8))
            a = rng.dirichlet(np.ones(size))
            b = rng.dirichlet(np.ones(size))
            pa = SparseDistribution({i: float(v) for i, v in enumerate(a)})
            pb = SparseDistribution({i: float(v) for i, v in enumerate(b)})
            assert disagreement(a, pb, 5) == pytest.approx(disagreement(b, pa, 5), abs=1e-9)


class TestContinuity:
    def test_closed_form(self):
        assert continuity(0) == 0.0
        assert continuity(3) == pytest.approx(1 - math.exp(-1), abs=1e-12)
        assert continuity(30) > 0.9999

    def test_validation(self):
        with pytest.raises(ValueError):
            continuity(-1)
        with pytest.raises(ValueError):
            continuity(2, scale=0.0)


class TestAdjust:
    def test_identity_when_no_signals(self):
        assert adjust_confidences(0.4, 0.6, 0.0, 0.0) == (0.4, 0.6)

    def test_full_disagreement_zeroes_lm(self):
        lm, _ = adjust_confidences(0.8, 0.5, 1.0, 0.0)
        assert lm == 0.0

    def test_trie_amplification_example(self):
        _, trie = adjust_confidences(0.5, 0.8, 0.0, 1 - math.exp(-1))
        assert trie == pytest.approx(0.8809, abs=1e-4)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            c_lm, c_trie, omega, cont = rng.uniform(size=4)
            lm, trie = adjust_confidences(c_lm, c_trie, omega, cont)
            assert 0.0 <= lm <= c_lm
            assert c_trie <= trie <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            adjust_confidences(1.2, 0.5, 0.0, 0.0)


class TestFuseStep:
    def test_bypass_on_empty_prior(self):
        token, diag, streak = fuse_step(np.array([2.0, 0.0, 1.0]), None, 4)
        assert token == 0
        assert diag.bypass and diag.gamma == 1.0
        assert streak == 0

    def test_zero_lm_confidence_hands_over_to_trie(self):
        # uniform logits: calibration skipped, c_lm = 0, so gamma = 0
        # (up to one ulp of libm log rounding in the entropy)
        prior = SparseDistribution({2: 0.9, 0: 0.1})
        token, diag, _ = fuse_step(np.zeros(4), prior, 0)
        assert token == 2
        assert diag.gamma == pytest.approx(0.0, abs=1e-12)
        assert diag.temperature_clamped

    def test_end_to_end_trace_matches_scalar_oracle(self):
        # Self-consistent inputs: the prior peak is attainable by tempering.
        z = np.array([1.2, 0.3, -0.5])
        prior = SparseDistribution({1: 0.55, 2: 0.45})
        token, diag, streak = fuse_step(z, prior, 2, top_k=5)

        # oracle: everything below recomputed with plain scalar math
        from scipy.optimize import brentq

        top = max(z)

        def peak(t):
            return 1.0 / sum(math.exp((v - top) / t) for v in z)

        t_star = brentq(lambda t: peak(t) - 0.55, 1e-3, 1e3, xtol=1e-12)
        base = [math.exp(v) for v in z]
        base = [v / sum(base) for v in base]
        c_lm = 1 + sum(p * math.log(p) for p in base) / math.log(3)
        tempered = [math.exp(v / t_star) for v in z]
        tempered = [v / sum(tempered) for v in tempered]
        union = [0, 1, 2]
        lm_mass = sum(tempered[i] for i in union)
        p_r = [tempered[i] / lm_mass for i in union]
        q_r = [0.0, 0.55, 0.45]
        omega = min(1.0, math.sqrt(_jsd(p_r, q_r)))
        gamma_cont = 1 - math.exp(-2 / 3)
        lm_adj = c_lm * (1 - omega**2)
        trie_adj = 0.55 + (1 - 0.55) * 0.55**2 * gamma_cont
        gamma = lm_adj / (lm_adj + trie_adj)
        fused = [gamma * tempered[i] + (1 - gamma) * q_r[i] for i in union]

        assert diag.temperature == pytest.approx(t_star, abs=1e-6)
        assert diag.c_lm == pytest.approx(c_lm, abs=1e-12)
        assert diag.c_trie == pytest.approx(0.55, abs=1e-12)
        assert diag.omega == pytest.approx(omega, abs=1e-9)
        assert diag.continuity == pytest.approx(gamma_cont, abs=1e-12)
        assert diag.gamma == pytest.approx(gamma, abs=1e-9)
        assert token == max(range(3), key=lambda i: fused[i])
        # base argmax (0) disagrees with the prior argmax (1): streak resets
        assert streak == 0

    def test_agreement_increments_streak(self):
        prior = SparseDistribution({0: 0.8, 1: 0.2})
        _, _, streak = fuse_step(np.array([3.0, 0.0, 0.0]), prior, 5)
        assert streak == 6

    def test_fused_distribution_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            size = int(rng.integers(2, 60))
            z = rng.normal(scale=2.0, size=size)
            support = rng.choice(size, size=int(rng.integers(1, min(6, size) + 1)), replace=False)
            weights = rng.uniform(0.05, 1.0, size=len(support))
            weights /= weights.sum()
            prior = SparseDistribution(
                {int(t): float(w) for t, w in zip(sorted(support), weights)}
            )
            _, diag, _ = fuse_step(z, prior, 0)
            assert 0.0 <= diag.gamma <= 1.0
            assert 0.0 <= diag.omega <= 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("prior", [None, SparseDistribution({0: 0.7, 1: 0.3})],
                             ids=["bypass", "fused"])
    def test_non_finite_logits_rejected(self, bad, prior):
        with pytest.raises(ValueError, match="logits must be finite"):
            fuse_step(np.array([0.5, bad, 0.2]), prior, 0)

    def test_prior_token_out_of_range(self):
        with pytest.raises(ValueError):
            fuse_step(np.array([0.5, 0.2]), SparseDistribution({5: 1.0}), 0)


class TestDecoderPresets:
    def test_greedy_matches_argmax(self):
        decoder = Decoder(DecoderConfig(strategy="greedy"))
        z = np.array([0.2, 1.9, -0.3])
        prior = SparseDistribution({0: 1.0})
        token, diag, _ = decoder.step(z, prior, 0)
        assert token == 1 and diag.bypass

    def test_temp_scaled_preserves_argmax(self):
        decoder = Decoder(DecoderConfig(strategy="temp-scaled", fixed_temperature=7.5))
        z = np.array([0.2, 1.9, -0.3])
        token, diag, _ = decoder.step(z, None, 0)
        assert token == 1
        assert diag.temperature == 7.5 and diag.gamma == 1.0

    def test_temp_scaled_step_reads_confidence_once(self, monkeypatch):
        calls = []
        original = fusion.entropy_confidence

        def counting(q):
            calls.append(1)
            return original(q)

        monkeypatch.setattr(fusion, "entropy_confidence", counting)
        decoder = Decoder(DecoderConfig(strategy="temp-scaled", fixed_temperature=1.5))
        decoder.step(np.array([0.2, 1.9, -0.3]), None, 0)
        assert len(calls) == 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            DecoderConfig(strategy="beam")

    def test_only_odd_wants_prior(self):
        assert Decoder(DecoderConfig(strategy="odd")).wants_prior
        assert not Decoder(DecoderConfig(strategy="greedy")).wants_prior
        assert not Decoder(DecoderConfig(strategy="temp-scaled")).wants_prior


@given(
    # 1e-6 grid keeps logit gaps representable after exponentiation
    st.lists(
        st.integers(min_value=-30_000_000, max_value=30_000_000).map(lambda i: i / 1e6),
        min_size=2,
        max_size=40,
    ),
    st.floats(min_value=0.01, max_value=500),
)
@settings(max_examples=120, deadline=None)
def test_temperature_preserves_argmax(logits, temperature):
    z = np.asarray(logits)
    probs = softmax_with_temperature(z, temperature)
    assert int(np.argmax(probs)) == int(np.argmax(z))


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
@settings(max_examples=100)
def test_gamma_monotone_in_adjusted_confidences(c_lm, c_trie, omega):
    lm_a, trie_a = adjust_confidences(c_lm, c_trie, omega, 0.0)
    lm_b, trie_b = adjust_confidences(min(1.0, c_lm + 0.1), c_trie, omega, 0.0)
    if lm_a + trie_a > 0 and lm_b + trie_b > 0:
        assert lm_b / (lm_b + trie_b) >= lm_a / (lm_a + trie_a) - 1e-12
