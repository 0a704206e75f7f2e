"""The fusion primitives against verbatim copies of their plain versions (``fusion_ref``).

Calibration replays the bisection from a Newton-seeded bracket, ``q_lm`` is
the accepted evaluation's own exp row, and top-k takes k argmax passes; every
one of them must give the plain versions' floats, flags and token ids exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fusion_ref as ref

from triefusion.fusion import (
    calibrate_temperature,
    entropy_confidence,
    softmax_with_temperature,
    top_k_tokens,
)

# vocabulary size -> rows of each size in the mixed sweep (10,200 in all)
ROW_MIX = {2: 3000, 3: 3000, 29: 3000, 2048: 900, 32768: 300}


def _logit_row(rng, size, kind):
    if kind == "normal":
        return rng.normal(scale=rng.uniform(0.1, 8.0), size=size)
    if kind == "cauchy":
        return rng.standard_cauchy(size=size)
    if kind == "integer":
        return rng.integers(-3, 4, size=size).astype(float)
    # tied: a third of the row shares the maximum
    z = rng.normal(size=size)
    z[rng.integers(size, size=max(1, size // 3))] = z.max()
    return z


def _target(rng, size, pick):
    if pick == 0:
        return 1.0 / size + 1e-12  # just above the uniform peak
    if pick == 1:
        return 1.0 - 1e-12  # just below one-hot
    if pick == 2:
        return 1.0 / size * (1.0 + float(rng.random()) * 1e-6)
    return float(rng.uniform(1.0 / size, 1.0))


def _mixed_rows():
    rng = np.random.default_rng(20260301)
    kinds = ("normal", "cauchy", "integer", "tied")
    for size, count in ROW_MIX.items():
        for i in range(count):
            z = _logit_row(rng, size, kinds[i % len(kinds)])
            yield z, _target(rng, size, int(rng.integers(6)))


def _same_calibration(z, target, tol=1e-9, max_iterations=200):
    result = calibrate_temperature(z, target, tol, max_iterations)
    expected = ref.calibrate_temperature(z, target, tol, max_iterations)
    assert (result.temperature, result.clamped, result.iterations) == (
        expected.temperature, expected.clamped, expected.iterations)
    assert np.array_equal(result.probs, ref.softmax_with_temperature(z, result.temperature))
    return result


def test_calibration_replays_the_bisection_on_a_mixed_sweep():
    rows = 0
    for index, (z, target) in enumerate(_mixed_rows()):
        result = _same_calibration(z, target)
        assert result.converged
        if index % 25 == 0 and z.size <= 2048:
            _same_calibration(z, target, tol=0.0)
        if index % 10 == 0:
            _same_calibration(z, target, max_iterations=1 + index % 3)
        rows += 1
    assert rows == 10_200


@given(
    st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=2, max_size=60),
    st.floats(min_value=1e-6, max_value=1.0),
    st.sampled_from([1e-9, 1e-6, 1e-12, 0.0]),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=300, deadline=None)
def test_calibration_replay_property(logits, target, tol, max_iterations):
    _same_calibration(np.asarray(logits), target, tol, max_iterations)


class TestConverged:
    @pytest.mark.parametrize("max_iterations", [1, 2, 3])
    def test_running_out_of_iterations_is_not_converged(self, max_iterations):
        rng = np.random.default_rng(max_iterations)
        for size in (2, 29, 2048):
            z = rng.normal(size=size)
            target = float(ref.softmax_with_temperature(z, 0.77).max())
            result = _same_calibration(z, target, max_iterations=max_iterations)
            assert not result.converged and not result.clamped
            assert result.iterations == max_iterations

    def test_success_and_clamps_are_converged(self):
        z = np.array([2.0, 0.0, -1.0])
        assert calibrate_temperature(z, 0.6).converged
        assert calibrate_temperature(z, 1.0).converged  # clamped to the floor
        assert calibrate_temperature(np.zeros(4), 0.5).converged  # constant logits

    def test_probs_take_no_part_in_equality(self):
        z = np.array([2.0, 0.0])
        assert calibrate_temperature(z, 0.6) == calibrate_temperature(z, 0.6)
        assert calibrate_temperature(z, 0.6) != calibrate_temperature(z, 0.6, max_iterations=2)


def _prob_rows():
    rng = np.random.default_rng(7)
    for size in (2, 3, 29, 2048, 32768):
        for temperature in (1.0, 0.37, 1e-9, 1e4):
            z = rng.normal(scale=3.0, size=size)
            yield softmax_with_temperature(z, temperature)
        yield np.full(size, 1.0 / size)
        one_hot = np.zeros(size)
        one_hot[size // 2] = 1.0
        yield one_hot
        tied = np.zeros(size)
        tied[rng.integers(size, size=max(2, size // 4))] = 1.0
        yield tied / tied.sum()
        yield ref.softmax_with_temperature(rng.integers(-2, 3, size=size).astype(float), 0.5)


@pytest.mark.parametrize("k_of", [lambda v: 1, lambda v: 5, lambda v: 17, lambda v: v,
                                  lambda v: v + 3], ids=["1", "5", "17", "V", "V+3"])
def test_top_k_matches_the_partition_rule(k_of):
    for q in _prob_rows():
        k = k_of(q.size)
        if k > 64 and q.size > 64:
            continue  # k argmax passes over a wide row: O(k V)
        assert top_k_tokens(q, k) == ref.top_k_tokens(q, k)


def test_top_k_ties_go_to_smaller_ids():
    assert top_k_tokens(np.full(9, 1 / 9), 4) == [0, 1, 2, 3]
    assert top_k_tokens(np.array([0.1, 0.3, 0.3, 0.3]), 2) == [1, 2]
    one_hot = np.zeros(50)
    one_hot[40] = 1.0
    assert top_k_tokens(one_hot, 5) == [0, 1, 2, 3, 40]


def test_top_k_leaves_its_input_alone():
    q = np.array([0.5, 0.2, 0.3])
    top_k_tokens(q, 2)
    assert np.array_equal(q, [0.5, 0.2, 0.3])


def test_softmax_and_entropy_match_their_plain_versions():
    rng = np.random.default_rng(11)
    for size in (2, 3, 29, 2048, 32768):
        for z in (rng.normal(scale=4.0, size=size), rng.standard_cauchy(size=size),
                  rng.integers(-3, 4, size=size).astype(float), np.zeros(size)):
            for temperature in (1.0, 0.05, 1e-9, 3.3, 1e9):
                q = softmax_with_temperature(z, temperature)
                assert np.array_equal(q, ref.softmax_with_temperature(z, temperature))
                assert entropy_confidence(q) == ref.entropy_confidence(q)
    for q in _prob_rows():
        assert entropy_confidence(q) == ref.entropy_confidence(q)


def test_softmax_leaves_its_input_alone():
    z = np.array([1.0, 3.0, 2.0])
    softmax_with_temperature(z, 1.0)
    softmax_with_temperature(z, 2.0)
    assert np.array_equal(z, [1.0, 3.0, 2.0])


def test_calibration_leaves_its_input_alone():
    z = np.array([1.0, 3.0, 2.0])
    result = calibrate_temperature(z, 0.6)
    assert np.array_equal(z, [1.0, 3.0, 2.0])
    assert math.isclose(float(result.probs.max()), 0.6, abs_tol=1e-9)
