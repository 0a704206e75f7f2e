"""The fusion primitives against verbatim copies of their plain versions (``fusion_ref``).

Calibration replays the bisection from a Newton-seeded bracket, ``q_lm`` is
the accepted evaluation's own exp row, the floor clamp skips its exp pass
where only the peak's ties survive it, and top-k takes k argmax passes; the
prior's top tokens come from a keyed stable sort and ``fuse_step`` checks
only the ends of the prior's ascending support. Every one of them must give
the plain versions' floats, flags and token ids exactly. Their temporaries
live in per-thread scratch rows, which must never show in a result, an
input, or another thread.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fusion_ref as ref
import prior_ref

from triefusion import fusion
from triefusion.fusion import (
    TEMPERATURE_CEIL,
    TEMPERATURE_FLOOR,
    calibrate_temperature,
    entropy_confidence,
    fuse_step,
    softmax_with_temperature,
    top_k_tokens,
)
from triefusion.prior import SparseDistribution

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


# token -> small integer weight: tied and zero-mass prior entries are common
_PRIOR_WEIGHTS = st.dictionaries(st.integers(min_value=0, max_value=60),
                                 st.integers(min_value=0, max_value=4),
                                 min_size=1, max_size=24).filter(lambda w: sum(w.values()) > 0)


def _sparse_prior(weights):
    total = sum(weights.values())
    return SparseDistribution({token: weight / total for token, weight in weights.items()})


@given(_PRIOR_WEIGHTS)
@settings(max_examples=300, deadline=None)
def test_prior_top_tokens_match_the_plain_sort(weights):
    prior = _sparse_prior(weights)
    for k in (1, 5, len(weights) + 2):
        assert prior.top_tokens(k) == prior_ref.top_tokens(prior.probs, k)


@given(_PRIOR_WEIGHTS, st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["normal", "integer", "tied"]), st.integers(min_value=0, max_value=6),
       st.sampled_from([1, 5, 26]))
@settings(max_examples=300, deadline=None)
def test_fuse_step_matches_the_plain_loops(weights, seed, kind, run_length, top_k):
    z = _logit_row(np.random.default_rng(seed), 61, kind)
    prior = _sparse_prior(weights)
    assert fuse_step(z.copy(), prior, run_length, top_k) == ref.fuse_step(
        z.copy(), prior, run_length, top_k)


def test_fuse_step_matches_the_plain_loops_on_wide_supports():
    # large-trie-sized supports (about 110 tokens) over a 2,048-token vocabulary
    rng = np.random.default_rng(20261018)
    for i in range(200):
        z = _logit_row(rng, 2048, ("normal", "integer", "tied")[i % 3])
        support = rng.choice(2048, size=int(rng.integers(1, 130)), replace=False)
        weights = {int(t): int(w) for t, w in zip(support, rng.integers(0, 5, support.size))}
        weights[int(support[0])] += 1  # some mass
        prior = _sparse_prior(weights)
        run_length = int(rng.integers(0, 6))
        assert fuse_step(z.copy(), prior, run_length) == ref.fuse_step(
            z.copy(), prior, run_length)


@pytest.mark.parametrize("support", [
    {-1: 0.5, 3: 0.5}, {3: 0.5, 29: 0.5}, {-1: 1.0}, {29: 1.0}, {-1: 0.2, 5: 0.3, 29: 0.5},
])
def test_prior_token_outside_vocabulary_rejected(support):
    z = np.linspace(0.0, 1.0, 29)
    prior = SparseDistribution(support)
    for step in (fuse_step, ref.fuse_step):
        with pytest.raises(ValueError, match="outside vocabulary of 29"):
            step(z, prior)


# wide-vocab's padded vocabulary
WIDE = 32768


def _wide_vocab_row(rng, size, kind):
    """A logit row of the kinds a padded n-gram and its calibration meet."""
    if kind == "constant":  # an unseen context: every token gets the smoothing mass
        return np.full(size, -math.log(size))
    # a seen context: the smoothing tail, with a few observed tokens above it
    z = np.full(size, -math.log(size) - 3.0)
    observed = rng.choice(size, size=min(size, 5), replace=False)
    z[observed] += rng.uniform(1.0, 9.0, size=observed.size)
    top = int(z.argmax())
    if kind == "near":  # a runner-up within the floor clamp's reach of the peak
        z[(top + 1) % size] = z[top] - rng.choice([1e-9, 3e-7, 7.3e-7, 7.44e-7, 7.45e-7])
    elif kind == "tied":
        z[observed[: max(2, observed.size - 1)]] = z[top]
    elif kind == "spread":  # exp at T = 1 underflows for most of the row
        z[observed[0]] += 900.0
    return z


def _wide_vocab_prior(rng, size, kind):
    if kind == "one-hot":  # a target of 1: the floor clamp
        return SparseDistribution({int(rng.integers(size)): 1.0})
    support = rng.choice(size, size=min(size, int(rng.integers(2, 6))), replace=False)
    return _sparse_prior({int(t): int(w) + 1 for t, w in zip(support, rng.integers(0, 4, support.size))})


_ROW_KINDS = ("ngram", "constant", "near", "tied", "spread")


def _wide_vocab_steps(rng, size, repeats=1):
    for row_kind in _ROW_KINDS * repeats:
        for prior_kind in ("one-hot", "mixed"):
            yield _wide_vocab_row(rng, size, row_kind), _wide_vocab_prior(rng, size, prior_kind)


def test_fuse_step_matches_the_plain_loops_at_wide_vocab():
    rng = np.random.default_rng(20261020)
    floor_rows = 0
    # widths alternate, so a scratch row kept at one width is never read at another
    for size in (61, WIDE, 2, WIDE, 61, WIDE):
        for run_length, (z, prior) in enumerate(_wide_vocab_steps(rng, size, repeats=4)):
            assert fuse_step(z.copy(), prior, run_length % 4) == ref.fuse_step(
                z.copy(), prior, run_length % 4)
            result = _same_calibration(z, min(1.0, prior.max_prob()))
            floor_rows += result.temperature == TEMPERATURE_FLOOR
    assert floor_rows >= 6 * 4 * 4  # every non-constant kind clamps at every width


def test_floor_clamp_keeps_a_runner_up_that_survives_the_exp():
    z = np.zeros(WIDE)
    z[7] = 1.0
    for gap, survives in ((7.45e-7, True), (3e-7, True), (7.6e-7, False), (1.0, False)):
        z[9] = 1.0 - gap
        probs = calibrate_temperature(z, 1.0).probs
        assert np.array_equal(probs, ref.softmax_with_temperature(z, TEMPERATURE_FLOOR))
        assert (probs[9] > 0.0) == survives
    for bad in (math.inf, -math.inf, math.nan):  # calibration itself takes any floats
        z[9] = bad
        with np.errstate(invalid="ignore"):
            assert np.array_equal(calibrate_temperature(z, 1.0).probs,
                                  ref.softmax_with_temperature(z, TEMPERATURE_FLOOR), equal_nan=True)


def test_floor_clamp_runner_up_at_the_smallest_subnormal():
    # exp(-745) = 5e-324 on token 9, where the prior has 0: half their sum rounds to 0
    z = np.zeros(61)
    z[7] = 1.0
    z[9] = 1.0 - 7.45e-7
    prior = SparseDistribution({3: 1.0})
    assert calibrate_temperature(z, 1.0).probs[9] == 5e-324
    assert fuse_step(z.copy(), prior, 1) == ref.fuse_step(z.copy(), prior, 1)


def _calibration_exits(size):
    """(z, target, max_iterations, outcome) reaching each of calibrate_temperature's seven exits.

    The outcome is (clamped, converged, temperature), with no temperature
    where the bisection sets it.
    """
    rng = np.random.default_rng(size)
    spread = rng.normal(scale=2.0, size=size)
    near = np.zeros(size)
    near[0] = 1e-12  # no temperature above the floor lifts this peak near 1
    wide = np.zeros(size)
    wide[0] = 1e6  # no temperature below the ceiling brings this peak down to 1/V
    middle = float(ref.softmax_with_temperature(spread, 0.77).max())
    floor, ceiling = (True, True, TEMPERATURE_FLOOR), (True, True, TEMPERATURE_CEIL)
    return [
        (np.full(size, 0.25), 0.6, 200, (True, True, 1.0)),  # a constant row
        (spread, 1.0, 200, floor),  # a target of 1
        (spread, 1.0 / size, 200, ceiling),  # a target <= 1/V
        (near, 0.9, 200, floor),  # the bracket widened down to the floor
        (wide, 1.0 / size + 1e-12, 200, ceiling),  # the bracket widened up to the ceiling
        (spread, middle, 200, (False, True, None)),  # converged
        (spread, middle, 1, (False, False, None)),  # out of iterations
    ]


@pytest.mark.parametrize("size", [2, WIDE])
def test_every_calibration_exit_matches_the_plain_bisection(size, monkeypatch):
    def refused(*args):
        raise AssertionError("calibration called softmax_with_temperature")

    monkeypatch.setattr(fusion, "softmax_with_temperature", refused)
    results = []
    for z, target, max_iterations, (clamped, converged, temperature) in _calibration_exits(size):
        result = _same_calibration(z, target, max_iterations=max_iterations)
        assert (result.clamped, result.converged) == (clamped, converged)
        assert temperature is None or result.temperature == temperature
        results += [result, calibrate_temperature(z, target, max_iterations=max_iterations)]
    for first, second in zip(results, results[1:]):
        assert not np.shares_memory(first.probs, second.probs)


def _wide_step_input(path):
    rng = np.random.default_rng(5)
    if path == "constant":
        return _wide_vocab_row(rng, WIDE, "constant"), _wide_vocab_prior(rng, WIDE, "mixed")
    z = _wide_vocab_row(rng, WIDE, "ngram")
    return z, _wide_vocab_prior(rng, WIDE, "one-hot" if path == "floor" else "mixed")


_PATHS = ("bisect", "floor", "constant")


@pytest.mark.parametrize("path", _PATHS)
def test_wide_steps_leave_their_input_alone(path):
    z, prior = _wide_step_input(path)
    before = z.copy()
    fuse_step(z, prior, 2)
    probs = calibrate_temperature(z, min(1.0, prior.max_prob())).probs
    kept = probs.copy()
    entropy_confidence(probs)
    top_k_tokens(probs, 5)
    assert np.array_equal(z, before)
    assert np.array_equal(probs, kept)


@pytest.mark.parametrize("path", _PATHS)
def test_results_own_their_memory(path):
    z, prior = _wide_step_input(path)
    target = min(1.0, prior.max_prob())
    first, second = calibrate_temperature(z, target).probs, calibrate_temperature(z, target).probs
    assert not np.shares_memory(first, second)
    kept = first.copy()
    fuse_step(z, prior, 1)
    top_k_tokens(second, 5)
    assert np.array_equal(first, kept)
    assert not np.shares_memory(softmax_with_temperature(z, 1.0), softmax_with_temperature(z, 1.0))


@pytest.mark.parametrize("path", _PATHS)
def test_fused_step_allocates_at_most_one_row_and_a_quarter(path):
    z, prior = _wide_step_input(path)
    fuse_step(z, prior, 1)  # sizes this thread's scratch rows
    tracemalloc.start()
    try:
        fuse_step(z, prior, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * WIDE


@pytest.mark.parametrize("widths", [(2048, WIDE), (WIDE, WIDE)], ids=["own-widths", "one-width"])
def test_concurrent_threads_match_the_plain_loops(widths):
    # at their own widths a shared row would be replaced under the other
    # thread; at one width it would be written by both
    steps = [list(_wide_vocab_steps(np.random.default_rng(index), size))
             for index, size in enumerate(widths)]
    expected = [[ref.fuse_step(z, prior, 1) for z, prior in rows] for rows in steps]
    start = threading.Barrier(len(widths))
    mismatches = []

    def run(index):
        start.wait(timeout=30)
        for _ in range(4):
            for (z, prior), want in zip(steps[index], expected[index]):
                if fuse_step(z, prior, 1) != want:
                    mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(len(widths))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
