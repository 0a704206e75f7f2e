import random

import pytest
from hypothesis import given, settings, strategies as st

from metric_refs import (
    ref_aggregate_with_ci,
    ref_bleu,
    ref_chrf,
    ref_levenshtein,
    ref_rouge_l,
)
from triefusion.metrics import (
    METRIC_FIELDS,
    MetricBundle,
    _bootstrap_picks,
    aggregate,
    aggregate_with_ci,
    chrf,
    evaluate_pair,
    levenshtein,
    rouge_l,
    sentence_bleu,
)


FIXED_PAIRS = [
    ("the cat sat", "the cat"),
    ("the cat sat", "the cat sat"),
    ("aaa", "zzz"),
    ("please activate the plan", "please activate the plan today"),
    ("one two three four five", "one three five"),
    ("alpha beta", "beta alpha"),
    ("a b c d e f g", "a b x d e y g"),
    ("repeated repeated repeated", "repeated"),
    ("kilo mega giga", "kilo mega giga tera peta"),
    ("x", "x y z"),
]


class TestExamples:
    def test_identical(self):
        bundle = evaluate_pair("the plan works", "the plan works")
        assert bundle == MetricBundle(1.0, 1.0, 1.0, 1.0, 100.0)

    def test_disjoint(self):
        bundle = evaluate_pair("aaa", "zzz")
        assert bundle.exact_match == 0.0
        assert bundle.edit_similarity == 0.0
        assert bundle.rouge_l == 0.0
        assert bundle.chrf == 0.0
        # add-one smoothing floors disjoint BLEU at prod 1/(c_n+1); the floor
        # shrinks with length (0.5 at one token, ~0.19 at six, -> 0)
        assert evaluate_pair("aaa", "zzz").bleu == pytest.approx(0.5)
        long = evaluate_pair("a b c d e f", "u v w x y z")
        assert long.bleu == pytest.approx(0.18575, abs=1e-4)

    def test_rouge_prefix_example(self):
        assert evaluate_pair("the cat sat", "the cat").rouge_l == pytest.approx(0.8, abs=1e-9)

    def test_empty_reference(self):
        with pytest.raises(ValueError, match="reference is empty after whitespace normalization"):
            evaluate_pair("   ", "something")

    def test_empty_hypothesis(self):
        bundle = evaluate_pair("the cat", "")
        assert bundle.edit_similarity == 0.0
        assert bundle.bleu == 0.0
        assert bundle.rouge_l == 0.0

    def test_whitespace_normalized_match(self):
        assert evaluate_pair("a  b", " a b ").exact_match == 1.0


class TestAgainstIndependentImplementations:
    @pytest.mark.parametrize("ref,hyp", FIXED_PAIRS)
    def test_levenshtein(self, ref, hyp):
        assert levenshtein(ref, hyp) == ref_levenshtein(ref, hyp)

    @pytest.mark.parametrize("ref,hyp", FIXED_PAIRS)
    def test_rouge(self, ref, hyp):
        assert rouge_l(ref.split(), hyp.split()) == pytest.approx(
            ref_rouge_l(ref, hyp), abs=1e-12
        )

    @pytest.mark.parametrize("ref,hyp", FIXED_PAIRS)
    def test_bleu(self, ref, hyp):
        assert sentence_bleu(ref.split(), hyp.split()) == pytest.approx(
            ref_bleu(ref, hyp), abs=1e-12
        )

    @pytest.mark.parametrize("ref,hyp", FIXED_PAIRS)
    def test_chrf(self, ref, hyp):
        assert chrf(ref, hyp) == pytest.approx(ref_chrf(ref, hyp), abs=1e-9)

    def test_random_pairs(self):
        rng = random.Random(17)
        words = ["plan", "net", "talk", "pack", "5g", "4g", "brand", "the", "a"]
        for _ in range(50):
            ref = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 9)))
            hyp = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 9)))
            mine = evaluate_pair(ref, hyp)
            assert mine.edit_similarity == pytest.approx(
                1 - ref_levenshtein(ref, hyp) / max(len(ref), len(hyp)), abs=1e-9
            )
            assert mine.bleu == pytest.approx(ref_bleu(ref, hyp), abs=1e-9)
            assert mine.rouge_l == pytest.approx(ref_rouge_l(ref, hyp), abs=1e-9)
            assert mine.chrf == pytest.approx(ref_chrf(ref, hyp), abs=1e-9)


class TestAggregate:
    def test_single_bundle_is_identity(self):
        bundle = evaluate_pair("a b", "a c")
        assert aggregate([bundle]) == bundle

    def test_mean_of_two(self):
        bundles = [evaluate_pair("a", "a"), evaluate_pair("a", "b")]
        assert aggregate(bundles).exact_match == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to aggregate"):
            aggregate([])

    def test_bootstrap_ci_deterministic(self):
        rng = random.Random(3)
        bundles = [
            evaluate_pair("a b c", " ".join(rng.choice("abc") for _ in range(3)))
            for _ in range(40)
        ]
        means_a, ci_a = aggregate_with_ci(bundles, seed=11)
        means_b, ci_b = aggregate_with_ci(bundles, seed=11)
        assert means_a == means_b and ci_a == ci_b
        for name, (lo, hi) in ci_a.items():
            assert lo <= getattr(means_a, name) + 1e-9
            assert hi >= getattr(means_a, name) - 1e-9


def _random_bundles(count, seed):
    rng = random.Random(seed)
    return [MetricBundle(*(rng.random() for _ in METRIC_FIELDS)) for _ in range(count)]


class TestBootstrapAgainstReference:
    """The word-block bootstrap reproduces one ``randrange`` per pick exactly.

    Equality also pins the summation order: the reference's builtin ``sum()``
    adds floats left to right up to CPython 3.11 (3.12 compensates), and the
    program adds the picks in that same order.
    """

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 200, 255, 256, 257, 1000])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_means_and_intervals_equal(self, count, seed):
        bundles = _random_bundles(count, seed + count)
        n_resamples = 1000 if count <= 257 else 150
        means, intervals = aggregate_with_ci(bundles, n_resamples=n_resamples, seed=seed)
        ref_means, ref_intervals = ref_aggregate_with_ci(
            bundles, n_resamples=n_resamples, seed=seed
        )
        assert means.as_dict() == ref_means
        assert intervals == ref_intervals

    def test_repeated_values_equal(self):
        # few distinct values make many resample means tie at the percentiles
        bundles = [evaluate_pair("a b c", hyp) for hyp in ("a b c", "a b", "c", "a x c") * 30]
        for seed in (0, 5):
            means, intervals = aggregate_with_ci(bundles, seed=seed)
            ref_means, ref_intervals = ref_aggregate_with_ci(bundles, seed=seed)
            assert means.as_dict() == ref_means
            assert intervals == ref_intervals

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 200, 255, 256, 257, 1000, 65537, 70001])
    def test_picks_equal_randrange(self, count):
        n_resamples = max(1, 20_000 // count)
        picks = _bootstrap_picks(random.Random(count), count, n_resamples)
        rng = random.Random(count)
        expected = [rng.randrange(count) for _ in range(n_resamples * count)]
        assert picks.shape == (n_resamples, count)
        assert picks.ravel().tolist() == expected


@given(st.text(alphabet="abc ", max_size=12), st.text(alphabet="abc ", max_size=12))
@settings(max_examples=100)
def test_edit_similarity_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(st.text(max_size=150), st.text(max_size=150))
@settings(max_examples=300)
def test_levenshtein_matches_reference(a, b):
    assert levenshtein(a, b) == ref_levenshtein(a, b)


@given(st.text(alphabet="ab", min_size=60, max_size=140), st.text(alphabet="ab", max_size=140))
@settings(max_examples=100)
def test_levenshtein_matches_reference_past_word_width(a, b):
    # two-letter text keeps many equal characters on both sides of bit 64
    assert levenshtein(a, b) == ref_levenshtein(a, b)


@given(
    st.text(alphabet="abcd", max_size=8),
    st.text(alphabet="abcd", max_size=8),
    st.text(alphabet="abcd", max_size=8),
)
@settings(max_examples=100)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(st.text(alphabet="xyz q", min_size=1, max_size=15))
@settings(max_examples=60)
def test_metrics_maximal_on_identity(text):
    if not text.split():
        return
    bundle = evaluate_pair(text, text)
    assert bundle.exact_match == 1.0
    assert bundle.edit_similarity == 1.0
    assert bundle.bleu == pytest.approx(1.0)
    assert bundle.rouge_l == pytest.approx(1.0)
    assert bundle.chrf == pytest.approx(100.0)
