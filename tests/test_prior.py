import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import prior_ref
from bruteforce import NgramScan, bf_scores, bf_top_preserving
from conftest import T_NEW
from triefusion.errors import EmptyCandidates
from triefusion.prior import (
    RawCandidates,
    ScoringWeights,
    SparseDistribution,
    collect_candidates,
    score_candidates,
    top_preserving_distribution,
    trie_prior,
)
from triefusion.trie import FeatureTriple, PrefixTrie, SuffixColumns
from triefusion.vocab import tokenize

THIRD = ScoringWeights()
# under a one-hot weighting a score is exactly that one normalized feature
ONE_HOT = (ScoringWeights(1, 0, 0), ScoringWeights(0, 1, 0), ScoringWeights(0, 0, 1))
LENGTH_ONLY = ONE_HOT[1]


def _raw(*rows):
    """Raw candidates from ``(token, frequency, depth, recency)`` rows, in order.

    Consecutive rows of one depth share a suffix's columns, as the children
    of one matched suffix do.
    """
    columns = []
    for token, freq, depth, recency in rows:
        if not columns or columns[-1].depth != depth:
            columns.append(SuffixColumns(depth, [], [], []))
        columns[-1].tokens.append(token)
        columns[-1].frequencies.append(freq)
        columns[-1].recencies.append(recency)
    return RawCandidates(columns)


def _rows(raw):
    """The raw candidates flattened back to ``(token, FeatureTriple)`` pairs, in order."""
    return [(token, FeatureTriple(freq, group.depth, recency))
            for group in raw.columns
            for token, freq, recency in zip(group.tokens, group.frequencies, group.recencies)]


def _suffix_lens(raw):
    """(token, matched suffix length): a child one past a suffix of length s has depth s + 1."""
    return {(token, features.depth - 1) for token, features in _rows(raw)}


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ScoringWeights(0.5, 0.5, 0.5)

    def test_non_negative(self):
        with pytest.raises(ValueError):
            ScoringWeights(-0.2, 0.6, 0.6)

    def test_defaults(self):
        assert math.isclose(THIRD.frequency + THIRD.length + THIRD.recency, 1.0)

    @pytest.mark.parametrize("weights", [
        (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.0, 0.0, math.nan),
        (math.inf, 0.0, 0.0),
    ])
    def test_non_finite_rejected(self, weights):
        with pytest.raises(ValueError):
            ScoringWeights(*weights)


class TestCollect:
    def test_figure_prefix(self, two_sentence_world):
        registry, trie = two_sentence_world
        prefix = tokenize("activate your plan", registry)
        raw = collect_candidates(trie, prefix)
        # every suffix length matches and contributes both continuations
        assert _suffix_lens(raw) == {
            (registry.id_of(v), length) for v in ("4G", "5G") for length in (1, 2, 3)
        }

    def test_shorter_prefix(self, two_sentence_world):
        registry, trie = two_sentence_world
        raw = collect_candidates(trie, tokenize("your plan", registry))
        depths = {(token, features.depth) for token, features in _rows(raw)}
        assert (registry.id_of("4G"), 3) in depths  # via the your->plan path
        assert (registry.id_of("5G"), 3) in depths

    def test_unseen_prefix(self, two_sentence_world):
        _, trie = two_sentence_world
        raw = collect_candidates(trie, [404])
        assert len(raw) == 0 and raw.columns == []

    def test_empty_prefix_rejected(self, two_sentence_world):
        _, trie = two_sentence_world
        with pytest.raises(ValueError):
            collect_candidates(trie, [])

    def test_walks_only_suffixes_shorter_than_n_max(self, monkeypatch):
        trie = PrefixTrie(n_max=3)
        walked = []
        matches = trie._matches

        def spy(context, lengths):
            lengths = list(lengths)
            walked.extend(lengths)
            return matches(context, lengths)

        monkeypatch.setattr(trie, "_matches", spy)
        collect_candidates(trie, [0] * 20)
        assert walked == [2, 1]

    def test_len_counts_every_suffix_entry(self):
        trie = PrefixTrie(n_max=4)
        trie.insert_sequence([0, 1, 2], 1.0)
        trie.insert_sequence([1, 3], 2.0)
        raw = collect_candidates(trie, [0, 1])
        # suffix [0, 1] -> {2}; suffix [1] -> {2, 3}: token 2 counts twice
        assert [(group.depth, group.tokens) for group in raw.columns] == [(3, [2]), (2, [2, 3])]
        assert len(raw) == 3

    def test_long_prefix_matches_uncapped_walk(self):
        trie = PrefixTrie(n_max=3)
        trie.insert_sequence([0] * 8, 1.0)
        trie.insert_sequence([1, 0, 0, 2], 2.0)
        prefix = [1, 0, 0, 0, 0]
        assert _rows(collect_candidates(trie, prefix)) == [
            (token, features)
            for length in range(len(prefix), 0, -1)
            for token, features in trie.next_tokens(prefix[-length:])
        ]


class TestScore:
    def test_figure_scores(self, two_sentence_world):
        registry, trie = two_sentence_world
        prefix = tokenize("activate your plan", registry)
        raw = collect_candidates(trie, prefix)
        scored = score_candidates(raw, len(prefix), T_NEW, THIRD)
        new = scored[registry.id_of("5G")]
        old = scored[registry.id_of("4G")]
        assert new == pytest.approx(1.0, abs=1e-12)
        # frequency and clamped length pin at 1; recency decays one gap unit
        assert old == pytest.approx((2.0 + math.exp(-1)) / 3.0, abs=1e-12)
        old_parts = [score_candidates(raw, len(prefix), T_NEW, w)[registry.id_of("4G")]
                     for w in ONE_HOT]
        assert old_parts == pytest.approx([1.0, 1.0, math.exp(-1)])

    def test_single_candidate_degenerate_normalizers(self):
        raw = _raw((5, 3, 2, 100.0))
        parts = [score_candidates(raw, 4, 250.0, w)[5] for w in ONE_HOT]
        assert parts == [1.0, 0.5, 1.0]  # gap shift makes it freshest
        assert 0.0 < score_candidates(raw, 4, 250.0, THIRD)[5] <= 1.0

    def test_identical_features_tie(self):
        raw = _raw((1, 2, 2, 50.0), (2, 2, 2, 50.0))
        scored = score_candidates(raw, 3, 60.0, THIRD)
        assert scored[1] == scored[2]

    def test_dedup_keeps_best_suffix(self):
        # same token via two suffixes: the higher-scoring entry survives
        rows = [(7, 5, 4, 100.0), (7, 5, 1, 100.0), (8, 2, 4, 60.0)]
        raw = _raw(*rows)
        scored = score_candidates(raw, 4, 100.0, THIRD)
        assert score_candidates(raw, 4, 100.0, LENGTH_ONLY)[7] == 1.0  # depth 4 of 4
        deep_only = score_candidates(_raw(rows[0], rows[2]), 4, 100.0, THIRD)
        assert scored[7] == pytest.approx(deep_only[7])
        assert list(scored) == [7, 8]  # first-seen token order

    def test_empty_raw_rejected(self):
        with pytest.raises(EmptyCandidates):
            score_candidates(_raw(), 3, 10.0, THIRD)

    def test_length_clamped_at_one(self):
        scored = score_candidates(_raw((1, 1, 9, 5.0)), 2, 9.0, LENGTH_ONLY)
        assert scored[1] == 1.0

    def test_score_monotone_in_frequency(self):
        low = score_candidates(_raw((1, 2, 2, 5.0), (2, 9, 2, 5.0)), 3, 9.0, THIRD)
        high = score_candidates(_raw((1, 5, 2, 5.0), (2, 9, 2, 5.0)), 3, 9.0, THIRD)
        assert high[1] >= low[1]

    def test_recency_shift_invariance(self):
        raw = _raw((1, 2, 2, 50.0), (2, 4, 2, 980.0))
        moved = _raw((1, 2, 2, 50.0 + 123.0), (2, 4, 2, 980.0 + 123.0))
        a = score_candidates(raw, 3, 1000.0, THIRD)
        b = score_candidates(moved, 3, 1123.0, THIRD)
        for token in (1, 2):
            assert a[token] == pytest.approx(b[token], abs=1e-12)


class TestTopPreserving:
    def test_three_way_split(self):
        dist = top_preserving_distribution({0: 0.9, 1: 0.6, 2: 0.3})
        assert dist.probs[0] == pytest.approx(0.9)
        assert dist.probs[1] == pytest.approx(0.1 * 0.6 / 0.9)
        assert dist.probs[2] == pytest.approx(0.1 * 0.3 / 0.9)
        assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_single_candidate_takes_all(self):
        dist = top_preserving_distribution({7: 0.7})
        assert dist.probs == {7: 1.0}

    def test_saturated_winner_collapses_rest(self):
        dist = top_preserving_distribution({0: 1.0, 1: 1.0})
        assert dist.probs == {0: 1.0, 1: 0.0}

    def test_tie_breaks_to_smallest_id(self):
        dist = top_preserving_distribution({4: 0.8, 2: 0.8, 9: 0.2})
        assert dist.argmax_token() == 2
        assert dist.probs[2] == pytest.approx(0.8)

    def test_empty_rejected(self):
        with pytest.raises(EmptyCandidates):
            top_preserving_distribution({})

    def test_max_prob_is_top_score(self):
        dist = top_preserving_distribution({0: 0.55, 1: 0.4})
        assert dist.max_prob() == pytest.approx(0.55)


class TestSparseDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            SparseDistribution({})
        with pytest.raises(ValueError):
            SparseDistribution({0: 0.7})
        with pytest.raises(ValueError):
            SparseDistribution({0: 1.5, 1: -0.5})

    @pytest.mark.parametrize("probs", [{0: math.nan, 1: 0.5}, {0: 1.0, 1: math.nan},
                                       {0: math.nan}])
    def test_nan_rejected(self, probs):
        with pytest.raises(ValueError):
            SparseDistribution(probs)

    def test_top_tokens_skips_zero_mass(self):
        dist = SparseDistribution({0: 1.0, 1: 0.0})
        assert dist.top_tokens(5) == [0]


class TestPipelineOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n_max = rng.choice([2, 3, 5])
        trie = PrefixTrie(n_max=n_max)
        scan = NgramScan(n_max=n_max)
        stamp = 0.0
        for _ in range(rng.randrange(1, 30)):
            stamp += rng.uniform(1.0, 50.0)
            seq = [rng.randrange(9) for _ in range(rng.randrange(1, 8))]
            trie.insert_sequence(seq, stamp)
            scan.add(seq, stamp)
        now = stamp + rng.uniform(0.0, 100.0)
        for _ in range(20):
            prefix = [rng.randrange(9) for _ in range(rng.randrange(1, 6))]
            raw = collect_candidates(trie, prefix)
            expected_raw = scan.candidates(prefix)
            assert _suffix_lens(raw) == {(t, s) for t, _, _, _, s in expected_raw}
            if not raw:
                continue
            mine = score_candidates(raw, len(prefix), now, THIRD)
            theirs = bf_scores(expected_raw, len(prefix), now)
            assert set(mine) == set(theirs)
            for token, score in mine.items():
                assert score == pytest.approx(theirs[token], abs=1e-12)
            dist = top_preserving_distribution(mine)
            expected_dist = bf_top_preserving(theirs)
            assert set(dist.probs) == set(expected_dist)
            for token, prob in dist.probs.items():
                assert prob == pytest.approx(expected_dist[token], abs=1e-12)
            assert trie_prior(trie, prefix, now, THIRD).probs == dist.probs


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),  # token
            st.integers(min_value=1, max_value=10_000),  # frequency
            st.integers(min_value=1, max_value=9),  # depth
            st.floats(min_value=1.0, max_value=1e6),  # recency
        ),
        min_size=1,
        max_size=15,
    ),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=120)
def test_scores_stay_in_unit_interval(rows, prefix_len, now_offset):
    raw = _raw(*rows)
    now = max(recency for _, _, _, recency in rows) + now_offset
    for weights in (THIRD, *ONE_HOT):
        for score in score_candidates(raw, prefix_len, now, weights).values():
            assert 0.0 < score <= 1.0


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=1e-6, max_value=1.0),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=80)
def test_top_preserving_properties(scores):
    dist = top_preserving_distribution(scores)
    assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-9)
    peak = max(scores.values())
    winner = min(t for t, s in scores.items() if s == peak)
    if len(scores) == 1:
        assert dist.max_prob() == 1.0
    else:
        # the winner keeps exactly its score; it is also the distribution
        # maximum whenever the kept score covers at least half the mass
        assert dist.probs[winner] == pytest.approx(peak, abs=1e-12)
        if peak >= 0.5:
            assert dist.max_prob() == pytest.approx(peak, abs=1e-12)


# gaps and decode delays of exactly 0 give equal recencies and gap_max == 0
_STAMP_GAP = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0))
_DECODE_DELAY = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=100.0))


@st.composite
def _prior_world(draw):
    """A trie (fresh and restored from its snapshot), prefixes up to 3 * n_max, weights.

    A vocabulary of 1 or 2 tokens makes single candidates, equal frequencies
    and tokens reached through several suffixes common.
    """
    n_max = draw(st.integers(min_value=2, max_value=7))
    vocab = draw(st.integers(min_value=1, max_value=8))
    token = st.integers(min_value=0, max_value=vocab - 1)
    trie = PrefixTrie(n_max=n_max)
    stamp = 0.0
    for gap, seq in draw(st.lists(
        st.tuples(_STAMP_GAP, st.lists(token, min_size=1, max_size=3 * n_max)),
        min_size=1, max_size=12,
    )):
        stamp = max(stamp + gap, 1.0)
        trie.insert_sequence(seq, stamp)
    prefixes = draw(st.lists(st.lists(token, min_size=1, max_size=3 * n_max),
                             min_size=1, max_size=6))
    now = stamp + draw(_DECODE_DELAY)
    frequency = draw(st.floats(min_value=0.0, max_value=0.5))
    length = draw(st.floats(min_value=0.0, max_value=0.5))
    weights = ScoringWeights(frequency, length, 1.0 - frequency - length)
    return trie, PrefixTrie.restore(trie.snapshot()), prefixes, now, weights


def _assert_matches_reference(trie, restored, prefixes, now, weights):
    for prefix in prefixes:
        expected = prior_ref.trie_prior(trie, prefix, now, weights)
        raw_count = len(prior_ref.collect_candidates(trie, prefix))
        for served in (trie, restored):
            assert len(collect_candidates(served, prefix)) == raw_count
            got = trie_prior(served, prefix, now, weights)
            if expected is None:
                assert got is None
            else:
                assert list(got.probs.items()) == list(expected.probs.items())


@given(_prior_world())
@settings(max_examples=150, deadline=None)
def test_pipeline_equals_reference(world):
    _assert_matches_reference(*world)


def _world(n_max, inserts, prefixes, now, weights=THIRD):
    trie = PrefixTrie(n_max=n_max)
    for seq, stamp in inserts:
        trie.insert_sequence(seq, stamp)
    return trie, PrefixTrie.restore(trie.snapshot()), prefixes, now, weights


@pytest.mark.parametrize("world", [
    # equal frequencies and recencies across every suffix's children
    _world(4, [([0, 1, 2, 0, 1, 3], 5.0), ([2, 0, 1, 4], 5.0)], [[0, 1], [2, 0, 1], [1]], 9.0),
    # decoded at the one stored time: every gap is 0, so gap_max == 0
    _world(3, [([0, 1, 2], 7.0), ([1, 2, 2], 7.0), ([3, 1], 7.0)], [[0, 1], [1], [2]], 7.0),
    # a single candidate
    _world(2, [([5, 6], 3.0)], [[5]], 4.0),
    # one token reached through several suffixes, with different features
    _world(5, [([0, 0, 0, 0, 0, 1], 1.0), ([0, 0, 1], 2.0), ([0, 1], 3.0)],
           [[0, 0, 0, 0], [0, 0], [0]], 3.5, ScoringWeights(0.2, 0.5, 0.3)),
], ids=["equal-features", "zero-gaps", "single-candidate", "shared-token"])
def test_pipeline_equals_reference_on_memoised_paths(world):
    _assert_matches_reference(*world)


class _CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, lock):
        self.lock, self.acquired = lock, 0

    def __enter__(self):
        self.acquired += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def test_one_lock_hold_per_prior():
    trie = PrefixTrie(n_max=5)
    trie.insert_sequence([0, 1, 2, 3, 4, 5], 1.0)
    trie.insert_sequence([2, 3, 9], 2.0)
    trie._lock = lock = _CountingLock(trie._lock)
    prefix = [0, 1, 2, 3]
    assert {group.depth for group in collect_candidates(trie, prefix).columns} == {5, 4, 3, 2}
    lock.acquired = 0
    assert trie_prior(trie, prefix, 3.0) is not None
    assert lock.acquired == 1


@given(st.dictionaries(st.integers(min_value=0, max_value=60),
                       st.integers(min_value=0, max_value=4), min_size=1)
       .filter(lambda weights: sum(weights.values()) > 0))
@settings(max_examples=200, deadline=None)
def test_support_is_ascending_and_argmax_matches_reference(weights):
    # small integer weights make ties common; a tie goes to the smallest id
    total = sum(weights.values())
    probs = {token: weight / total for token, weight in weights.items()}
    dist = SparseDistribution(probs)
    assert list(dist.probs) == sorted(probs)
    assert dist.probs == probs
    assert dist.argmax_token() == prior_ref.argmax_token(probs)
