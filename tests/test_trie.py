import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bruteforce import NgramScan
from conftest import T_NEW, T_OLD
from triefusion.errors import (
    CorruptSnapshot,
    EmptySequence,
    TimestampRegression,
    VersionMismatch,
)
from triefusion.trie import _HEADER, _NODE, FeatureTriple, PrefixTrie, TrieConfig
from triefusion.vocab import tokenize


def _features(trie, path):
    return dict(trie.next_tokens(path[:-1]))[path[-1]]


def _with_parents(trie):
    """``(parent, record)`` for every walk record, the parent ``None`` under the root.

    The tree is rebuilt from the preorder child counts alone, and every
    declared child must be present.
    """
    pending = [[None, len(trie.next_tokens([]))]]
    pairs = []
    for record in trie.walk():
        while pending and pending[-1][1] == 0:
            pending.pop()
        assert pending, "a record past the last declared child"
        pending[-1][1] -= 1
        pairs.append((pending[-1][0], record))
        if record[4]:
            pending.append([record, record[4]])
    assert not any(remaining for _, remaining in pending)
    return pairs


class TestInsert:
    def test_two_sentence_features(self, two_sentence_world):
        registry, trie = two_sentence_world
        activate_path = tokenize("activate your plan", registry)
        assert _features(trie, activate_path).frequency == 2
        leaf_old = _features(trie, activate_path + [registry.id_of("4G")])
        leaf_new = _features(trie, activate_path + [registry.id_of("5G")])
        assert leaf_old == FeatureTriple(1, 4, T_OLD)
        assert leaf_new == FeatureTriple(1, 4, T_NEW)
        # every suffix start contributes an independent root path
        assert _features(trie, tokenize("your plan 4G", registry)) == FeatureTriple(1, 3, T_OLD)
        assert _features(trie, tokenize("plan 5G", registry)) == FeatureTriple(1, 2, T_NEW)
        deepest = tokenize("please activate your plan 5G", registry)
        assert _features(trie, deepest) == FeatureTriple(1, 5, T_NEW)

    def test_single_token(self):
        trie = PrefixTrie()
        trie.insert_sequence([3], 10.0)
        assert trie.stats().node_count == 1
        assert trie.next_tokens([]) == [(3, FeatureTriple(1, 1, 10.0))]

    def test_double_insert_doubles_frequency(self):
        trie = PrefixTrie(n_max=3)
        trie.insert_sequence([1, 2], 5.0)
        trie.insert_sequence([1, 2], 5.0)
        for path in ([1], [1, 2], [2]):
            assert _features(trie, path).frequency == 2
        assert _features(trie, [1, 2]).recency == 5.0

    def test_repeated_token_counts_per_occurrence(self):
        trie = PrefixTrie(n_max=2)
        trie.insert_sequence([7, 7, 7], 1.0)
        assert _features(trie, [7]).frequency == 3
        assert _features(trie, [7, 7]).frequency == 2

    def test_window_truncation(self):
        trie = PrefixTrie(n_max=2)
        trie.insert_sequence([1, 2, 3], 1.0)
        # no path longer than the window exists
        assert trie.next_tokens([1, 2]) == []
        assert trie.next_tokens([1]) == [(2, FeatureTriple(1, 2, 1.0))]

    def test_empty_sequence(self):
        with pytest.raises(EmptySequence):
            PrefixTrie().insert_sequence([], 1.0)

    def test_timestamp_regression(self):
        trie = PrefixTrie()
        trie.insert_sequence([1], 10.0)
        with pytest.raises(TimestampRegression):
            trie.insert_sequence([2], 9.0)
        trie.insert_sequence([2], 10.0)  # equal timestamps allowed

    def test_bad_timestamp(self):
        with pytest.raises(ValueError):
            PrefixTrie().insert_sequence([1], 0.0)
        with pytest.raises(ValueError):
            PrefixTrie().insert_sequence([1], float("nan"))

    def test_visit_count_returned(self):
        trie = PrefixTrie(n_max=5)
        # starts 0..3 contribute windows of 4,3,2,1 tokens
        assert trie.insert_sequence([1, 2, 3, 4], 1.0) == 10

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            TrieConfig(n_max=1)
        with pytest.raises(ValueError):
            PrefixTrie(n_max=0)


class TestNextTokens:
    def test_matching_suffix(self, two_sentence_world):
        registry, trie = two_sentence_world
        found = dict(trie.next_tokens(tokenize("activate your plan", registry)))
        assert found == {
            registry.id_of("4G"): FeatureTriple(1, 4, T_OLD),
            registry.id_of("5G"): FeatureTriple(1, 4, T_NEW),
        }

    def test_root_children(self, two_sentence_world):
        registry, trie = two_sentence_world
        tokens = {registry.token_of(t) for t, _ in trie.next_tokens([])}
        assert tokens == {"activate", "your", "plan", "please", "4G", "5G"}

    def test_absent_suffix_is_empty(self, two_sentence_world):
        _, trie = two_sentence_world
        assert trie.next_tokens([999]) == []

    def test_depth_parent_child_relation(self, two_sentence_world):
        _, trie = two_sentence_world
        pairs = _with_parents(trie)
        assert len(pairs) == trie.stats().node_count
        for parent, (_, frequency, depth, _, _) in pairs:
            assert depth == (1 if parent is None else parent[2] + 1)
            assert parent is None or frequency <= parent[1]


class TestStats:
    def test_empty(self):
        assert PrefixTrie().stats() == (0, 0)

    def test_two_sentence_corpus_node_count(self, two_sentence_world):
        _, trie = two_sentence_world
        # distinct windowed n-grams of the two sentences, single-token
        # trailing windows included
        oracle = NgramScan(n_max=5)
        oracle.add([0, 1, 2, 3], T_OLD)
        oracle.add([4, 0, 1, 2, 5], T_NEW)
        assert trie.stats().node_count == oracle.node_count() == 19
        assert trie.stats().total_insertions == 9

    def test_reinsert_grows_insertions_not_nodes(self, two_sentence_world):
        registry, trie = two_sentence_world
        before = trie.stats()
        trie.insert_sequence(tokenize("activate your plan 4G", registry), T_NEW)
        after = trie.stats()
        assert after.node_count == before.node_count
        assert after.total_insertions == before.total_insertions + 4


class TestSnapshot:
    def test_empty_roundtrip(self):
        trie = PrefixTrie(n_max=4)
        restored = PrefixTrie.restore(trie.snapshot())
        assert restored.stats() == (0, 0)
        assert restored.config.n_max == 4

    def test_two_sentence_roundtrip(self, two_sentence_world):
        _, trie = two_sentence_world
        restored = PrefixTrie.restore(trie.snapshot())
        assert restored.snapshot() == trie.snapshot()
        assert list(restored.walk()) == list(trie.walk())
        assert restored.last_timestamp == trie.last_timestamp

    def test_truncated_payload(self, two_sentence_world):
        _, trie = two_sentence_world
        payload = trie.snapshot()
        with pytest.raises(CorruptSnapshot):
            PrefixTrie.restore(payload[:-3])

    def test_trailing_garbage(self, two_sentence_world):
        _, trie = two_sentence_world
        with pytest.raises(CorruptSnapshot):
            PrefixTrie.restore(trie.snapshot() + b"x")

    def test_bad_magic(self):
        payload = bytearray(PrefixTrie().snapshot())
        payload[:4] = b"NOPE"
        with pytest.raises(CorruptSnapshot):
            PrefixTrie.restore(bytes(payload))

    def test_version_mismatch(self):
        payload = bytearray(PrefixTrie().snapshot())
        payload[4] = 99
        with pytest.raises(VersionMismatch):
            PrefixTrie.restore(bytes(payload))

    def test_format_is_frozen(self):
        # golden bytes: the version-1 layout must never drift silently
        trie = PrefixTrie(n_max=3)
        trie.insert_sequence([2, 0], 10.0)
        trie.insert_sequence([2, 1], 12.5)
        golden = (
            b"PTR1\x01\x00\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00)@\x05\x00\x00\x00"
            b"\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x02\x00"
            b"\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x00)@\x02\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
            b"\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00$@\x00\x00\x00\x00\x01\x00"
            b"\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x00)@\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
            b"\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00$@\x00\x00\x00\x00\x01\x00"
            b"\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"
            b"\x00\x00)@\x00\x00\x00\x00"
        )
        assert trie.snapshot() == golden
        assert PrefixTrie.restore(golden).snapshot() == golden


def _chain_snapshot():
    """n_max 3; preorder 1 > 1,2 > 1,2,3 | 2 > 2,3 | 3; timestamps 5 then 7."""
    trie = PrefixTrie(n_max=3)
    trie.insert_sequence([1, 2, 3], 5.0)
    trie.insert_sequence([1], 7.0)
    return bytearray(trie.snapshot())


def _patch_header(payload, **fields):
    names = ("magic", "version", "n_max", "last_ts", "nodes", "inserted", "root_kids")
    values = dict(zip(names, _HEADER.unpack_from(payload, 0)))
    values.update(fields)
    _HEADER.pack_into(payload, 0, *(values[name] for name in names))
    return bytes(payload)


def _patch_node(payload, index, **fields):
    names = ("token", "frequency", "depth", "recency", "children")
    offset = _HEADER.size + index * _NODE.size
    values = dict(zip(names, _NODE.unpack_from(payload, offset)))
    values.update(fields)
    _NODE.pack_into(payload, offset, *(values[name] for name in names))
    return bytes(payload)


class TestRestoreConsistency:
    def test_fixture_restores(self):
        payload = bytes(_chain_snapshot())
        assert PrefixTrie.restore(payload).snapshot() == payload

    @pytest.mark.parametrize(
        "corrupt",
        [
            # node 1,2 (depth 2) keeps its child although n_max is now 2
            lambda p: _patch_header(p, n_max=2),
            lambda p: _patch_header(p, last_ts=math.inf),
            lambda p: _patch_header(p, last_ts=math.nan),
            lambda p: _patch_node(p, 0, recency=math.nan),
            lambda p: _patch_node(p, 0, recency=0.0),
            lambda p: _patch_node(p, 0, recency=7.5),
            # node 1,2 seen once under node 1 seen twice
            lambda p: _patch_node(p, 1, frequency=3),
        ],
        ids=["children-at-n-max", "inf-last-ts", "nan-last-ts", "nan-recency",
             "zero-recency", "recency-after-last-ts", "frequency-above-parent"],
    )
    def test_inconsistent_snapshot_rejected(self, corrupt):
        with pytest.raises(CorruptSnapshot):
            PrefixTrie.restore(corrupt(_chain_snapshot()))


def _assert_consistent(trie):
    last = trie.last_timestamp
    assert math.isfinite(last)
    n_max = trie.config.n_max
    pairs = _with_parents(trie)
    for parent, (_, frequency, depth, recency, children) in pairs:
        assert 1 <= depth <= n_max
        assert frequency >= 1
        assert 0.0 < recency <= last
        assert not (children and depth == n_max)
        if parent is None:
            assert depth == 1
        else:
            assert depth == parent[2] + 1
            assert frequency <= parent[1]
    assert len(pairs) == trie.stats().node_count


def _fuzz_base() -> bytes:
    trie = PrefixTrie(n_max=3)
    for stamp, seq in enumerate([[1, 2, 3, 1], [2, 3], [1, 2, 2, 4, 1], [4]], start=1):
        trie.insert_sequence(seq, float(stamp))
    return trie.snapshot()


_FUZZ_PAYLOAD = _fuzz_base()


@st.composite
def _mutated_snapshot(draw):
    payload = bytearray(_FUZZ_PAYLOAD)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        position = draw(st.integers(min_value=0, max_value=len(payload) - 1))
        payload[position] = draw(st.integers(min_value=0, max_value=255))
    return bytes(payload)


@given(st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda tail: b"PTR1\x01\x00" + tail),
    _mutated_snapshot(),
))
@settings(max_examples=400, deadline=None)
def test_restore_yields_consistent_trie_or_raises(payload):
    try:
        trie = PrefixTrie.restore(payload)
    except (CorruptSnapshot, VersionMismatch):
        return
    _assert_consistent(trie)


class TestOracleEquivalence:
    def _random_world(self, seed):
        rng = random.Random(seed)
        n_max = rng.choice([2, 3, 5])
        trie = PrefixTrie(n_max=n_max)
        oracle = NgramScan(n_max=n_max)
        stamp = 0.0
        for _ in range(rng.randrange(1, 40)):
            stamp += rng.uniform(0.5, 100.0)
            seq = [rng.randrange(12) for _ in range(rng.randrange(1, 10))]
            trie.insert_sequence(seq, stamp)
            oracle.add(seq, stamp)
        return rng, trie, oracle

    @pytest.mark.parametrize("seed", range(12))
    def test_next_tokens_matches_scan(self, seed):
        rng, trie, oracle = self._random_world(seed)
        for _ in range(25):
            suffix = [rng.randrange(12) for _ in range(rng.randrange(0, 5))]
            mine = {t: (f.frequency, f.depth, f.recency) for t, f in trie.next_tokens(suffix)}
            assert mine == oracle.next_tokens(suffix)

    @pytest.mark.parametrize("seed", range(6))
    def test_node_count_matches_scan(self, seed):
        _, trie, oracle = self._random_world(seed)
        assert trie.stats().node_count == oracle.node_count()


def test_concurrent_readers_never_see_partial_inserts():
    """One writer, several readers: every observed path is fully formed."""
    import threading

    trie = PrefixTrie(n_max=4)
    rng = random.Random(0)
    sequences = [[rng.randrange(6) for _ in range(8)] for _ in range(400)]
    failures = []
    stop = threading.Event()

    def read_loop():
        local = random.Random(1)
        while not stop.is_set():
            suffix = [local.randrange(6) for _ in range(local.randrange(0, 3))]
            for _, feats in trie.next_tokens(suffix):
                # a visible node always has a complete feature triple
                if feats.frequency < 1 or feats.recency <= 0 or feats.depth < 1:
                    failures.append(feats)

    readers = [threading.Thread(target=read_loop) for _ in range(3)]
    for reader in readers:
        reader.start()
    for stamp, seq in enumerate(sequences, start=1):
        trie.insert_sequence(seq, float(stamp))
    stop.set()
    for reader in readers:
        reader.join(timeout=10)
    assert not failures


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=7),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_recency_monotone_property(sequences):
    trie = PrefixTrie(n_max=3)
    seen: dict[tuple[int, ...], float] = {}
    stamp = 0.0
    for seq in sequences:
        stamp += 1.0
        trie.insert_sequence(seq, stamp)
        path: list[int] = []
        for token, _, depth, recency, _ in trie.walk():
            path[depth - 1 :] = [token]
            key = tuple(path)
            assert recency >= seen.get(key, 0.0)
            seen[key] = recency


def test_trie_holds_no_gc_tracked_nodes():
    rng = random.Random(0)
    sequences = [[rng.randrange(1000) for _ in range(10)] for _ in range(2000)]
    gc.collect()
    before = len(gc.get_objects())
    trie = PrefixTrie(n_max=5)
    for stamp, seq in enumerate(sequences, start=1):
        trie.insert_sequence(seq, float(stamp))
    gc.collect()
    assert trie.stats().node_count > 50_000
    assert len(gc.get_objects()) - before < 100
