import gc
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import trie_ref
from bruteforce import NgramScan
from conftest import T_NEW, T_OLD
from trie_ref import FeatureTriple, suffix_children
from triefusion.errors import CorruptSnapshot, VersionMismatch
from triefusion.trie import _HEADER, _LEAF, _NODE, PrefixTrie, SuffixColumns, TrieConfig
from triefusion.vocab import tokenize


def _features(trie, path):
    return dict(suffix_children(trie, path[:-1]))[path[-1]]


def _with_parents(trie):
    """``(parent, record)`` for every walk record, the parent ``None`` under the root.

    The tree is rebuilt from the preorder child counts alone, and every
    declared child must be present.
    """
    pending = [[None, len(suffix_children(trie, []))]]
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
        assert suffix_children(trie, []) == [(3, FeatureTriple(1, 1, 10.0))]

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
        # no path longer than the window exists, so only the suffix [2] is read
        assert suffix_children(trie, [1, 2]) == []
        assert trie.next_tokens([1, 2]) == [SuffixColumns(2, [3], [1], [1.0])]
        assert suffix_children(trie, [1]) == [(2, FeatureTriple(1, 2, 1.0))]

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="cannot insert an empty sequence"):
            PrefixTrie().insert_sequence([], 1.0)

    def test_timestamp_regression(self):
        trie = PrefixTrie()
        trie.insert_sequence([1], 10.0)
        with pytest.raises(ValueError, match="timestamp 9.0 predates last accepted 10.0"):
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
        found = dict(suffix_children(trie, tokenize("activate your plan", registry)))
        assert found == {
            registry.id_of("4G"): FeatureTriple(1, 4, T_OLD),
            registry.id_of("5G"): FeatureTriple(1, 4, T_NEW),
        }

    def test_every_suffix_longest_first(self, two_sentence_world):
        registry, trie = two_sentence_world
        old, new = registry.id_of("4G"), registry.id_of("5G")
        # only the newer sentence follows "please activate your plan"; the
        # shorter suffixes each lead to both values, the older first
        assert trie.next_tokens(tokenize("please activate your plan", registry)) == [
            SuffixColumns(5, [new], [1], [T_NEW]),
            *(SuffixColumns(depth, [old, new], [1, 1], [T_OLD, T_NEW]) for depth in (4, 3, 2)),
        ]

    def test_root_children(self, two_sentence_world):
        registry, trie = two_sentence_world
        tokens = {registry.token_of(t) for t, _ in suffix_children(trie, [])}
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
        "corrupt, message",
        [
            # node 1,2 (depth 2) keeps its child although n_max is now 2
            (lambda p: _patch_header(p, n_max=2), "record 2: depth 3 after depth 2, n_max 2"),
            (lambda p: _patch_header(p, last_ts=math.inf), "newest timestamp inf"),
            (lambda p: _patch_header(p, last_ts=math.nan), "newest timestamp nan"),
            (lambda p: _patch_node(p, 0, recency=math.nan), r"record 0: recency nan not in \(0, 7"),
            (lambda p: _patch_node(p, 0, recency=0.0), r"record 0: recency 0.0 not in \(0, 7"),
            (lambda p: _patch_node(p, 0, recency=7.5), r"record 0: recency 7.5 not in \(0, 7"),
            # node 1,2 seen once under node 1 seen twice
            (lambda p: _patch_node(p, 1, frequency=3), "record 1: frequency 3 above its parent"),
            # depths are read back from the path, so the record's must match it
            (lambda p: _patch_node(p, 0, depth=0), "record 0: depth 0 after depth 0"),
            (lambda p: _patch_node(p, 1, depth=3), "record 1: depth 3 after depth 1"),
            # the root declares two children, but a third record follows them
            (lambda p: _patch_header(p, root_kids=2), "the header declares 2 children, 3 follow"),
            (lambda p: _patch_node(p, 5, frequency=0), "record 5: frequency 0 below 1"),
            # root child 2 becomes a second root child 1
            (lambda p: _patch_node(p, 3, token=1), "record 0: a later sibling repeats its token"),
            # node 2,3 declares a child that never comes
            (lambda p: _patch_node(p, 4, children=1), "record 4 declares 1 children, 0 follow"),
            # root child 3 becomes a second root child 2, and the root declares one child
            # fewer, so every declared count matches its map
            (lambda p: _patch_header(bytearray(_patch_node(p, 5, token=2)), root_kids=2),
             "record 3: a later sibling repeats its token"),
        ],
        ids=["children-at-n-max", "inf-last-ts", "nan-last-ts", "nan-recency",
             "zero-recency", "recency-after-last-ts", "frequency-above-parent",
             "root-child-at-depth-0", "depth-skips-a-level", "extra-record",
             "zero-frequency", "duplicate-token", "missing-record",
             "repeat-behind-matching-counts"],
    )
    def test_inconsistent_snapshot_rejected(self, corrupt, message):
        payload = corrupt(_chain_snapshot())
        with pytest.raises(CorruptSnapshot, match=f"^{message}"):
            PrefixTrie.restore(payload)
        with pytest.raises(CorruptSnapshot):
            trie_ref.PrefixTrie.restore(payload)


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


def _small_snapshots() -> list[bytes]:
    """Snapshots of 30 small random tries: n_max 2-4, tokens 0-3, many equal stamps."""
    payloads = []
    for seed in range(30):
        rng = random.Random(seed)
        trie, stamp = PrefixTrie(n_max=rng.randint(2, 4)), 1.0
        for _ in range(rng.randrange(1, 6)):
            stamp += rng.choice([0.0, 0.0, 1.5])
            trie.insert_sequence([rng.randrange(4) for _ in range(rng.randrange(1, 6))], stamp)
        payloads.append(trie.snapshot())
    return payloads


_SMALL_SNAPSHOTS = _small_snapshots()
_RECORD_VALUES = {
    "token": st.integers(min_value=0, max_value=4),
    "frequency": st.integers(min_value=0, max_value=4),
    "depth": st.integers(min_value=0, max_value=5),
    "recency": st.sampled_from([0.0, 1.0, 1.5, 2.5, 4.0, 9.0, math.nan]),
    "children": st.integers(min_value=0, max_value=4),
}


@st.composite
def _mutated_small_snapshot(draw):
    """1-3 edits to a small snapshot: a record field set to a nearby value, a
    record dropped or repeated (the node count kept true), a root child count,
    or a byte. The field edits make the structural faults a byte flip rarely does.
    """
    payload = bytearray(draw(st.sampled_from(_SMALL_SNAPSHOTS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        nodes = (len(payload) - _HEADER.size) // _NODE.size
        edit = draw(st.sampled_from(["field", "field", "drop", "repeat", "root", "byte"]))
        if edit in ("field", "drop", "repeat") and nodes:
            index = draw(st.integers(min_value=0, max_value=nodes - 1))
            if edit == "field":
                field = draw(st.sampled_from(sorted(_RECORD_VALUES)))
                _patch_node(payload, index, **{field: draw(_RECORD_VALUES[field])})
            else:
                start = _HEADER.size + index * _NODE.size
                record = payload[start : start + _NODE.size]
                payload[start : start + _NODE.size] = record * 2 if edit == "repeat" else b""
                _patch_header(payload, nodes=nodes + (1 if edit == "repeat" else -1))
        elif edit == "root":
            _patch_header(payload, root_kids=draw(st.integers(min_value=0, max_value=5)))
        else:
            position = draw(st.integers(min_value=0, max_value=len(payload) - 1))
            payload[position] = draw(st.integers(min_value=0, max_value=255))
    return bytes(payload)


def _restored_or_error(restore, payload):
    try:
        return restore(payload).snapshot()
    except (CorruptSnapshot, VersionMismatch) as exc:
        return type(exc)


@given(_mutated_small_snapshot())
@settings(max_examples=600, deadline=None)
def test_restore_agrees_with_reference(payload):
    """The same error class as the reference restore, or a trie with its bytes."""
    assert (_restored_or_error(PrefixTrie.restore, payload)
            == _restored_or_error(trie_ref.PrefixTrie.restore, payload))


def test_restored_trie_shares_objects_as_inserted_does():
    pool = list(range(1000, 1006))  # ids past the small-int cache: one object per value
    stamps = [1.0, 2.5, 4.0]
    rng = random.Random(11)
    history = [([rng.choice(pool) for _ in range(rng.randrange(1, 8))], stamps[k // 4])
               for k in range(12)]  # four inserts per stamp
    inserted = PrefixTrie(n_max=4)
    for seq, stamp in history[:8]:
        inserted.insert_sequence(seq, stamp)
    restored = PrefixTrie.restore(inserted.snapshot())

    def objects(trie):
        """Distinct child-map keys and recencies, by value and by identity."""
        keys = [token for kids in trie._children for token in kids]
        return (len(set(keys)), len(set(map(id, keys))),
                len(set(trie._recency)), len(set(map(id, trie._recency))))

    assert objects(restored) == objects(inserted)
    distinct_keys, key_objects, distinct_stamps, stamp_objects = objects(restored)
    assert (key_objects, stamp_objects) == (distinct_keys, distinct_stamps) == (6, 3)
    assert type(inserted.snapshot()) is bytes and type(restored.snapshot()) is bytes

    reference = trie_ref.PrefixTrie.restore(restored.snapshot())
    for seq, stamp in history[8:]:
        assert restored.insert_sequence(seq, stamp) == reference.insert_sequence(seq, stamp)
    assert restored.snapshot() == reference.snapshot()
    assert [restored.next_tokens(seq) for seq, _ in history] == [
        _read(reference, seq) for seq, _ in history]


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
            mine = {t: (f.frequency, f.depth, f.recency) for t, f in suffix_children(trie, suffix)}
            assert mine == oracle.next_tokens(suffix)
            read = [(group.depth, {token: (freq, group.depth, recency) for token, freq, recency
                                   in zip(group.tokens, group.frequencies, group.recencies)})
                    for group in trie.next_tokens(suffix)]
            scanned = [(length + 1, oracle.next_tokens(suffix[len(suffix) - length :]))
                       for length in range(len(suffix), 0, -1)]
            assert read == [(depth, kids) for depth, kids in scanned if kids]

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
            suffix = [local.randrange(6) for _ in range(local.randrange(1, 4))]
            for group in trie.next_tokens(suffix):
                # a visible node always has a complete feature triple
                sizes = {len(group.tokens), len(group.frequencies), len(group.recencies)}
                if (group.depth < 2 or min(group.frequencies) < 1 or min(group.recencies) <= 0
                        or len(sizes) != 1):
                    failures.append(group)

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


def _random_trie():
    """2,000 random 10-token sequences over 1,000 ids: 60,848 nodes."""
    rng = random.Random(0)
    trie = PrefixTrie(n_max=5)
    for stamp in range(1, 2001):
        trie.insert_sequence([rng.randrange(1000) for _ in range(10)], float(stamp))
    return trie


def test_trie_holds_no_gc_tracked_nodes():
    gc.collect()
    before = len(gc.get_objects())
    trie = _random_trie()
    gc.collect()
    assert trie.stats().node_count > 50_000
    assert len(gc.get_objects()) - before < 100


def _traced(build):
    """``build()`` and the bytes still allocated after it, traced by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_trie_costs_at_most_80_bytes_a_node():
    # leaves and lone children share their child maps, so most nodes are only
    # their three column slots; a dict per node costs about 240 bytes
    trie, inserted = _traced(_random_trie)
    payload = trie.snapshot()
    restored, restored_bytes = _traced(lambda: PrefixTrie.restore(payload))
    nodes = trie.stats().node_count
    assert restored.stats().node_count == nodes == 60_848
    assert inserted / nodes <= 80
    assert restored_bytes / nodes <= 80


def test_snapshot_runs_no_collection():
    # a walk that holds one tracked object per node (a list of tuples, say)
    # sets off collections; the column walk allocates per level, not per node
    trie = _random_trie()
    assert trie.stats().node_count == 60_848
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        trie.snapshot()
    finally:
        gc.callbacks.remove(count)
    assert collections == []


@st.composite
def _trie_history(draw):
    """``n_max``, 1-40 sequences of 1-12 ids in [0, 15], and non-decreasing stamps."""
    n_max = draw(st.integers(min_value=2, max_value=7))
    sequences = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=12),
        min_size=1, max_size=40,
    ))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 7.25]),
                         min_size=len(sequences), max_size=len(sequences)))
    stamps = [1.0 + sum(gaps[: i + 1]) for i in range(len(sequences))]
    return n_max, list(zip(sequences, stamps))


def _read(trie, window):
    """``next_tokens(window)``; the reference looks up one suffix, so it is asked per suffix."""
    if not isinstance(trie, trie_ref.PrefixTrie):
        return trie.next_tokens(window)
    groups = []
    for length in range(len(window), 0, -1):
        kids = trie.next_tokens(window[len(window) - length :])
        if kids:
            groups.append(SuffixColumns(kids[0][1].depth, [token for token, _ in kids],
                                        [features.frequency for _, features in kids],
                                        [features.recency for _, features in kids]))
    return groups


def _observed(trie, windows):
    return (trie.snapshot(), trie.stats(), list(trie.walk()),
            [_read(trie, window) for window in windows])


@given(_trie_history())
@settings(max_examples=120, deadline=None)
def test_trie_equals_five_column_reference(history):
    n_max, inserts = history
    trie, reference = PrefixTrie(n_max=n_max), trie_ref.PrefixTrie(n_max=n_max)
    for seq, stamp in inserts:
        assert trie.insert_sequence(seq, stamp) == reference.insert_sequence(seq, stamp)
    windows = [seq[start:end] for seq, _ in inserts
               for start in range(len(seq) + 1) for end in range(start, len(seq) + 1)]
    expected = _observed(reference, windows)
    assert _observed(trie, windows) == expected
    assert _observed(PrefixTrie.restore(reference.snapshot()), windows) == expected
    assert _observed(trie_ref.PrefixTrie.restore(trie.snapshot()), windows) == expected


def _second_child_payloads(payload):
    """For up to three parents of a lone child, the payload with a copy of that child,
    token 99, right after it: the parent gets a second child it does not declare."""
    nodes = (len(payload) - _HEADER.size) // _NODE.size
    records = list(_NODE.iter_unpack(payload[_HEADER.size :]))
    for index in [i for i, record in enumerate(records) if record[4] == 1][:3]:
        child = _HEADER.size + (index + 1) * _NODE.size
        extra = _NODE.pack(99, *records[index + 1][1:])
        bad = bytearray(payload[: child + _NODE.size] + extra + payload[child + _NODE.size :])
        yield _patch_header(bad, nodes=nodes + 1)


def test_undeclared_children_are_rejected_in_linear_time():
    # 60,000 root children under a header that declares one: the shared map is
    # copied once, not once per child, so restore fails fast
    payload = bytearray(_HEADER.pack(b"PTR1", 1, 3, 1.0, 60_000, 60_000, 1))
    for token in range(60_000):
        payload += _NODE.pack(token, 1, 1, 1.0, 0)
    started = time.process_time()
    with pytest.raises(CorruptSnapshot, match="^the header declares 1 children, 60000 follow"):
        PrefixTrie.restore(bytes(payload))
    assert time.process_time() - started < 5.0


@st.composite
def _split_history(draw):
    """``n_max`` and two runs of 1-8 sequences of 1-8 ids in [0, 7]."""
    n_max = draw(st.integers(min_value=2, max_value=5))
    runs = [draw(st.lists(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
                          min_size=1, max_size=8)) for _ in range(2)]
    return n_max, runs


@given(_split_history())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_shared_child_maps_are_never_written(history):
    n_max, (first, later) = history
    made = []

    class Traced(PrefixTrie):
        def __init__(self, n_max=5):
            super().__init__(n_max)
            made.append(self)

    inserted, reference = Traced(n_max), trie_ref.PrefixTrie(n_max)
    for stamp, seq in enumerate(first, 1):
        inserted.insert_sequence(seq, float(stamp))
        reference.insert_sequence(seq, float(stamp))
    restored = Traced.restore(inserted.snapshot())
    for payload in _second_child_payloads(inserted.snapshot()):
        with pytest.raises(CorruptSnapshot, match="repeats its token|children"):
            Traced.restore(payload)
    for stamp, seq in enumerate(later, len(first) + 1):
        for trie in (inserted, restored, reference):
            trie.insert_sequence(seq, float(stamp))

    windows = [seq[start:end] for seq in first + later
               for start in range(len(seq)) for end in range(start + 1, len(seq) + 1)]
    expected = [_read(reference, window) for window in windows]
    for trie in (inserted, restored):
        assert trie.snapshot() == reference.snapshot()
        assert [trie.next_tokens(window) for window in windows] == expected
    assert _LEAF == {}
    assert len(made) >= 2
    for trie in made:
        assert all(kids == {token: 1} for token, kids in trie._lone.items())
