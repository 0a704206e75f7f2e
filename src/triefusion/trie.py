"""Streaming n-gram prefix tree with per-node frequency, depth, and recency.

Inserting a sequence contributes one path per start position, truncated at
the configured maximum window length ``n_max``. A node therefore stands for
one distinct windowed n-gram and stores:

* ``frequency``  -- how many times that n-gram has occurred so far,
* ``recency``    -- the newest timestamp among its occurrences.

Nodes are integer ids into three per-node columns, node 0 being the root: a
list of child maps and plain lists of frequency and recency. A child map
holds ``token -> child id - node id``, so the root's offsets are absolute
ids. A node's token is its key in its parent's map and its depth is the
length of its path, so neither is stored. Child maps keep insertion order,
which fixes the preorder of snapshots and the order of lookups.

Most nodes own no map. Every leaf holds the one module-level empty map,
which is never written. A *lone child* is a node's only child whose id is
its parent's plus one: every chain an insert creates, and every first child
in a restored preorder, since both append a node right after its parent. A
lone child's parent holds the trie's one ``{token: 1}`` map for that token.
A node gets a map of its own only when it takes a second child, or a first
child that is not at +1; a shared map is copied, never written. So most
nodes cost only their three column slots, and a trie of random sequences
about 50 bytes a node. A map that holds only ints is not tracked by the
garbage collector, so the trie adds four tracked objects (its column lists
and its table of lone-child maps) however many nodes it holds.

The one lookup, ``next_tokens``, reads the same columns for the decoding
prior: one walk per suffix of the context shorter than n_max, all under one
lock hold, returning per matched suffix the child depth and the children's
tokens, frequencies and recencies as plain lists, with no per-child object.
The children of a single suffix are the group whose depth is one past its
length; the root's children are the depth-1 records of ``walk``.

Insertion touches O(len * n_max) nodes regardless of how many sequences the
trie already holds. The trie takes an internal lock around mutation and
lookup, so a reader never observes a partially inserted sequence; there is
a single writer (the stream) and timestamps must be non-decreasing.

Snapshot format, version 1, little-endian, stable across releases and
independent of the in-memory layout::

    magic       4s  b"PTR1"
    version     H
    n_max       I
    last_ts     d   newest accepted timestamp
    nodes       Q   node count excluding the root
    inserted    Q   cumulative inserted token positions
    root_kids   I   number of root children
    ... then one record per node, preorder:
    token_id    I
    frequency   Q
    depth       I
    recency     d
    children    I

Restore names in ``CorruptSnapshot`` the first record that breaks the format
or repeats a sibling's token, and shares one object per distinct token and
timestamp as inserting does, so a restored trie costs what the inserted one did.
"""

from __future__ import annotations

import io
import math
import struct
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import CorruptSnapshot, VersionMismatch
from .vocab import TokenId

SNAPSHOT_MAGIC = b"PTR1"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sHIdQQI")
_NODE = struct.Struct("<IQIdI")
N_MAX_CAP = 0xFFFFFFFF  # the header's n_max field


class SuffixColumns(NamedTuple):
    """The children of one matched suffix: their shared depth and three parallel columns."""

    depth: int
    tokens: list[TokenId]
    frequencies: list[int]
    recencies: list[float]


@dataclass(frozen=True)
class TrieConfig:
    """Maximum inserted n-gram length; windows of 1 alone cannot predict.

    The snapshot header stores n_max as an unsigned 32-bit field, so it is
    capped at ``N_MAX_CAP``.
    """

    n_max: int = 5

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if self.n_max > N_MAX_CAP:
            raise ValueError(f"n_max must be <= {N_MAX_CAP}, got {self.n_max}")


class TrieStats(NamedTuple):
    node_count: int
    total_insertions: int


_LEAF: dict[TokenId, int] = {}  # every leaf's child map; never written


class _LoneMaps(dict):
    """``token -> {token: 1}``, the one map shared by every parent of a lone child."""

    __slots__ = ()

    def __missing__(self, token):
        kids = self[token] = {token: 1}
        return kids


class PrefixTrie:
    def __init__(self, n_max: int = 5):
        self.config = TrieConfig(n_max)
        self._children: list[dict[TokenId, int]] = [{}]
        self._frequency: list[int] = [0]
        self._recency: list[float] = [0.0]
        self._lone = _LoneMaps()
        self._total_insertions = 0
        self._last_timestamp = 0.0
        self._lock = threading.Lock()

    @property
    def last_timestamp(self) -> float:
        return self._last_timestamp

    def insert_sequence(self, tokens: Sequence[TokenId], timestamp: float) -> int:
        """Insert every windowed n-gram of ``tokens`` observed at ``timestamp``.

        Each start position contributes the path of its following
        min(n_max, remaining) tokens; every node along a path gets its
        frequency bumped by one occurrence and its recency refreshed.
        Returns the number of node updates performed.
        """
        tokens = list(tokens)
        if not tokens:
            raise ValueError("cannot insert an empty sequence")
        if not math.isfinite(timestamp) or timestamp <= 0:
            raise ValueError(f"timestamp must be finite and > 0, got {timestamp!r}")
        if timestamp < self._last_timestamp:
            raise ValueError(
                f"timestamp {timestamp} predates last accepted {self._last_timestamp}"
            )
        n_max = self.config.n_max
        children, frequency, recency, lone = (
            self._children, self._frequency, self._recency, self._lone)
        with self._lock:
            root = children[0]  # its offsets are ids
            for start, token in enumerate(tokens):
                rest = iter(tokens[start + 1 : start + n_max])
                try:
                    node = root[token]
                except KeyError:
                    node = root[token] = len(children)
                else:
                    frequency[node] += 1
                    recency[node] = timestamp  # never older: timestamps do not decrease
                    # Most windows of a random corpus leave the trie at depth 2 (80-88%
                    # on large tries), so that step looks up: a None costs less than a
                    # KeyError. Past it, windows mostly go on (97% of a template corpus's
                    # never leave), so deeper steps subscript: no method call per hit.
                    for token in rest:
                        step = children[node].get(token)
                        if step is None:
                            break
                        node += step
                        frequency[node] += 1
                        recency[node] = timestamp
                        try:  # takes the rest of the window, so the lookup loop ends with it
                            for token in rest:
                                node += children[node][token]
                                frequency[node] += 1
                                recency[node] = timestamp
                        except KeyError:
                            break
                    else:
                        continue
                    # token is the first of the window not yet below node
                    child, kids = len(children), children[node]
                    if not kids:  # a leaf: node is never the root here
                        children[node] = lone[token] if child == node + 1 else {token: child - node}
                    else:
                        if len(kids) == 1:  # perhaps a shared lone-child map
                            kids = children[node] = kids.copy()
                        kids[token] = child - node
                # a new node, last in the columns: the rest of the window is a chain below it
                children += map(lone.__getitem__, rest)
                children.append(_LEAF)
                added = len(children) - len(frequency)
                frequency += [1] * added
                recency += [timestamp] * added
            self._last_timestamp = timestamp
            self._total_insertions += len(tokens)
        # the first len - depth + 1 starts update depth nodes each, the rest depth - 1 down to 1
        depth = min(n_max, len(tokens))
        return depth * (len(tokens) - depth + 1) + depth * (depth - 1) // 2

    def next_tokens(self, context: Sequence[TokenId]) -> list[SuffixColumns]:
        """Children of every suffix of ``context`` shorter than n_max, as columns.

        Longest suffix first, children in insertion order; suffixes that end
        at a leaf or match nothing are left out. A suffix of n_max or more
        tokens always ends at a leaf (paths stop at depth n_max), so at most
        n_max - 1 suffixes are walked. The whole read is one lock hold, so an
        insert lands before or after it, never between two suffixes.
        """
        context = list(context)
        children, frequency, recency = self._children, self._frequency, self._recency
        groups = []
        with self._lock:
            for length in range(min(len(context), self.config.n_max - 1), 0, -1):
                node = 0
                for token in context[len(context) - length :]:
                    step = children[node].get(token)
                    if step is None:
                        break
                    node += step
                else:
                    kids = children[node]
                    if kids:
                        nodes = list(map(node.__add__, kids.values()))
                        groups.append(SuffixColumns(length + 1, list(kids),
                                                    list(map(frequency.__getitem__, nodes)),
                                                    list(map(recency.__getitem__, nodes))))
        return groups

    def stats(self) -> TrieStats:
        return TrieStats(len(self._children) - 1, self._total_insertions)

    def walk(self) -> Iterator[tuple[TokenId, int, int, float, int]]:
        """Preorder snapshot records ``(token, frequency, depth, recency, child_count)``."""
        return _NODE.iter_unpack(memoryview(self.snapshot())[_HEADER.size :])

    def snapshot(self) -> bytes:
        with self._lock:
            children, frequency, recency = self._children, self._frequency, self._recency
            out = io.BytesIO()
            out.seek(_HEADER.size + (len(children) - 1) * _NODE.size - 1)
            out.write(b"\0")  # sizes the one buffer that the records are packed into
            payload = out.getbuffer()
            _HEADER.pack_into(payload, 0, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.config.n_max,
                              self._last_timestamp, len(children) - 1, self._total_insertions,
                              len(children[0]))
            pack_into, offset, size = _NODE.pack_into, _HEADER.size, _NODE.size
            # preorder: per level with siblings, a live child iterator, the id its
            # offsets start from and its depth; an only child follows its parent in
            # the same step, so a chain takes no iterator and the walk allocates
            # nothing per leaf
            stack = [(iter(children[0].items()), 0, 1)]
            while stack:
                items, base, depth = stack[-1]
                for token, step in items:
                    node, below = base + step, depth
                    while True:
                        kids = children[node]
                        pack_into(payload, offset, token, frequency[node], below, recency[node],
                                  len(kids))
                        offset += size
                        if len(kids) != 1:
                            break
                        (token, step), = kids.items()
                        node += step
                        below += 1
                    if kids:
                        stack.append((iter(kids.items()), node, below + 1))
                        break
                else:
                    stack.pop()
            payload.release()
        return out.getvalue()  # with no view left, the buffer itself, not a copy

    @classmethod
    def restore(cls, payload: bytes) -> "PrefixTrie":
        if len(payload) < _HEADER.size:
            raise CorruptSnapshot("payload shorter than header")
        magic, version, n_max, last_ts, node_count, inserted, root_kids = (
            _HEADER.unpack_from(payload, 0))
        if magic != SNAPSHOT_MAGIC:
            raise CorruptSnapshot(f"bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise VersionMismatch(f"unsupported snapshot version {version}")
        if not (math.isfinite(last_ts) and last_ts >= 0.0):
            raise CorruptSnapshot(f"newest timestamp {last_ts!r} is not finite and >= 0")
        try:
            trie = cls(n_max=n_max)
        except ValueError as exc:
            raise CorruptSnapshot(str(exc)) from exc
        records = memoryview(payload)[_HEADER.size :]
        if len(records) != node_count * _NODE.size:
            raise CorruptSnapshot(f"declared {node_count} nodes, found {len(records)} record bytes")

        children, frequency_of, recency_of, lone = [], trie._frequency, trie._recency, trie._lone
        frequency_of[0] = 1 << 64  # above any u64, so a root child's frequency has no cap
        path = [0] * (min(n_max, node_count) + 1)  # node ids on the current path, root first
        declared, top = [root_kids], 0  # child counts by node id; the previous record's depth
        above = 2  # the previous record's declared child count; the root's map is its own
        # one object per distinct token and per timestamp (3 == 3.0), as inserting shares them
        token_of, stamp_of = {}.setdefault, {}.setdefault
        # A node's map is appended at the record after it, which is its first child if
        # it has any: preorder puts a first child right after its parent, at +1.
        for node, (token, freq, depth, recency, kids) in enumerate(_NODE.iter_unpack(records), 1):
            token = token_of(token, token)
            if depth > top:  # the first child of the record before
                if depth > top + 1 or depth > n_max:
                    raise CorruptSnapshot(
                        f"record {node - 1}: depth {depth} after depth {top}, n_max {n_max}")
                parent = node - 1
                children.append(lone[token] if above < 2 else {token: 1})
            else:
                if not depth:
                    raise CorruptSnapshot(
                        f"record {node - 1}: depth {depth} after depth {top}, n_max {n_max}")
                parent = path[depth - 1]
                children.append(_LEAF)  # the record before is a leaf
                if declared[parent] > 1 or len(children[parent]) > 1:
                    children[parent][token] = node - parent
                else:  # a child past the one declared: a lone-child map is shared, so copy it
                    children[parent] = {**children[parent], token: node - parent}
            if not 1 <= freq <= frequency_of[parent]:
                raise CorruptSnapshot(f"record {node - 1}: frequency {freq} " + (
                    "below 1" if freq < 1 else f"above its parent's {frequency_of[parent]}"))
            if not 0.0 < recency <= last_ts:
                raise CorruptSnapshot(f"record {node - 1}: recency {recency} not in (0, {last_ts}]")
            frequency_of.append(freq)
            recency_of.append(stamp_of(recency, recency))
            declared.append(kids)
            path[depth], top, above = node, depth, kids
        children.append(_LEAF if children else {})  # the last record's, or an empty root's
        trie._children = children
        frequency_of[0] = 0
        if sum(declared) != node_count or declared != list(map(len, children)):
            # a repeated token drops the earlier sibling from every map, even where counts agree
            kept = {parent + step for parent, kids in enumerate(children) for step in kids.values()}
            node = next((node for node in range(1, len(children)) if node not in kept), 0)
            if node:
                raise CorruptSnapshot(f"record {node - 1}: a later sibling repeats its token")
            node = next(node for node, kids in enumerate(children) if len(kids) != declared[node])
            raise CorruptSnapshot(f"{f'record {node - 1}' if node else 'the header'} declares "
                                  f"{declared[node]} children, {len(children[node])} follow")
        trie._total_insertions = inserted
        trie._last_timestamp = last_ts
        return trie
