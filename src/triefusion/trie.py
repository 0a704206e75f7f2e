"""Streaming n-gram prefix tree with per-node frequency, depth, and recency.

Inserting a sequence contributes one path per start position, truncated at
the configured maximum window length ``n_max``. A node therefore stands for
one distinct windowed n-gram and stores:

* ``frequency``  -- how many times that n-gram has occurred so far,
* ``recency``    -- the newest timestamp among its occurrences.

Nodes are integer ids into three per-node columns, node 0 being the root: a
list of child maps (token -> node id) and plain lists of frequency and
recency. A node's token is its key in its parent's map and its depth is the
length of its path, so neither is stored. Child maps keep insertion order,
which fixes the preorder of snapshots and the order of lookups. A map that
holds only ints is not tracked by the garbage collector, so the trie adds
three tracked objects (its column lists) however many nodes it holds.

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
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import CorruptSnapshot, EmptySequence, TimestampRegression, VersionMismatch
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


class PrefixTrie:
    def __init__(self, n_max: int = 5):
        self.config = TrieConfig(n_max)
        self._children: list[dict[TokenId, int]] = [{}]
        self._frequency: list[int] = [0]
        self._recency: list[float] = [0.0]
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
            raise EmptySequence("cannot insert an empty sequence")
        if not math.isfinite(timestamp) or timestamp <= 0:
            raise ValueError(f"timestamp must be finite and > 0, got {timestamp!r}")
        if timestamp < self._last_timestamp:
            raise TimestampRegression(
                f"timestamp {timestamp} predates last accepted {self._last_timestamp}"
            )
        n_max = self.config.n_max
        children, frequency, recency = self._children, self._frequency, self._recency
        with self._lock:
            for start in range(len(tokens)):
                node = 0
                for token in tokens[start : start + n_max]:
                    child = children[node].get(token)
                    if child is None:
                        child = children[node][token] = len(children)
                        children.append({})
                        frequency.append(0)
                        recency.append(0.0)
                    frequency[child] += 1
                    recency[child] = timestamp  # never older: timestamps do not decrease
                    node = child
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
                    node = children[node].get(token)
                    if node is None:
                        break
                else:
                    kids = children[node]
                    if kids:
                        nodes = kids.values()
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
            payload = bytearray(_HEADER.size + (len(children) - 1) * _NODE.size)
            _HEADER.pack_into(payload, 0, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.config.n_max,
                              self._last_timestamp, len(children) - 1, self._total_insertions,
                              len(children[0]))
            pack_into, offset = _NODE.pack_into, _HEADER.size
            # preorder: one live child iterator per level, so a node's depth is
            # the stack height and the walk allocates nothing per leaf
            stack = [iter(children[0].items())]
            while stack:
                for token, node in stack[-1]:
                    kids = children[node]
                    pack_into(payload, offset, token, frequency[node], len(stack),
                              recency[node], len(kids))
                    offset += _NODE.size
                    if kids:
                        stack.append(iter(kids.items()))
                        break
                else:
                    stack.pop()
        return bytes(payload)

    @classmethod
    def restore(cls, payload: bytes) -> "PrefixTrie":
        if len(payload) < _HEADER.size:
            raise CorruptSnapshot("payload shorter than header")
        magic, version, n_max, last_ts, node_count, inserted, root_kids = _HEADER.unpack_from(
            payload, 0
        )
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

        children, frequency_of, recency_of = trie._children, trie._frequency, trie._recency
        pending = [[0, root_kids]]  # [node id, children still to read] per level
        for token, freq, depth, recency, kids in _NODE.iter_unpack(records):
            while pending and pending[-1][1] == 0:
                pending.pop()
            if not pending:
                raise CorruptSnapshot("records past the last declared child")
            pending[-1][1] -= 1
            parent = pending[-1][0]
            if depth != len(pending):  # the parent's depth is the stack height less one
                raise CorruptSnapshot(f"depth {depth} under parent depth {len(pending) - 1}")
            if freq < 1:
                raise CorruptSnapshot(f"node frequency {freq} below 1")
            if parent and freq > frequency_of[parent]:  # the root keeps no frequency
                raise CorruptSnapshot(
                    f"node frequency {freq} above its parent's {frequency_of[parent]}"
                )
            if not 0.0 < recency <= last_ts:
                raise CorruptSnapshot(f"node recency {recency!r} outside (0, {last_ts}]")
            if kids and depth >= n_max:
                raise CorruptSnapshot(f"node at depth {depth} has children; n_max is {n_max}")
            if token in children[parent]:
                raise CorruptSnapshot(f"duplicate child token {token}")
            node = children[parent][token] = len(children)
            children.append({})
            frequency_of.append(freq)
            recency_of.append(recency)
            if kids:
                pending.append([node, kids])
        if any(remaining for _, remaining in pending):
            raise CorruptSnapshot(f"child counts declare more than {node_count} nodes")
        trie._total_insertions = inserted
        trie._last_timestamp = last_ts
        return trie
