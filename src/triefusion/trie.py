"""Streaming n-gram prefix tree with per-node frequency, depth, and recency.

Inserting a sequence contributes one path per start position, truncated at
the configured maximum window length ``n_max``. A node therefore stands for
one distinct windowed n-gram and stores:

* ``frequency``  -- how many times that n-gram has occurred so far,
* ``depth``      -- its length in tokens (fixed at creation),
* ``recency``    -- the newest timestamp among its occurrences.

Insertion touches O(len * n_max) nodes regardless of how many sequences the
trie already holds. The trie takes an internal lock around mutation and
lookup, so a reader never observes a partially inserted sequence; there is
a single writer (the stream) and timestamps must be non-decreasing.

Snapshot format, version 1, little-endian, stable across releases::

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


class FeatureTriple(NamedTuple):
    """Raw per-node statistics: occurrence count, n-gram length, last-seen time."""

    frequency: int
    depth: int
    recency: float


@dataclass(frozen=True)
class TrieConfig:
    """Maximum inserted n-gram length; windows of 1 alone cannot predict."""

    n_max: int = 5

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")


class TrieNode:
    __slots__ = ("token", "children", "frequency", "depth", "recency")

    def __init__(self, token: TokenId, depth: int):
        self.token = token
        self.children: dict[TokenId, TrieNode] = {}
        self.frequency = 0
        self.depth = depth
        self.recency = 0.0

    def features(self) -> FeatureTriple:
        return FeatureTriple(self.frequency, self.depth, self.recency)


class TrieStats(NamedTuple):
    node_count: int
    total_insertions: int


class PrefixTrie:
    def __init__(self, n_max: int = 5):
        self.config = TrieConfig(n_max)
        self._root = TrieNode(token=-1, depth=0)
        self._node_count = 0
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
        visits = 0
        with self._lock:
            for start in range(len(tokens)):
                node = self._root
                for token in tokens[start : start + n_max]:
                    child = node.children.get(token)
                    if child is None:
                        child = TrieNode(token, node.depth + 1)
                        node.children[token] = child
                        self._node_count += 1
                    child.frequency += 1
                    if timestamp > child.recency:
                        child.recency = timestamp
                    node = child
                    visits += 1
            self._last_timestamp = timestamp
            self._total_insertions += len(tokens)
        return visits

    def next_tokens(self, suffix: Sequence[TokenId]) -> list[tuple[TokenId, FeatureTriple]]:
        """Children of the node reached by ``suffix`` with their stored features.

        An absent path is an empty result, not an error; the empty suffix
        yields the root's children.
        """
        with self._lock:
            node = self._root
            for token in suffix:
                node = node.children.get(token)
                if node is None:
                    return []
            return [(token, child.features()) for token, child in node.children.items()]

    def stats(self) -> TrieStats:
        return TrieStats(self._node_count, self._total_insertions)

    def walk(self) -> Iterator[TrieNode]:
        """Preorder traversal of all nodes below the root."""
        stack = list(reversed(self._root.children.values()))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(list(node.children.values())))

    def snapshot(self) -> bytes:
        with self._lock:
            parts = [
                _HEADER.pack(
                    SNAPSHOT_MAGIC,
                    SNAPSHOT_VERSION,
                    self.config.n_max,
                    self._last_timestamp,
                    self._node_count,
                    self._total_insertions,
                    len(self._root.children),
                )
            ]
            stack = list(reversed(self._root.children.values()))
            while stack:
                node = stack.pop()
                parts.append(
                    _NODE.pack(
                        node.token,
                        node.frequency,
                        node.depth,
                        node.recency,
                        len(node.children),
                    )
                )
                stack.extend(reversed(list(node.children.values())))
            return b"".join(parts)

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

        offset = _HEADER.size
        last_record = len(payload) - _NODE.size
        # stack of [parent, children still to read]
        pending: list[list] = [[trie._root, root_kids]]
        read = 0
        while pending:
            parent, remaining = pending[-1]
            if remaining == 0:
                pending.pop()
                continue
            pending[-1][1] = remaining - 1
            if offset > last_record:
                raise CorruptSnapshot("payload truncated mid-record")
            token, freq, depth, recency, kids = _NODE.unpack_from(payload, offset)
            offset += _NODE.size
            if depth != parent.depth + 1:
                raise CorruptSnapshot(f"depth {depth} under parent depth {parent.depth}")
            if freq < 1:
                raise CorruptSnapshot(f"node frequency {freq} below 1")
            if freq > parent.frequency and parent.depth:  # the root keeps no frequency
                raise CorruptSnapshot(
                    f"node frequency {freq} above its parent's {parent.frequency}"
                )
            if not 0.0 < recency <= last_ts:
                raise CorruptSnapshot(f"node recency {recency!r} outside (0, {last_ts}]")
            if kids and depth >= n_max:
                raise CorruptSnapshot(f"node at depth {depth} has children; n_max is {n_max}")
            if token in parent.children:
                raise CorruptSnapshot(f"duplicate child token {token}")
            node = TrieNode(token, depth)
            node.frequency = freq
            node.recency = recency
            parent.children[token] = node
            read += 1
            if kids:
                pending.append([node, kids])
        if read != node_count:
            raise CorruptSnapshot(f"declared {node_count} nodes, found {read}")
        if offset != len(payload):
            raise CorruptSnapshot(f"{len(payload) - offset} trailing bytes")
        trie._node_count = node_count
        trie._total_insertions = inserted
        trie._last_timestamp = last_ts
        return trie
