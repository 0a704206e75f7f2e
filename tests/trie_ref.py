"""Reference copy of the five-column prefix trie.

This is ``triefusion.trie.PrefixTrie`` as it stood when every node also
carried its token and depth in columns of their own, kept verbatim so tests
can assert ``==`` on snapshot bytes, stats, walks and lookups against the
production trie, which derives both from its child maps. The reference looks
up one suffix at a time; ``suffix_children`` reads the same view off the
production trie's one read of every suffix.
"""

from __future__ import annotations

import math
import threading
from typing import Iterator, NamedTuple, Sequence

from triefusion.errors import CorruptSnapshot, VersionMismatch
from triefusion.trie import (
    _HEADER,
    _NODE,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    TrieConfig,
    TrieStats,
)
from triefusion.vocab import TokenId


class FeatureTriple(NamedTuple):
    """Raw per-node statistics: occurrence count, n-gram length, last-seen time."""

    frequency: int
    depth: int
    recency: float


def suffix_children(trie, suffix: Sequence[TokenId]) -> list[tuple[TokenId, FeatureTriple]]:
    """The children of ``suffix`` alone in a ``triefusion.trie.PrefixTrie``, as
    ``(token, FeatureTriple)`` pairs in insertion order: the group of its one read
    that lies one past the suffix, or for the empty suffix the depth-1 walk records.
    """
    suffix = list(suffix)
    if not suffix:
        return [(token, FeatureTriple(frequency, depth, recency))
                for token, frequency, depth, recency, _ in trie.walk() if depth == 1]
    return [(token, FeatureTriple(frequency, group.depth, recency))
            for group in trie.next_tokens(suffix) if group.depth == len(suffix) + 1
            for token, frequency, recency in zip(group.tokens, group.frequencies, group.recencies)]


class PrefixTrie:
    def __init__(self, n_max: int = 5):
        self.config = TrieConfig(n_max)
        self._children: list[dict[TokenId, int]] = [{}]
        self._token: list[TokenId] = [-1]
        self._depth: list[int] = [0]
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
            raise ValueError("cannot insert an empty sequence")
        if not math.isfinite(timestamp) or timestamp <= 0:
            raise ValueError(f"timestamp must be finite and > 0, got {timestamp!r}")
        if timestamp < self._last_timestamp:
            raise ValueError(
                f"timestamp {timestamp} predates last accepted {self._last_timestamp}"
            )
        n_max = self.config.n_max
        children, frequency, recency = self._children, self._frequency, self._recency
        visits = 0
        with self._lock:
            for start in range(len(tokens)):
                node = 0
                for token in tokens[start : start + n_max]:
                    child = children[node].get(token)
                    if child is None:
                        child = children[node][token] = len(children)
                        children.append({})
                        self._token.append(token)
                        self._depth.append(self._depth[node] + 1)
                        frequency.append(0)
                        recency.append(0.0)
                    frequency[child] += 1
                    recency[child] = timestamp  # never older: timestamps do not decrease
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
            node = 0
            for token in suffix:
                node = self._children[node].get(token)
                if node is None:
                    return []
            frequency, depth, recency = self._frequency, self._depth, self._recency
            return [
                (token, FeatureTriple(frequency[child], depth[child], recency[child]))
                for token, child in self._children[node].items()
            ]

    def stats(self) -> TrieStats:
        return TrieStats(len(self._token) - 1, self._total_insertions)

    def _preorder(self) -> list[int]:
        """Ids of every node below the root, parents first, siblings in insertion order."""
        children = self._children
        order = []
        stack = list(reversed(children[0].values()))
        while stack:
            node = stack.pop()
            order.append(node)
            stack.extend(reversed(children[node].values()))
        return order

    def walk(self) -> Iterator[tuple[TokenId, int, int, float, int]]:
        """Preorder snapshot records ``(token, frequency, depth, recency, child_count)``."""
        return _NODE.iter_unpack(memoryview(self.snapshot())[_HEADER.size :])

    def snapshot(self) -> bytes:
        with self._lock:
            order = self._preorder()
            payload = bytearray(_HEADER.size + len(order) * _NODE.size)
            _HEADER.pack_into(payload, 0, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, self.config.n_max,
                              self._last_timestamp, len(order), self._total_insertions,
                              len(self._children[0]))
            pack_into = _NODE.pack_into
            token, frequency, depth = self._token, self._frequency, self._depth
            recency, children = self._recency, self._children
            offsets = range(_HEADER.size, len(payload), _NODE.size)
            for offset, node in zip(offsets, order):
                pack_into(payload, offset, token[node], frequency[node], depth[node],
                          recency[node], len(children[node]))
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

        children, token_of, depth_of = trie._children, trie._token, trie._depth
        frequency_of, recency_of = trie._frequency, trie._recency
        pending = [[0, root_kids]]  # stack of [parent id, children still to read]
        for token, freq, depth, recency, kids in _NODE.iter_unpack(records):
            while pending and pending[-1][1] == 0:
                pending.pop()
            if not pending:
                raise CorruptSnapshot("records past the last declared child")
            pending[-1][1] -= 1
            parent = pending[-1][0]
            if depth != depth_of[parent] + 1:
                raise CorruptSnapshot(f"depth {depth} under parent depth {depth_of[parent]}")
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
            token_of.append(token)
            depth_of.append(depth)
            frequency_of.append(freq)
            recency_of.append(recency)
            if kids:
                pending.append([node, kids])
        if any(remaining for _, remaining in pending):
            raise CorruptSnapshot(f"child counts declare more than {node_count} nodes")
        trie._total_insertions = inserted
        trie._last_timestamp = last_ts
        return trie
