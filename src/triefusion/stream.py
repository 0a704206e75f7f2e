"""Synthetic placeholder-drift streams.

A template is a sentence containing ``{NAME}`` placeholders. A concept maps
placeholder names to surface values; drift means the active concept changes
as the stream index grows:

* abrupt: the active concept jumps at each switch point;
* incremental: the same switching mechanism walked through a chain of
  intermediate concepts;
* gradual: each item is drawn from the old or the new concept at random,
  with the new concept's probability ramping up over the stream.

An item's prompt is the instantiated text before the first placeholder and
its reference is the whole instantiated sentence, so the substituted values
always land in the part that must be generated. The token span of every
substitution is recorded, which lets the harness measure adaptation at
exactly the positions where the domain moved.

All randomness comes from one PRNG seeded by the schedule, drawn in index
order (concept first where applicable, then template), so a fixed seed
reproduces the stream bit for bit.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from random import Random
from typing import Iterable, Mapping, Sequence

from .fusion import root_jensen_shannon
from .vocab import TokenId, VocabRegistry

PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
DRIFT_KINDS = ("abrupt", "incremental", "gradual")
DEFAULT_TIMESTAMP_STEP = 60.0


@dataclass(frozen=True)
class ConceptSpec:
    concept_id: str
    substitutions: Mapping[str, str]


@dataclass(frozen=True)
class PlaceholderSpan:
    """Token coordinates of one substituted placeholder in the reference."""

    name: str
    start: int
    end: int
    value: str


@dataclass(frozen=True)
class DriftSchedule:
    kind: str
    concepts: tuple[ConceptSpec, ...]
    switch_points: tuple[int, ...] = ()
    mixing_ramp: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ValueError(f"kind must be one of {DRIFT_KINDS}, got {self.kind!r}")
        if not self.concepts:
            raise ValueError("schedule needs at least one concept")
        ids = [c.concept_id for c in self.concepts]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate concept ids: {ids}")
        if self.kind == "gradual":
            if len(self.concepts) != 2:
                raise ValueError("gradual drift mixes exactly two concepts")
            if self.switch_points:
                raise ValueError("gradual drift takes a ramp, not switch points")
            if not self.mixing_ramp:
                raise ValueError("gradual drift needs a mixing ramp")
            if any(not 0.0 <= p <= 1.0 for p in self.mixing_ramp):
                raise ValueError("ramp probabilities must lie in [0, 1]")
            if any(b < a for a, b in zip(self.mixing_ramp, self.mixing_ramp[1:])):
                raise ValueError("ramp must be monotone non-decreasing")
        else:
            if self.mixing_ramp:
                raise ValueError(f"{self.kind} drift does not take a ramp")
            if len(self.switch_points) != len(self.concepts) - 1:
                raise ValueError(
                    f"{len(self.concepts)} concepts need exactly "
                    f"{len(self.concepts) - 1} switch points"
                )
            if any(b <= a for a, b in zip(self.switch_points, self.switch_points[1:])):
                raise ValueError("switch points must be strictly increasing")
            if any(p < 0 for p in self.switch_points):
                raise ValueError("switch points must be non-negative")


@dataclass(frozen=True)
class StreamItem:
    index: int
    prompt: tuple[TokenId, ...]
    reference: tuple[TokenId, ...]
    timestamp: float
    concept_id: str
    prompt_text: str
    reference_text: str
    spans: tuple[PlaceholderSpan, ...]


def render_template(template: str, concept: ConceptSpec) -> str:
    """Instantiated surface text; raises when a placeholder has no value."""
    tokens, _ = _instantiate_tokens(template, concept, require_placeholder=False)
    return " ".join(tokens)


def _instantiate_tokens(
    template: str, concept: ConceptSpec, require_placeholder: bool = True
) -> tuple[list[str], list[PlaceholderSpan]]:
    parts = PLACEHOLDER_RE.split(template)
    tokens: list[str] = []
    spans: list[PlaceholderSpan] = []
    for position, part in enumerate(parts):
        if position % 2 == 0:
            tokens.extend(part.split())
            continue
        value = concept.substitutions.get(part)
        if value is None:
            raise ValueError(
                f"placeholder {{{part}}} has no value under concept {concept.concept_id!r}"
            )
        value_tokens = value.split()
        if not value_tokens:
            raise ValueError(
                f"placeholder {{{part}}} maps to an empty value under {concept.concept_id!r}"
            )
        start = len(tokens)
        tokens.extend(value_tokens)
        spans.append(PlaceholderSpan(part, start, len(tokens), value))
    if require_placeholder and not spans:
        raise ValueError(f"template has no placeholders: {template!r}")
    return tokens, spans


def concept_at(schedule: DriftSchedule, index: int, rng: Random) -> ConceptSpec:
    """Active concept for stream position ``index``; draws from rng for gradual."""
    if schedule.kind == "gradual":
        ramp = schedule.mixing_ramp
        p_new = ramp[min(index, len(ramp) - 1)]
        return schedule.concepts[1] if rng.random() < p_new else schedule.concepts[0]
    return schedule.concepts[bisect_right(schedule.switch_points, index)]


def generate_stream(
    templates: Sequence[str],
    schedule: DriftSchedule,
    length: int,
    registry: VocabRegistry,
    timestamp_step: float = DEFAULT_TIMESTAMP_STEP,
) -> list[StreamItem]:
    """Deterministic item list: (i+1) * timestamp_step stamps, seeded draws."""
    if not templates:
        raise ValueError("need at least one template")
    if length < 1:
        raise ValueError("stream length must be >= 1")
    if not timestamp_step > 0:
        raise ValueError("timestamp_step must be > 0")
    if not math.isfinite(length * timestamp_step):
        raise ValueError(f"timestamp_step {timestamp_step} overflows over {length} items")
    rng = Random(schedule.seed)
    items: list[StreamItem] = []
    for index in range(length):
        concept = concept_at(schedule, index, rng)
        template = templates[rng.randrange(len(templates))]
        tokens, spans = _instantiate_tokens(template, concept)
        ids = tuple(registry.add(token) for token in tokens)
        prompt_len = spans[0].start
        items.append(
            StreamItem(
                index=index,
                prompt=ids[:prompt_len],
                reference=ids,
                timestamp=(index + 1) * timestamp_step,
                concept_id=concept.concept_id,
                prompt_text=" ".join(tokens[:prompt_len]),
                reference_text=" ".join(tokens),
                spans=tuple(spans),
            )
        )
    return items


def lexical_drift_telemetry(window_a: Iterable, window_b: Iterable) -> float:
    """Root Jensen-Shannon divergence between two unigram token multisets.

    Natural log, so disjoint vocabularies peak at sqrt(ln 2). Tokens may be
    ids or surface strings; only multiset identity matters.
    """
    counts_a = Counter(window_a)
    counts_b = Counter(window_b)
    if not counts_a or not counts_b:
        raise ValueError("both windows must contain at least one token")
    union = set(counts_a) | set(counts_b)
    return root_jensen_shannon([counts_a[t] for t in union], [counts_b[t] for t in union])


def rolling_drift(
    sequences: Sequence[Sequence[TokenId]], window: int
) -> list[tuple[int, float]]:
    """Drift distance between adjacent windows of ``window`` sequences each.

    Entry (i, d) compares the tokens of sequences [i-2w+1 .. i-w] against
    [i-w+1 .. i]; emitted once both windows are full.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    out: list[tuple[int, float]] = []
    for end in range(2 * window, len(sequences) + 1):
        older: list[TokenId] = []
        newer: list[TokenId] = []
        for seq in sequences[end - 2 * window : end - window]:
            older.extend(seq)
        for seq in sequences[end - window : end]:
            newer.extend(seq)
        out.append((end - 1, lexical_drift_telemetry(older, newer)))
    return out
