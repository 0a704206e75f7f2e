"""Prequential online loop: decode first, then learn.

Each stream item is decoded with the trie as it stands, scored against the
reference, and only then is the reference inserted. The hypothesis for item
i therefore never depends on reference i or anything later, which makes the
run leakage-free and truncation-consistent: replaying the first i items
reproduces the first i records exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fusion import Decoder, StepDiagnostics
from .lm import LogitProvider
from .metrics import MetricBundle, evaluate_pair
from .prior import trie_prior
from .stream import ConceptSpec, PlaceholderSpan, StreamItem
from .summation import left_sum
from .trie import PrefixTrie
from .vocab import TokenId, VocabRegistry, detokenize


@dataclass(frozen=True)
class ItemRecord:
    index: int
    concept_id: str
    prompt_text: str
    reference_text: str
    hypothesis_text: str
    hypothesis: tuple[TokenId, ...]
    metrics: MetricBundle
    steps: tuple[StepDiagnostics, ...]
    generated: tuple[TokenId, ...]
    # per step: the trie prior's (token, probability) support, None on bypass
    priors: tuple[tuple[tuple[TokenId, float], ...] | None, ...]
    bypass_steps: int

    def to_dict(self) -> dict:
        count = len(self.steps) or 1
        return {
            "index": self.index,
            "concept": self.concept_id,
            "prompt": self.prompt_text,
            "reference": self.reference_text,
            "hypothesis": self.hypothesis_text,
            "metrics": self.metrics.as_dict(),
            "bypass_steps": self.bypass_steps,
            "steps": len(self.steps),
            "mean_gamma": left_sum(s.gamma for s in self.steps) / count,
            "mean_omega": left_sum(s.omega for s in self.steps) / count,
        }


def decode_sequence(
    prompt: Sequence[TokenId],
    trie: PrefixTrie | None,
    provider: LogitProvider,
    decoder: Decoder,
    now: float,
    *,
    eos_id: TokenId,
) -> tuple[list[TokenId], list[StepDiagnostics], list[tuple[tuple[TokenId, float], ...] | None]]:
    """Extend ``prompt`` until the end marker or ``decoder.config.max_new_tokens`` tokens.

    The trie is read-only here; ``now`` is the decode-time clock used for
    recency scoring. Strategies that ignore the trie never query it.
    Returns the extended ids, per-step diagnostics, and per-step prior
    supports (None where no prior was consulted).
    """
    ids = list(prompt)
    steps: list[StepDiagnostics] = []
    priors: list[tuple[tuple[TokenId, float], ...] | None] = []
    run_length = 0
    for _ in range(decoder.config.max_new_tokens):
        z = provider.logits(ids)
        prior = None
        if decoder.wants_prior and ids:
            prior = trie_prior(trie, ids, now, decoder.config.weights)
        token, diagnostics, run_length = decoder.step(z, prior, run_length)
        steps.append(diagnostics)
        priors.append(tuple(prior.probs.items()) if prior is not None else None)
        ids.append(token)
        if token == eos_id:
            break
    return ids, steps, priors


def run_online(
    stream: Sequence[StreamItem],
    trie: PrefixTrie | None,
    provider: LogitProvider,
    decoder: Decoder,
    registry: VocabRegistry,
    *,
    eos_id: TokenId,
) -> list[ItemRecord]:
    """Strict test-then-train pass over the stream, in order; a None trie stays unfilled.

    Each item is decoded under ``decoder``'s strategy and generation cap.
    Each distinct (reference, hypothesis) pair is scored once per call.
    """
    records: list[ItemRecord] = []
    # bundles are frozen, so records of one pair share one
    scored: dict[tuple[str, str], MetricBundle] = {}
    for item in stream:
        ids, steps, priors = decode_sequence(
            item.prompt,
            trie,
            provider,
            decoder,
            now=item.timestamp,
            eos_id=eos_id,
        )
        shown = ids[:-1] if ids[-1] == eos_id else ids
        hypothesis_text = detokenize(shown, registry)
        pair = (item.reference_text, hypothesis_text)
        bundle = scored.get(pair)
        if bundle is None:
            bundle = scored[pair] = evaluate_pair(*pair)
        records.append(
            ItemRecord(
                index=item.index,
                concept_id=item.concept_id,
                prompt_text=item.prompt_text,
                reference_text=item.reference_text,
                hypothesis_text=hypothesis_text,
                hypothesis=tuple(shown),
                metrics=bundle,
                steps=tuple(steps),
                generated=tuple(ids[len(item.prompt) :]),
                priors=tuple(priors),
                bypass_steps=sum(1 for s in steps if s.bypass),
            )
        )
        if trie is not None:
            trie.insert_sequence(list(item.reference) + [eos_id], item.timestamp)
    return records


def warm_start(trie: PrefixTrie, corpus: Sequence[Sequence[TokenId]], timestamp: float) -> None:
    """Pre-stream corpus insertion, e.g. the material the base model saw."""
    for sequence in corpus:
        trie.insert_sequence(sequence, timestamp)


def drifted_span_outcomes(
    item: StreamItem,
    hypothesis: Sequence[TokenId],
    baseline: ConceptSpec,
) -> list[tuple[PlaceholderSpan, bool]]:
    """Per drifted placeholder span: did the hypothesis reproduce it exactly?

    A span counts as drifted when its surface value differs from what the
    baseline concept would have put there. Matching is positional in
    reference coordinates, so a hypothesis that diverged earlier fails.
    """
    outcomes = []
    for span in item.spans:
        if baseline.substitutions.get(span.name) == span.value:
            continue
        expected = item.reference[span.start : span.end]
        matched = (
            len(hypothesis) >= span.end
            and tuple(hypothesis[span.start : span.end]) == tuple(expected)
        )
        outcomes.append((span, matched))
    return outcomes


def drift_adaptation_rate(
    stream: Sequence[StreamItem],
    records: Sequence[ItemRecord],
    baseline: ConceptSpec,
    start_index: int,
) -> tuple[int, int]:
    """(matched, total) drifted spans over items at or past ``start_index``."""
    matched = total = 0
    for item, record in zip(stream, records):
        if item.index < start_index:
            continue
        for _, ok in drifted_span_outcomes(item, record.hypothesis, baseline):
            total += 1
            matched += int(ok)
    return matched, total
