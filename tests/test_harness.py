from collections import Counter

import numpy as np

from triefusion import harness
from triefusion.fusion import Decoder, DecoderConfig
from triefusion.harness import (
    decode_sequence,
    drift_adaptation_rate,
    drifted_span_outcomes,
    run_online,
    warm_start,
)
from triefusion.lm import train_ngram
from triefusion.metrics import evaluate_pair
from triefusion.stream import ConceptSpec, DriftSchedule, generate_stream
from triefusion.trie import PrefixTrie
from triefusion.vocab import VocabRegistry, tokenize

OLD = ConceptSpec("concept-1", {"PLAN": "copper-4g"})
NEW = ConceptSpec("concept-2", {"PLAN": "quantum-5g"})
TEMPLATES = [
    "please activate the {PLAN} package today",
    "agents renewed the {PLAN} package yesterday",
]


def _world(length=40, switch=20, seed=3):
    registry = VocabRegistry()
    eos = registry.add("</s>")
    schedule = DriftSchedule("abrupt", (OLD, NEW), switch_points=(switch,), seed=seed)
    stream = generate_stream(TEMPLATES, schedule, length, registry)
    warmup = [
        tokenize(t.replace("{PLAN}", OLD.substitutions["PLAN"]), registry, grow=True) + [eos]
        for t in TEMPLATES
        for _ in range(10)
    ]
    provider = train_ngram(warmup, order=3, smoothing_k=1.0, vocab_size=len(registry))
    return registry, eos, stream, warmup, provider


def test_cold_start_is_all_bypass():
    registry, eos, stream, _, provider = _world()
    trie = PrefixTrie()
    decoder = Decoder(DecoderConfig(strategy="odd"))
    records = run_online(stream[:1], trie, provider, decoder, registry, eos_id=eos)
    assert records[0].bypass_steps == len(records[0].steps)


def test_each_distinct_pair_scored_once_per_run(monkeypatch):
    registry, eos, stream, _, provider = _world()
    calls = Counter()

    def counting(reference, hypothesis):
        calls[reference, hypothesis] += 1
        return evaluate_pair(reference, hypothesis)

    monkeypatch.setattr(harness, "evaluate_pair", counting)
    decoder = Decoder(DecoderConfig(strategy="greedy"))
    records = run_online(stream, None, provider, decoder, registry, eos_id=eos)
    pairs = [(r.reference_text, r.hypothesis_text) for r in records]
    assert len(set(pairs)) < len(pairs)
    assert calls == Counter(set(pairs))
    for record, pair in zip(records, pairs):
        assert record.metrics == evaluate_pair(*pair)
    # the cache lives for one call: a second pass scores every pair again
    run_online(stream, None, provider, decoder, registry, eos_id=eos)
    assert calls == Counter({pair: 2 for pair in set(pairs)})


def test_trie_learns_reference_after_insertion():
    registry, eos, stream, _, provider = _world()
    trie = PrefixTrie()
    value = registry.id_of("copper-4g")
    first = stream[0]
    trie.insert_sequence(list(first.reference) + [eos], first.timestamp)
    reads = [trie.next_tokens(first.prompt[-2:])] + [trie.next_tokens([t]) for t in first.prompt]
    assert any(value in group.tokens for read in reads for group in read)


def test_prequential_truncation_consistency():
    registry, eos, stream, warmup, provider = _world(length=25)
    def run(items):
        trie = PrefixTrie()
        warm_start(trie, warmup, 1.0)
        decoder = Decoder(DecoderConfig(strategy="odd"))
        return run_online(items, trie, provider, decoder, registry, eos_id=eos)

    full = run(stream)
    partial = run(stream[:10])
    assert [r.to_dict() for r in partial] == [r.to_dict() for r in full[:10]]
    assert [r.steps for r in partial] == [r.steps for r in full[:10]]


def test_replay_is_bit_identical():
    registry, eos, stream, warmup, provider = _world()
    def run():
        trie = PrefixTrie()
        warm_start(trie, warmup, 1.0)
        decoder = Decoder(DecoderConfig(strategy="odd"))
        return run_online(stream, trie, provider, decoder, registry, eos_id=eos)

    first, second = run(), run()
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]
    assert [r.steps for r in first] == [r.steps for r in second]


def test_generation_stops_at_eos_or_cap():
    registry, eos, stream, warmup, provider = _world()
    trie = PrefixTrie()
    warm_start(trie, warmup, 1.0)
    decoder = Decoder(DecoderConfig(strategy="greedy", max_new_tokens=6))
    ids, steps, priors = decode_sequence(
        stream[0].prompt, trie, provider, decoder, now=60.0, eos_id=eos
    )
    assert len(priors) == len(steps)
    assert len(steps) <= 6
    if len(steps) < 6:
        assert ids[-1] == eos

    decoder = Decoder(DecoderConfig(strategy="greedy", max_new_tokens=2))
    capped, _, _ = decode_sequence(stream[0].prompt, trie, provider, decoder, now=60.0, eos_id=eos)
    assert len(capped) == len(stream[0].prompt) + 2


def test_hypothesis_strips_end_marker():
    registry, eos, stream, warmup, provider = _world()
    trie = PrefixTrie()
    warm_start(trie, warmup, 1.0)
    decoder = Decoder(DecoderConfig(strategy="greedy"))
    records = run_online(stream[:3], trie, provider, decoder, registry, eos_id=eos)
    for record in records:
        assert "</s>" not in record.hypothesis_text


def test_greedy_run_matches_manual_argmax():
    registry, eos, stream, warmup, provider = _world(length=12)
    trie = PrefixTrie()
    decoder = Decoder(DecoderConfig(strategy="greedy"))
    records = run_online(stream, trie, provider, decoder, registry, eos_id=eos)
    for item, record in zip(stream, records):
        ids = list(item.prompt)
        for _ in range(64):
            ids.append(int(np.argmax(provider.logits(ids))))
            if ids[-1] == eos:
                break
        shown = ids[:-1] if ids[-1] == eos else ids
        assert tuple(shown) == record.hypothesis


def test_span_outcomes():
    registry, eos, stream, warmup, provider = _world(length=30, switch=10)
    post = next(i for i in stream if i.concept_id == "concept-2")
    # perfect hypothesis matches the drifted span
    outcomes = drifted_span_outcomes(post, post.reference, OLD)
    assert outcomes and all(ok for _, ok in outcomes)
    # stale hypothesis (old value) misses it
    stale = [registry.id_of("copper-4g") if t == registry.id_of("quantum-5g") else t
             for t in post.reference]
    outcomes = drifted_span_outcomes(post, stale, OLD)
    assert outcomes and not any(ok for _, ok in outcomes)
    # pre-drift items contribute no drifted spans
    pre = stream[0]
    assert drifted_span_outcomes(pre, pre.reference, OLD) == []


def test_adaptation_rate_counts():
    registry, eos, stream, warmup, provider = _world(length=30, switch=10)
    trie = PrefixTrie()
    warm_start(trie, warmup, 1.0)
    decoder = Decoder(DecoderConfig(strategy="odd"))
    records = run_online(stream, trie, provider, decoder, registry, eos_id=eos)
    matched, total = drift_adaptation_rate(stream, records, OLD, start_index=15)
    assert total == sum(
        len(drifted_span_outcomes(i, r.hypothesis, OLD))
        for i, r in zip(stream, records)
        if i.index >= 15
    )
    assert 0 <= matched <= total
