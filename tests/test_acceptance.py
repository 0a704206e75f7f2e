"""Acceptance gate: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every tolerance is pinned here; nothing is deferred to later
calibration. The drift experiment criteria are fully deterministic (fixed
seed), so they either always pass or always fail.
"""

import math
import random
import time

import numpy as np

from bruteforce import NgramScan, bf_scores, bf_top_preserving
from metric_refs import (
    ref_bleu,
    ref_chrf,
    ref_edit_similarity,
    ref_rouge_l,
)
from triefusion.cli import (
    build_experiment,
    build_provider,
    execute_strategy,
    load_scenario,
    main,
    _engine_settings,
)
from triefusion.fusion import (
    calibrate_temperature,
    continuity,
    disagreement,
    entropy_confidence,
    fuse_step,
    softmax_with_temperature,
)
from triefusion.harness import decode_sequence, drift_adaptation_rate
from triefusion.fusion import Decoder, DecoderConfig
from triefusion.metrics import evaluate_pair
from triefusion.prior import (
    SparseDistribution,
    collect_candidates,
    score_candidates,
    top_preserving_distribution,
)
from triefusion.trie import PrefixTrie


def _report(number, name):
    print(f"\nACCEPTANCE {number} {name}: PASS")


class _FakeArgs:
    """Engine/provider settings resolved purely from the scenario file."""

    weights = None
    n_max = None
    top_k = None
    fixed_temperature = None
    max_new_tokens = None
    order = None
    smoothing_k = None
    lm = None
    endpoint = None
    lm_model = None


def _random_prior(rng, vocab):
    support_size = int(rng.integers(1, min(7, vocab) + 1))
    support = sorted(rng.choice(vocab, size=support_size, replace=False))
    scores = rng.uniform(0.05, 1.0, size=support_size)
    return top_preserving_distribution({int(t): float(s) for t, s in zip(support, scores)})


def test_criterion_1_distribution_validity():
    """10,000 randomized fusion steps keep every distribution normalized."""
    started = time.perf_counter()
    rng = np.random.default_rng(1234)
    for trial in range(10_000):
        vocab = int(rng.integers(2, 80))
        z = rng.normal(scale=rng.uniform(0.2, 5.0), size=vocab)
        prior = None if trial % 7 == 0 else _random_prior(rng, vocab)
        if prior is not None:
            assert abs(sum(prior.probs.values()) - 1.0) <= 1e-9
        token, diag, streak = fuse_step(z, prior, int(rng.integers(0, 12)))

        q_lm = softmax_with_temperature(z, diag.temperature)
        assert abs(float(q_lm.sum()) - 1.0) <= 1e-9
        fused = diag.gamma * q_lm
        if prior is not None:
            for tok in sorted(prior.probs):
                fused[tok] += (1.0 - diag.gamma) * prior.probs[tok]
        assert abs(float(fused.sum()) - 1.0) <= 1e-9
        if prior is not None:
            assert token == int(np.argmax(fused))

        for value in (diag.gamma, diag.omega, diag.c_lm, diag.c_trie,
                      diag.c_lm_adjusted, diag.c_trie_adjusted):
            assert 0.0 <= value <= 1.0
        assert 0.0 <= diag.continuity < 1.0
        assert streak >= 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(1, "distribution validity")


def test_criterion_2_calibration():
    """1,000 random logit rows calibrate to 1e-6 within 200 iterations."""
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    sizes = [10, 1_000, 50_000]
    for index in range(1_000):
        vocab = sizes[index % 3]
        z = rng.normal(scale=rng.uniform(0.5, 3.0), size=vocab)
        target = float(rng.uniform(max(1.5 / vocab, 0.002), 0.99))
        result = calibrate_temperature(z, target)
        assert not result.clamped
        assert result.iterations <= 200
        achieved = float(softmax_with_temperature(z, result.temperature).max())
        assert abs(achieved - target) <= 1e-6
    analytic = calibrate_temperature(np.array([2.0, 0.0]), 0.6)
    assert abs(analytic.temperature - 2.0 / math.log(1.5)) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, "adaptive temperature calibration")


def test_criterion_3_oracle_equivalence():
    """Trie pipeline == brute-force n-gram scan on 100 random corpora."""
    started = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(100):
        vocab = rng.randrange(5, 51)
        n_max = rng.choice([2, 3, 5])
        trie = PrefixTrie(n_max=n_max)
        scan = NgramScan(n_max=n_max)
        stamp = 0.0
        for _ in range(rng.randrange(1, 201)):
            stamp += rng.uniform(0.5, 30.0)
            sequence = [rng.randrange(vocab) for _ in range(rng.randrange(1, 13))]
            trie.insert_sequence(sequence, stamp)
            scan.add(sequence, stamp)
        assert trie.stats().node_count == scan.node_count()
        now = stamp + rng.uniform(0.0, 50.0)
        for _ in range(5):
            prefix = [rng.randrange(vocab) for _ in range(rng.randrange(1, 7))]
            raw = collect_candidates(trie, prefix)
            expected_raw = scan.candidates(prefix)
            # a candidate one token past a suffix of length s sits at depth s + 1
            found = {(token, group.depth - 1) for group in raw.columns for token in group.tokens}
            assert found == {(t, s) for t, _, _, _, s in expected_raw}
            if not raw:
                continue
            scored = score_candidates(raw, len(prefix), now)
            expected_scores = bf_scores(expected_raw, len(prefix), now)
            assert set(scored) == set(expected_scores)
            for token, score in scored.items():
                assert abs(score - expected_scores[token]) <= 1e-12
            distribution = top_preserving_distribution(scored)
            expected_dist = bf_top_preserving(expected_scores)
            assert set(distribution.probs) == set(expected_dist)
            for token, prob in distribution.probs.items():
                assert abs(prob - expected_dist[token]) <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(3, "trie/prior oracle equivalence")


def test_criterion_4_endpoint_reductions():
    """Greedy preset == raw argmax; ODD with an empty trie == greedy."""
    scenario = dict(load_scenario("builtin:telco-abrupt"))
    scenario["length"] = 60
    scenario["schedule"] = {"kind": "abrupt", "switch_points": [30]}
    experiment = build_experiment(scenario)
    provider = build_provider(experiment, _FakeArgs())

    # greedy preset vs direct argmax decode, token for token
    greedy_records, _ = execute_strategy(
        experiment, provider, "greedy", _engine_settings(scenario, _FakeArgs())
    )
    for item, record in zip(experiment.stream, greedy_records):
        ids = list(item.prompt)
        for _ in range(64):
            ids.append(int(np.argmax(provider.logits(ids))))
            if ids[-1] == experiment.eos_id:
                break
        shown = ids[:-1] if ids[-1] == experiment.eos_id else ids
        assert tuple(shown) == record.hypothesis
        assert record.hypothesis_text == " ".join(
            experiment.registry.token_of(t) for t in shown
        )

    # ODD against a permanently empty trie bypasses into greedy
    greedy = Decoder(DecoderConfig(strategy="greedy"))
    odd = Decoder(DecoderConfig(strategy="odd"))
    empty = PrefixTrie()
    for item in experiment.stream:
        ids_greedy, _, _ = decode_sequence(
            item.prompt, empty, provider, greedy, now=item.timestamp,
            eos_id=experiment.eos_id,
        )
        ids_odd, steps, priors = decode_sequence(
            item.prompt, empty, provider, odd, now=item.timestamp,
            eos_id=experiment.eos_id,
        )
        assert all(p is None for p in priors)
        assert ids_odd == ids_greedy
        assert all(step.bypass for step in steps)
    _report(4, "endpoint reductions (greedy / empty-prior)")


def test_criterion_5_complexity():
    """Insertion latency is size-independent; retrieval grows ~quadratically.

    GC is paused around the timed sections: collector sweeps over the
    multi-million-node trie would otherwise dominate the late measurement
    and say nothing about the structure's own insert cost.
    """
    import gc

    started = time.perf_counter()
    rng = random.Random(5)
    trie = PrefixTrie(n_max=5)

    def make_chunk(count):
        return [[rng.randrange(1000) for _ in range(10)] for _ in range(count)]

    def timed_insert(chunks, base_stamp):
        best = math.inf
        stamp = base_stamp
        for chunk in chunks:
            t0 = time.perf_counter()
            for seq in chunk:
                stamp += 1.0
                trie.insert_sequence(seq, stamp)
            best = min(best, (time.perf_counter() - t0) / len(chunk))
        return best, stamp

    early_chunks = [make_chunk(200) for _ in range(5)]
    late_chunks = [make_chunk(200) for _ in range(5)]
    bulk = make_chunk(100_000)

    gc.collect()
    gc.disable()
    try:
        stamp = 0.0
        for seq in bulk[:1000]:
            stamp += 1.0
            trie.insert_sequence(seq, stamp)
        early, stamp = timed_insert(early_chunks, stamp)
        for seq in bulk[1000:]:
            stamp += 1.0
            trie.insert_sequence(seq, stamp)
        assert trie.stats().total_insertions >= 100_000 * 10
        late, stamp = timed_insert(late_chunks, stamp)
    finally:
        gc.enable()
    assert late <= 2.0 * early, f"late {late*1e6:.1f}us vs early {early*1e6:.1f}us"

    # retrieval cost over prefix length, forced deep paths via a unary chain
    chain_trie = PrefixTrie(n_max=40)
    chain_trie.insert_sequence([0] * 40, 1.0)
    lengths = [4, 8, 16, 32]
    timings = []
    for length in lengths:
        prefix = [0] * length
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(300):
                collect_candidates(chain_trie, prefix)
            best = min(best, (time.perf_counter() - t0) / 300)
        timings.append(best)
    logs_l = [math.log(l) for l in lengths]
    logs_t = [math.log(t) for t in timings]
    mean_l = sum(logs_l) / len(logs_l)
    mean_t = sum(logs_t) / len(logs_t)
    exponent = sum((a - mean_l) * (b - mean_t) for a, b in zip(logs_l, logs_t)) / sum(
        (a - mean_l) ** 2 for a in logs_l
    )
    assert exponent <= 2.3, f"fitted exponent {exponent:.2f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _report(5, f"complexity (insert ratio {late/early:.2f}, retrieval exponent {exponent:.2f})")


def test_criterion_6_closed_forms():
    """Spot checks with known closed-form values."""
    assert abs(continuity(3) - (1.0 - math.exp(-1.0))) <= 1e-12

    same = SparseDistribution({0: 0.7, 1: 0.3})
    assert disagreement(np.array([0.7, 0.3]), same, 5) == 0.0

    dense = np.array([0.5, 0.5, 0.0, 0.0])
    disjoint = SparseDistribution({2: 0.5, 3: 0.5})
    assert abs(
        disagreement(dense, disjoint, 2) - min(1.0, math.sqrt(math.log(2.0)))
    ) <= 1e-9

    assert abs(entropy_confidence(np.full(64, 1 / 64))) <= 1e-9
    one_hot = np.zeros(64)
    one_hot[7] = 1.0
    assert entropy_confidence(one_hot) == 1.0
    _report(6, "closed-form checks")


def test_criterion_7_directional_drift():
    """Stale trigram + abrupt drift: only the fused decoder adapts."""
    started = time.perf_counter()
    scenario = load_scenario("builtin:telco-abrupt")
    assert scenario["schedule"]["switch_points"] == [100] and scenario["length"] == 200
    experiment = build_experiment(scenario)
    settings = _engine_settings(scenario, _FakeArgs())
    provider = build_provider(experiment, _FakeArgs())
    assert provider.order == 3  # trained only on the concept-1 warmup corpus

    switch = 100
    evaluate_from = switch + 5  # at least five post-drift observations
    rates = {}
    post_rouge = {}
    for strategy in ("greedy", "temp-scaled", "odd"):
        records, _ = execute_strategy(experiment, provider, strategy, settings)
        matched, total = drift_adaptation_rate(
            experiment.stream, records, experiment.concepts[0], evaluate_from
        )
        assert total > 0
        rates[strategy] = matched / total
        post = [r.metrics.rouge_l for r in records if r.index >= switch]
        post_rouge[strategy] = sum(post) / len(post)

    assert rates["greedy"] == 0.0, "stale argmax can never emit unseen tokens"
    assert rates["temp-scaled"] == 0.0
    assert rates["odd"] >= 0.5, f"odd adapted at rate {rates['odd']:.3f}"
    assert post_rouge["odd"] > post_rouge["greedy"]
    assert post_rouge["odd"] > post_rouge["temp-scaled"]
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(
        7,
        f"directional drift (odd span rate {rates['odd']:.2f}, "
        f"post-drift rouge {post_rouge['odd']:.3f} vs {post_rouge['greedy']:.3f})",
    )


def test_criterion_8_metric_sanity():
    """Worked metric values plus agreement with independent implementations."""
    assert abs(evaluate_pair("the cat sat", "the cat").rouge_l - 0.8) <= 1e-9

    identical = evaluate_pair("all systems nominal", "all systems nominal")
    assert identical.exact_match == 1.0
    assert identical.edit_similarity == 1.0
    assert abs(identical.bleu - 1.0) <= 1e-12
    assert abs(identical.rouge_l - 1.0) <= 1e-12
    assert abs(identical.chrf - 100.0) <= 1e-9

    rng = random.Random(88)
    words = ["plan", "pack", "talk", "net", "the", "a", "with", "now", "5g", "4g"]
    pairs = []
    while len(pairs) < 50:
        ref = " ".join(rng.choice(words) for _ in range(rng.randrange(1, 10)))
        hyp = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 10)))
        pairs.append((ref, hyp))
    for ref, hyp in pairs:
        mine = evaluate_pair(ref, hyp)
        assert abs(mine.edit_similarity - ref_edit_similarity(ref, hyp)) <= 1e-6
        assert abs(mine.bleu - ref_bleu(ref, hyp)) <= 1e-6
        assert abs(mine.rouge_l - ref_rouge_l(ref, hyp)) <= 1e-6
        assert abs(mine.chrf - ref_chrf(ref, hyp)) <= 1e-6
    _report(8, "metric sanity vs independent implementations")


def test_criterion_9_compare_determinism(tmp_path):
    """Two identically seeded compare invocations emit identical bytes."""
    dirs = [tmp_path / "first", tmp_path / "second"]
    for out_dir in dirs:
        code = main(
            ["compare", "--scenario", "builtin:telco-abrupt", "--out-dir", str(out_dir)]
        )
        assert code == 0
    names = [
        "results_greedy.jsonl",
        "results_temp-scaled.jsonl",
        "results_odd.jsonl",
        "summary.tsv",
        "summary.json",
    ]
    for name in names:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        assert first == second, f"{name} differs between runs"
    table = (dirs[0] / "summary.tsv").read_text().splitlines()
    body = [line for line in table if not line.startswith("#")]
    assert [row.split("\t")[0] for row in body] == [
        "strategy", "greedy", "temp-scaled", "odd",
    ]
    _report(9, "compare determinism")
