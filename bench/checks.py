"""Correctness checks, each computed apart from the program's own code path.

Every check returns a list of failure messages; an empty list is a pass.
The references are the repository's independent oracles
(``tests/metric_refs.py`` for the lexical metrics, ``tests/bruteforce.py``
for prior scoring), plain numpy, a separate n-gram count table, and
properties the method must have. Nothing is compared against a stored copy
of earlier output.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import bruteforce
import metric_refs

METRIC_TOL = 1e-6
MEAN_TOL = 1e-12
PEAK_TOL = 1e-6
PRIOR_TOL = 1e-12
PRIOR_SAMPLES = 40


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def reference_metrics(reference: str, hypothesis: str) -> dict[str, float]:
    ref, hyp = " ".join(reference.split()), " ".join(hypothesis.split())
    return {
        "exact_match": 1.0 if ref == hyp else 0.0,
        "edit_similarity": metric_refs.ref_edit_similarity(ref, hyp),
        "bleu": metric_refs.ref_bleu(ref, hyp),
        "rouge_l": metric_refs.ref_rouge_l(ref, hyp),
        "chrf": metric_refs.ref_chrf(ref, hyp),
    }


def compare_outputs(out_dir: Path, strategies, scenario: dict) -> list[str]:
    """Checks on one ``compare`` output directory (results, traces, summary)."""
    failures = []
    rows = {s: read_jsonl(out_dir / f"results_{s}.jsonl") for s in strategies}
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    where = out_dir.name

    checked: dict[tuple[str, str], dict] = {}
    for strategy, results in rows.items():
        for row in results:
            pair = (row["reference"], row["hypothesis"])
            if pair not in checked:
                checked[pair] = reference_metrics(*pair)
            for name, expected in checked[pair].items():
                if abs(row["metrics"][name] - expected) > METRIC_TOL:
                    failures.append(f"{where}/{strategy} item {row['index']}: {name} "
                                    f"{row['metrics'][name]} != reference {expected}")

    for entry in summary["strategies"]:
        results = rows[entry["strategy"]]
        for name, mean in entry["means"].items():
            expected = sum(row["metrics"][name] for row in results) / len(results)
            if abs(mean - expected) > MEAN_TOL:
                failures.append(f"{where}/{entry['strategy']}: summary mean {name} {mean} "
                                f"!= mean of results rows {expected}")

    chosen = {s: [(r["item"], r["step"], r["chosen"])
                  for r in read_jsonl(out_dir / f"trace_{s}.jsonl")]
              for s in ("greedy", "temp-scaled")}
    if chosen["greedy"] != chosen["temp-scaled"]:
        failures.append(f"{where}: greedy and temp-scaled chose different tokens")

    if scenario["schedule"].get("kind") == "abrupt":
        failures += _abrupt_drift(where, rows, summary, scenario)
    return failures


def _abrupt_drift(where, rows, summary, scenario) -> list[str]:
    """The fused decoder must pick up the drifted values; the baselines cannot."""
    failures = []
    switch = scenario["schedule"]["switch_points"][0]
    new_values = set(scenario["concepts"][1]["substitutions"].values()) - set(
        scenario["concepts"][0]["substitutions"].values())
    post_rouge, emitted = {}, {}
    for strategy, results in rows.items():
        post = [r for r in results if r["index"] >= switch]
        post_rouge[strategy] = sum(r["metrics"]["rouge_l"] for r in post) / len(post)
        emitted[strategy] = sum(
            any(v in r["hypothesis"].split() for v in new_values) for r in post)
    rates = {e["strategy"]: e["drift"]["drifted_span_rate"] for e in summary["strategies"]}
    for baseline in ("greedy", "temp-scaled"):
        if not post_rouge["odd"] > post_rouge[baseline]:
            failures.append(f"{where}: odd post-drift ROUGE-L {post_rouge['odd']} does not "
                            f"beat {baseline} {post_rouge[baseline]}")
        if rates[baseline] != 0 or emitted[baseline]:
            failures.append(f"{where}: {baseline} reproduced drifted values "
                            f"(rate {rates[baseline]}, {emitted[baseline]} items)")
    if not (rates["odd"] or 0) > 0 or not emitted["odd"]:
        failures.append(f"{where}: odd never reproduced a drifted value")
    return failures


def ngram_argmax_table(corpus, order: int) -> dict[tuple, int]:
    """Most frequent next token per context (ties to the smaller id), counted afresh."""
    counts: dict[tuple, Counter] = defaultdict(Counter)
    for seq in corpus:
        for position, token in enumerate(seq):
            counts[tuple(seq[max(0, position - order + 1):position])][token] += 1
    return {ctx: min(c, key=lambda t: (-c[t], t)) for ctx, c in counts.items()}


def wide_vocab(experiment, provider, records_by: dict) -> list[str]:
    failures = []
    order = experiment.scenario["base_lm"]["order"]
    argmax_of = ngram_argmax_table(experiment.warmup_corpus, order)
    stream = experiment.stream
    tokens = {s: [r.generated for r in records] for s, records in records_by.items()}
    if tokens["greedy"] != tokens["temp-scaled"]:
        failures.append("greedy and temp-scaled chose different tokens")

    for item, record in zip(stream, records_by["greedy"]):
        prefix = list(item.prompt)
        for token in record.generated:
            context = tuple(prefix[-(order - 1):])
            if token != argmax_of.get(context, 0):
                failures.append(f"greedy item {item.index}: chose {token}, n-gram counts "
                                f"say {argmax_of.get(context, 0)}")
            prefix.append(token)

    for item, record in zip(stream, records_by["odd"]):
        prefix = list(item.prompt)
        for step, (token, diag, prior) in enumerate(
                zip(record.generated, record.steps, record.priors)):
            if not diag.bypass:
                z = np.asarray(provider.logits(prefix), dtype=float)
                support = {t for t, _ in prior}
                if token != int(np.argmax(z)) and token not in support:
                    failures.append(f"odd item {item.index} step {step}: token {token} is "
                                    "neither the base argmax nor in the prior's support")
                if not diag.temperature_clamped:
                    exps = np.exp((z - z.max()) / diag.temperature)
                    peak = float(exps.max() / exps.sum())
                    prior_peak = min(1.0, max(p for _, p in prior))
                    if abs(peak - prior_peak) > PEAK_TOL:
                        failures.append(f"odd item {item.index} step {step}: calibrated peak "
                                        f"{peak} != prior peak {prior_peak}")
            prefix.append(token)
    return failures


def large_trie_priors(experiment, corpus, records, corpus_timestamp: float,
                      n_max: int = 5) -> list[str]:
    """Recompute a sample of decode-step priors from the stored corpus.

    The n-gram counts come from a scan of the sequences the trie was fed,
    visible as of each item (warm-up material plus the references of earlier
    items); scoring and normalization are ``tests/bruteforce.py``'s.
    """
    warm = experiment.timestamp_step * 0.5
    stored = [(seq, corpus_timestamp, -1) for seq in corpus]
    stored += [(seq, warm, -1) for seq in experiment.warmup_corpus]
    stored += [(list(item.reference) + [experiment.eos_id], item.timestamp, item.index)
               for item in experiment.stream]

    steps = [(item, record, step)
             for item, record in zip(experiment.stream, records)
             for step, prior in enumerate(record.priors) if prior is not None]
    sample = steps[::max(1, len(steps) // PRIOR_SAMPLES)]
    if not sample:
        return ["no decode step consulted the trie"]

    def prefix_of(item, record, step):
        return list(item.prompt) + list(record.generated[:step])

    needed = set()
    for entry in sample:
        prefix = prefix_of(*entry)
        for length in range(1, min(len(prefix), n_max - 1) + 1):
            needed.add(tuple(prefix[-length:]))
    # suffix -> [(visible_after_item, next token, timestamp)]
    seen = defaultdict(list)
    for seq, stamp, owner in stored:
        for start in range(len(seq)):
            for length in range(1, min(n_max - 1, len(seq) - start - 1) + 1):
                key = tuple(seq[start:start + length])
                if key in needed:
                    seen[key].append((owner, seq[start + length], stamp))

    failures = []
    for item, record, step in sample:
        prefix = prefix_of(item, record, step)
        raw = []
        for length in range(min(len(prefix), n_max - 1), 0, -1):
            grams: dict[int, list] = {}
            for owner, token, stamp in seen.get(tuple(prefix[-length:]), ()):
                if owner < item.index:
                    entry = grams.setdefault(token, [0, stamp])
                    entry[0] += 1
                    entry[1] = max(entry[1], stamp)
            raw += [(t, f, length + 1, s, length) for t, (f, s) in sorted(grams.items())]
        got = dict(record.priors[step])
        expected = bruteforce.bf_top_preserving(
            bruteforce.bf_scores(raw, len(prefix), item.timestamp)) if raw else {}
        if set(got) != set(expected) or any(
                not math.isclose(got[t], expected[t], rel_tol=0, abs_tol=PRIOR_TOL)
                for t in expected):
            failures.append(f"item {item.index} step {step}: prior differs from the "
                            "corpus recomputation")
    return failures

