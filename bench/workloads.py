"""The benchmark's three workloads.

Each workload makes its inputs from the seed, then offers:

* ``setup()``      -- everything up to "ready to decode" (experiment and
  stream build, base-model training, trie warm-start);
* ``job(state)``   -- the closed-loop prequential passes, one item after the
  other, plus writing the outputs; returns a :class:`JobResult`;
* ``final_tries(state, result)`` -- the tries the snapshot and restore loops
  time;
* ``corpus(state)`` -- the sequences the ingest loop fills empty
  ``PrefixTrie``s with, as groups of (tokens, timestamp), one trie per group;
* ``check(evidence)`` -- correctness checks on the job's outputs, each
  computed apart from the program (see ``checks.py``).

Why these three: ``drift-compare`` is the paper's experiment, where the metric
layer does most of the work; ``wide-vocab`` pads the base vocabulary to
real-model size, so fusion and ``lm.logits`` dominate while the trie stays
tiny; ``large-trie`` serves over a trie of tens of thousands of sequences,
so the trie, the prior and the garbage collector dominate. Each one is the
"no change expected" control for an optimisation aimed at another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

import checks

SCENARIOS = ("telco-abrupt", "telco-incremental", "telco-gradual")

# Sizes of every input. "full" is what the benchmark measures; "tiny" keeps
# the same make-up at a size the self-test runs in seconds.
SIZES = {
    "full": {
        "stream_length": None,  # the scenario's own 200 items
        "wide_vocab": 32768,
        "trie_sequences": 20000,
        "trie_sequence_len": 12,
        "trie_pool": 2000,
        "trie_stream_length": 200,
    },
    "tiny": {
        "stream_length": 40,
        "wide_vocab": 2048,
        "trie_sequences": 400,
        "trie_sequence_len": 12,
        "trie_pool": 100,
        "trie_stream_length": 40,
    },
}


@dataclass
class JobResult:
    pass_s: float  # time in the prequential passes and their summaries
    tokens: int  # generated tokens
    items: int  # decoded stream items (the benchmark's operations)
    final_tries: list  # tries the snapshot/restore loops time
    evidence: dict = field(default_factory=dict)  # what the checks read


def digest_dir(path: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for file in sorted(p for p in path.iterdir() if p.is_file()):
        h.update(file.name.encode() + b"\0" + file.read_bytes())
    return h.hexdigest()


def _scaled_scenario(scenario: dict, length: int | None) -> dict:
    """The scenario at another stream length, switch points scaled along."""
    if length is None:
        return scenario
    old = int(scenario["length"])
    schedule = dict(scenario["schedule"])
    if "switch_points" in schedule:
        schedule["switch_points"] = [p * length // old for p in schedule["switch_points"]]
    return {**scenario, "length": length, "schedule": schedule}


class Workload:
    name = ""

    def __init__(self, tf, seed: int, size: str, out_dir: Path):
        self.tf = tf  # namespace of the program's modules
        self.seed = seed
        self.size = SIZES[size]
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def final_tries(self, state, result):
        return result.final_tries


class DriftCompare(Workload):
    """``triefusion compare`` through ``cli.main`` on the three builtin scenarios."""

    name = "drift-compare"
    wall_includes_setup = False  # cli.main does its own set-up inside the job

    def __init__(self, tf, seed, size, out_dir):
        super().__init__(tf, seed, size, out_dir)
        self.sources = []
        for name in SCENARIOS:
            source = f"builtin:{name}"
            if self.size["stream_length"] is not None:
                scenario = _scaled_scenario(tf.cli.load_scenario(source),
                                            self.size["stream_length"])
                path = out_dir.parent / f"scenario-{name}.json"
                path.write_text(json.dumps(scenario), encoding="utf-8")
                source = str(path)
            self.sources.append(source)

    def setup(self):
        cli = self.tf.cli
        experiments = []
        for source in self.sources:
            experiment = cli.build_experiment(cli.load_scenario(source), seed_override=self.seed)
            cli.build_provider(experiment, argparse.Namespace())
            settings = cli._engine_settings(experiment.scenario, argparse.Namespace())
            trie = self.tf.trie.PrefixTrie(n_max=settings["n_max"])
            cli.warm_start(trie, experiment.warmup_corpus, experiment.timestamp_step * 0.5)
            experiments.append(experiment)
        return experiments

    def job(self, experiments):
        dirs = [self.out_dir / name for name in SCENARIOS]
        start = perf_counter()
        for source, out in zip(self.sources, dirs):
            with contextlib.redirect_stdout(sys.stderr):
                code = self.tf.cli.main(["compare", "--scenario", source, "--seed",
                                         str(self.seed), "--out-dir", str(out), "--trace"])
            if code != 0:
                raise RuntimeError(f"compare on {source} exited with {code}")
        pass_s = perf_counter() - start
        tokens = items = 0
        for out in dirs:
            for strategy in self.tf.cli.STRATEGY_ORDER:
                rows = checks.read_jsonl(out / f"results_{strategy}.jsonl")
                items += len(rows)
                tokens += sum(row["steps"] for row in rows)
        return JobResult(pass_s, tokens, items, [],
                         {"dirs": dirs, "digest": "".join(digest_dir(d) for d in dirs)})

    def corpus(self, experiments):
        return [_prequential_corpus(e) for e in experiments]

    def final_tries(self, experiments, result):
        # every strategy's trie ends as warm-up plus all references, so the
        # final trie is the ingest fill of the corpus
        return [fill(self.tf, group) for group in self.corpus(experiments)]

    def check(self, evidence):
        failures = []
        for source, out in zip(self.sources, evidence["dirs"]):
            scenario = self.tf.cli.load_scenario(source)
            failures += checks.compare_outputs(out, self.tf.cli.STRATEGY_ORDER, scenario)
        return failures


class WideVocab(Workload):
    """telco-abrupt with the base n-gram vocabulary padded with never-seen tokens."""

    name = "wide-vocab"
    wall_includes_setup = True

    def __init__(self, tf, seed, size, out_dir):
        super().__init__(tf, seed, size, out_dir)
        self.scenario = _scaled_scenario(tf.cli.load_scenario("builtin:telco-abrupt"),
                                         self.size["stream_length"])

    def setup(self):
        cli = self.tf.cli
        experiment = cli.build_experiment(self.scenario, seed_override=self.seed)
        registry = experiment.registry
        for index in range(self.size["wide_vocab"] - len(registry)):
            registry.add(f"<pad-{index}>")
        base = experiment.scenario["base_lm"]
        provider = cli.train_ngram(experiment.warmup_corpus, base["order"], base["smoothing_k"],
                                   vocab_size=len(registry))
        settings = cli._engine_settings(experiment.scenario, argparse.Namespace())
        return experiment, provider, settings

    def job(self, state):
        cli = self.tf.cli
        experiment, provider, settings = state
        pass_s = 0.0
        records_by, summaries, tries = {}, [], {}
        for strategy in cli.STRATEGY_ORDER:
            start = perf_counter()
            records, trie = cli.execute_strategy(experiment, provider, strategy, settings)
            summaries.append(cli.summarize_strategy(experiment, records, strategy))
            pass_s += perf_counter() - start
            records_by[strategy], tries[strategy] = records, trie
            cli.write_results(records, self.out_dir / f"results_{strategy}.jsonl")
            cli.write_trace(records, self.out_dir / f"trace_{strategy}.jsonl", experiment.registry)
        cli.write_table(summaries, self.out_dir / "summary.tsv")
        cli.write_summary({"seed": experiment.seed, "strategies": summaries},
                          self.out_dir / "summary.json")
        tokens = sum(len(r.steps) for records in records_by.values() for r in records)
        items = sum(len(records) for records in records_by.values())
        return JobResult(pass_s, tokens, items, [tries["odd"]],
                         {"records": records_by, "experiment": experiment,
                          "provider": provider, "digest": digest_dir(self.out_dir)})

    def corpus(self, state):
        return [_prequential_corpus(state[0])]

    def check(self, ev):
        return checks.wide_vocab(ev["experiment"], ev["provider"], ev["records"])


class LargeTrie(Workload):
    """An abrupt-drift stream served with ``odd`` over a trie of random sequences.

    The corpus and the stream's templates draw from one token pool, so every
    short suffix of a decoding prefix fans out over hundreds of children.
    """

    name = "large-trie"
    wall_includes_setup = True
    corpus_timestamp = 1.0  # before the warm-up corpus (timestamp_step / 2) and the stream

    def __init__(self, tf, seed, size, out_dir):
        super().__init__(tf, seed, size, out_dir)
        rng = Random(f"large-trie/{seed}")
        pool = [f"t{index}" for index in range(self.size["trie_pool"])]
        length = self.size["trie_sequence_len"]

        def template():
            words = rng.choices(pool, k=length - 2)
            words.insert(3, "{PLAN}")
            words.insert(8, "{BRAND}")
            return " ".join(words)

        base = tf.cli.load_scenario("builtin:telco-abrupt")
        stream_length = self.size["trie_stream_length"]
        self.scenario = {
            **base,
            "name": "large-trie",
            "templates": [template() for _ in range(4)],
            "concepts": [
                {"id": f"concept-{k}",
                 "substitutions": {"PLAN": rng.choice(pool), "BRAND": rng.choice(pool)}}
                for k in (1, 2)
            ],
            "schedule": {"kind": "abrupt", "switch_points": [stream_length // 2]},
            "length": stream_length,
            "seed": seed,
        }
        self.corpus_text = [" ".join(rng.choices(pool, k=length))
                            for _ in range(self.size["trie_sequences"])]
        self.pool = pool

    def setup(self):
        tf = self.tf
        experiment = tf.cli.build_experiment(self.scenario)
        registry = experiment.registry
        for word in self.pool:
            registry.add(word)
        corpus = [tf.vocab.tokenize(text, registry) for text in self.corpus_text]
        base = experiment.scenario["base_lm"]
        provider = tf.cli.train_ngram(experiment.warmup_corpus, base["order"], base["smoothing_k"],
                                      vocab_size=len(registry))
        trie = tf.trie.PrefixTrie(n_max=5)
        tf.cli.warm_start(trie, corpus, self.corpus_timestamp)
        tf.cli.warm_start(trie, experiment.warmup_corpus, experiment.timestamp_step * 0.5)
        return experiment, provider, trie, corpus

    def job(self, state):
        tf = self.tf
        experiment, provider, trie, corpus = state
        decoder = tf.fusion.Decoder(tf.fusion.DecoderConfig(strategy="odd"))
        start = perf_counter()
        records = tf.harness.run_online(experiment.stream, trie, provider, decoder,
                                        experiment.registry, eos_id=experiment.eos_id)
        summary = tf.cli.summarize_strategy(experiment, records, "odd")
        pass_s = perf_counter() - start
        tf.cli.write_results(records, self.out_dir / "results_odd.jsonl")
        tf.cli.write_summary({"seed": experiment.seed, "strategies": [summary]},
                             self.out_dir / "summary.json")
        return JobResult(pass_s, sum(len(r.steps) for r in records), len(records), [trie],
                         {"records": records, "experiment": experiment, "corpus": corpus,
                          "digest": digest_dir(self.out_dir)})

    def corpus(self, state):
        experiment, _, _, corpus = state
        warm = experiment.timestamp_step * 0.5
        return [[(seq, self.corpus_timestamp) for seq in corpus]
                + [(seq, warm) for seq in experiment.warmup_corpus]]

    def check(self, ev):
        return checks.large_trie_priors(ev["experiment"], ev["corpus"], ev["records"],
                                        self.corpus_timestamp)


def _prequential_corpus(experiment) -> list:
    """Warm-up corpus, then every reference plus end marker, as the loop inserts them."""
    warm = experiment.timestamp_step * 0.5
    eos = experiment.eos_id
    return [(seq, warm) for seq in experiment.warmup_corpus] + [
        (list(item.reference) + [eos], item.timestamp) for item in experiment.stream
    ]


def fill(tf, group, n_max=5):
    """A fresh trie holding ``group``'s (tokens, timestamp) sequences, in order."""
    trie = tf.trie.PrefixTrie(n_max=n_max)
    for tokens, timestamp in group:
        trie.insert_sequence(tokens, timestamp)
    return trie


WORKLOADS = {w.name: w for w in (DriftCompare, WideVocab, LargeTrie)}
