"""Span tracer for the traced benchmark run.

Each public function of the program is wrapped at the name its caller looks
it up by (``harness.trie_prior``, ``cli.run_online``, ``fusion.fuse_step``,
``PrefixTrie.insert_sequence`` ...), so no program file changes. A span is
(name, start, end, parent, phase); spans stay in memory and are written once
at the end. Phase ROUNDS covers the measured rounds, LOOPS the repeat loops
that time ingest, snapshot and restore, and CHECKS the benchmark's own
checks, which no metric reads. Counts that the per-layer metrics need
(candidates per step, calibration iterations, bypassed steps, distinct metric
pairs) are taken from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from time import perf_counter

import numpy as np

ROUNDS, LOOPS, CHECKS = 0, 1, 2


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.phases: list[int] = []
        self.phase = ROUNDS
        self.counts: Counter = Counter()
        self.pairs: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.phases.append(tracer.phase)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.starts[index] = start
                tracer.ends[index] = end
            if observe is not None and tracer.phase == ROUNDS:
                observe(tracer, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (functions, methods, classmethods)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, observe))
        else:
            wrapped = self._wrap(name, original, observe)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        if self.phase != CHECKS:
            self.counts["gc_pause_s"] += perf_counter() - self._gc_start
            if info["generation"] == 2:
                self.counts["gc_full"] += 1

    def install(self, tf) -> None:
        """Wrap every traced boundary of the program's modules in ``tf``."""
        cli, harness, prior, fusion, trie, lm = (
            tf.cli, tf.harness, tf.prior, tf.fusion, tf.trie, tf.lm)
        for name in ("build_experiment", "train_ngram", "warm_start", "run_online",
                     "aggregate_with_ci", "generate_stream", "execute_strategy",
                     "summarize_strategy"):
            self.patch(cli, name, _SPAN_NAMES[name])
        self.patch(harness, "run_online", "harness.run_online")
        self.patch(harness, "decode_sequence", "harness.decode_sequence", _observe_decode)
        self.patch(harness, "trie_prior", "prior.trie_prior", _observe_trie_prior)
        self.patch(harness, "evaluate_pair", "metrics.evaluate_pair", _observe_pair)
        self.patch(prior, "collect_candidates", "prior.collect_candidates", _observe_collect)
        self.patch(prior, "score_candidates", "prior.score_candidates", _observe_score)
        self.patch(prior, "top_preserving_distribution", "prior.top_preserving_distribution")
        for name in ("fuse_step", "softmax_with_temperature", "entropy_confidence",
                     "top_k_tokens", "disagreement", "continuity", "adjust_confidences"):
            self.patch(fusion, name, f"fusion.{name}")
        self.patch(fusion, "calibrate_temperature", "fusion.calibrate_temperature",
                   _observe_calibration)
        self.patch(fusion.Decoder, "step", "fusion.Decoder.step", _observe_step)
        for name in ("insert_sequence", "next_tokens", "snapshot", "restore"):
            self.patch(trie.PrefixTrie, name, f"trie.{name}")
        self.patch(lm.NGramModel, "logits", "lm.logits")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.phases):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures; counts and busy times are per measured round."""
        names = np.array(self.names)
        starts = np.array(self.starts)
        duration = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        phases = np.array(self.phases)
        in_rounds = phases == ROUNDS
        child_time = np.zeros(len(duration))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], duration[has_parent])
        self_time = duration - child_time

        def pick(name, phase=ROUNDS):
            mask = names == name
            return mask & (phases == phase) if phase is not None else mask & (phases != CHECKS)

        def calls(name):
            return int(pick(name).sum()) / rounds

        def busy(name):
            return float(duration[pick(name)].sum()) / rounds

        def own(name):
            return float(self_time[pick(name)].sum()) / rounds

        def median_call(name):
            values = duration[pick(name, LOOPS)]
            return float(np.median(values)) if values.size else 0.0

        c = self.counts
        inserts = duration[pick("trie.insert_sequence", None)]
        items = self._item_durations(names, in_rounds)
        raw, unique = c["raw_candidates"], c["unique_candidates"]
        out = {
            "trie.insert_sequence.calls": (calls("trie.insert_sequence"), "count"),
            "trie.insert_sequence.us_per_call": (
                float(inserts.mean()) * 1e6 if inserts.size else 0.0, "us"),
            "trie.next_tokens.calls": (calls("trie.next_tokens"), "count"),
            "trie.next_tokens.s": (busy("trie.next_tokens"), "s"),
            "trie.snapshot.s": (median_call("trie.snapshot"), "s"),
            "trie.restore.s": (median_call("trie.restore"), "s"),
            "prior.collect_candidates.s": (busy("prior.collect_candidates"), "s"),
            "prior.score_candidates.s": (busy("prior.score_candidates"), "s"),
            "prior.top_preserving_distribution.s": (
                busy("prior.top_preserving_distribution"), "s"),
            "prior.raw_candidates_per_step": (_ratio(raw, c["collect_calls"]), "count"),
            "prior.unique_candidates_per_step": (_ratio(unique, c["score_calls"]), "count"),
            "prior.unique_share": (_ratio(unique, raw), "ratio"),
            "prior.silent_steps": (c["silent_steps"] / rounds, "count"),
            "fusion.fuse_step.self_s": (own("fusion.fuse_step"), "s"),
            "fusion.calibrate_temperature.s": (busy("fusion.calibrate_temperature"), "s"),
            "fusion.calibrate_temperature.calls": (calls("fusion.calibrate_temperature"), "count"),
            "fusion.calibrate_temperature.iterations_mean": (
                _ratio(c["calibration_iterations"], c["calibrations"]), "count"),
            "fusion.calibrate_temperature.clamped": (c["calibration_clamped"] / rounds, "count"),
            "fusion.softmax_with_temperature.calls": (
                calls("fusion.softmax_with_temperature"), "count"),
            "fusion.entropy_confidence.calls": (calls("fusion.entropy_confidence"), "count"),
            "fusion.top_k_tokens.s": (busy("fusion.top_k_tokens"), "s"),
            "fusion.disagreement.s": (busy("fusion.disagreement"), "s"),
            "fusion.bypass_steps": (c["bypass_steps"] / rounds, "count"),
            "lm.logits.calls": (calls("lm.logits"), "count"),
            "lm.logits.s": (busy("lm.logits"), "s"),
            "lm.train_ngram.s": (busy("lm.train_ngram"), "s"),
            "harness.decode_sequence.self_s": (own("harness.decode_sequence"), "s"),
            "harness.item_ms_p50": (_percentile(items, 50) * 1e3, "ms"),
            "harness.item_ms_p95": (_percentile(items, 95) * 1e3, "ms"),
            "harness.items": (len(items) / rounds, "count"),
            "harness.steps": (c["steps"] / rounds, "count"),
            "metrics.evaluate_pair.calls": (calls("metrics.evaluate_pair"), "count"),
            "metrics.evaluate_pair.s": (busy("metrics.evaluate_pair"), "s"),
            "metrics.evaluate_pair.unique_share": (
                _ratio(len(self.pairs), c["pair_calls"]), "ratio"),
            "metrics.aggregate_with_ci.s": (busy("metrics.aggregate_with_ci"), "s"),
            "cli.build_experiment.s": (busy("cli.build_experiment"), "s"),
            "stream.generate_stream.s": (busy("stream.generate_stream"), "s"),
            "process.gc_pause_s": (c["gc_pause_s"] / rounds, "s"),
            "process.gc_full_collections": (c["gc_full"] / rounds, "count"),
            "trace.spans_per_round": (int(in_rounds.sum()) / rounds, "count"),
        }
        return out

    def _item_durations(self, names, in_rounds) -> list[float]:
        """One prequential item: its decode start until its reference is inserted."""
        loops = set(np.flatnonzero(names == "harness.run_online").tolist())
        pending: dict[int, float] = {}
        durations = []
        for index in np.flatnonzero(in_rounds).tolist():
            parent = self.parents[index]
            if parent not in loops:
                continue
            name = self.names[index]
            if name == "harness.decode_sequence":
                pending[parent] = self.starts[index]
            elif name == "trie.insert_sequence" and parent in pending:
                durations.append(self.ends[index] - pending.pop(parent))
        return durations


_SPAN_NAMES = {
    "build_experiment": "cli.build_experiment",
    "train_ngram": "lm.train_ngram",
    "warm_start": "harness.warm_start",
    "run_online": "harness.run_online",
    "aggregate_with_ci": "metrics.aggregate_with_ci",
    "generate_stream": "stream.generate_stream",
    "execute_strategy": "cli.execute_strategy",
    "summarize_strategy": "cli.summarize_strategy",
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _observe_decode(tracer, args, result):
    tracer.counts["steps"] += len(result[1])


def _observe_trie_prior(tracer, args, result):
    if result is None:
        tracer.counts["silent_steps"] += 1


def _observe_pair(tracer, args, result):
    tracer.counts["pair_calls"] += 1
    tracer.pairs.add((args[0], args[1]))


def _observe_collect(tracer, args, result):
    tracer.counts["collect_calls"] += 1
    tracer.counts["raw_candidates"] += len(result)


def _observe_score(tracer, args, result):
    tracer.counts["score_calls"] += 1
    tracer.counts["unique_candidates"] += len(result)


def _observe_calibration(tracer, args, result):
    tracer.counts["calibrations"] += 1
    tracer.counts["calibration_iterations"] += result.iterations
    tracer.counts["calibration_clamped"] += int(result.clamped)


def _observe_step(tracer, args, result):
    tracer.counts["bypass_steps"] += int(result[1].bypass)
