"""Command-line entry point.

Subcommands:

* ``simulate``  materialize a drift stream file from a scenario
* ``run``       online loop for one decoding strategy
* ``compare``   all three strategies on one stream, one results table
* ``trie``      inspect or dump a trie snapshot
* ``train-lm``  build and save the add-k n-gram model

Exit codes: 0 success, 1 usage error, 2 configuration or validation error,
3 runtime error (for example an unreachable external logit provider).

A scenario is a JSON file declaring templates, concepts, the drift
schedule, the seed, and engine defaults; see the bundled
``scenarios/telco_abrupt.json`` (addressable as ``builtin:telco-abrupt``)
for the full shape. All randomness flows from the single scenario seed, so
repeated invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from random import Random
from typing import Sequence

from .errors import ConfigError, TrieFusionError
from .fusion import (
    CONTINUITY_SCALE,
    DEFAULT_TOP_K,
    Decoder,
    DecoderConfig,
    STRATEGIES,
)
from .harness import (
    DEFAULT_MAX_NEW_TOKENS,
    ItemRecord,
    drift_adaptation_rate,
    run_online,
    warm_start,
)
from .lm import ExternalLogitProvider, LogitProvider, NGramModel, train_ngram
from .metrics import METRIC_FIELDS, aggregate_with_ci
from .prior import ScoringWeights
from .stream import (
    ConceptSpec,
    DEFAULT_TIMESTAMP_STEP,
    DriftSchedule,
    PlaceholderSpan,
    StreamItem,
    generate_stream,
    render_template,
    rolling_drift,
)
from .trie import PrefixTrie, TrieConfig
from .vocab import VocabRegistry, tokenize

ENV_SCENARIO = "TRIEFUSION_SCENARIO"
STREAM_FORMAT = "triefusion-stream/1"
DRIFT_GRACE_ITEMS = 5
STRATEGY_ORDER = ("greedy", "temp-scaled", "odd")

TABLE_HEADER_NOTES = (
    "# mean metric value per strategy over all stream items",
    "# edit_similarity = 1 - normalized character edit distance (higher is better)",
    "# bleu: sentence level, orders <= 4 capped at hypothesis length, add-one smoothing, brevity penalty",
    "# rouge_l: LCS F1 over whitespace tokens",
    "# chrf: character n-grams <= 6, beta = 2, scale 0-100",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# scenario loading and experiment assembly


def builtin_scenario_path(name: str) -> Path:
    packaged = resources.files("triefusion") / "scenarios" / f"{name.replace('-', '_')}.json"
    if not packaged.is_file():
        raise ValueError(f"no bundled scenario named {name!r}")
    return Path(str(packaged))


def _number(kind, value, key: str):
    """``kind(value)`` for a scenario value; a null or a non-number names its key."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"scenario key {key!r} needs a number, got {value!r}") from None


def load_scenario(source: str) -> dict:
    if source.startswith("builtin:"):
        path = builtin_scenario_path(source.split(":", 1)[1])
    else:
        path = Path(source)
    with open(path, encoding="utf-8") as fh:
        scenario = json.load(fh)
    for key in ("templates", "concepts", "schedule", "length", "seed"):
        if key not in scenario:
            raise ValueError(f"scenario is missing the {key!r} key")
    return scenario


def _parse_concepts(scenario: dict) -> list[ConceptSpec]:
    return [
        ConceptSpec(entry["id"], dict(entry["substitutions"]))
        for entry in scenario["concepts"]
    ]


def _parse_schedule(scenario: dict, seed: int) -> DriftSchedule:
    raw = scenario["schedule"]
    kind = raw.get("kind", "abrupt")
    ramp: tuple[float, ...] = ()
    if "ramp" in raw:
        ramp_spec = raw["ramp"]
        if isinstance(ramp_spec, dict):
            length = _number(int, scenario["length"], "length")
            start, end = float(ramp_spec["start"]), float(ramp_spec["end"])
            if length == 1:
                ramp = (end,)
            else:
                ramp = tuple(start + (end - start) * i / (length - 1) for i in range(length))
        else:
            ramp = tuple(float(p) for p in ramp_spec)
    return DriftSchedule(
        kind=kind,
        concepts=tuple(_parse_concepts(scenario)),
        switch_points=tuple(int(p) for p in raw.get("switch_points", ())),
        mixing_ramp=ramp,
        seed=seed,
    )


@dataclass
class Experiment:
    scenario: dict
    seed: int
    registry: VocabRegistry
    eos_id: int
    schedule: DriftSchedule
    stream: list[StreamItem]
    warmup_corpus: list[list[int]]
    warmup_into_trie: bool
    timestamp_step: float

    @property
    def concepts(self) -> tuple[ConceptSpec, ...]:
        return self.schedule.concepts


def _build_warmup_texts(scenario: dict, concepts: Sequence[ConceptSpec], seed: int) -> list[str]:
    warm = scenario.get("warmup") or {}
    count = _number(int, warm.get("sentences", 0), "warmup.sentences")
    if count == 0:
        return []
    concept_id = warm.get("concept", concepts[0].concept_id)
    by_id = {c.concept_id: c for c in concepts}
    if concept_id not in by_id:
        raise ValueError(f"warmup concept {concept_id!r} not declared")
    templates = scenario["templates"]
    rng = Random(f"{seed}/warmup")
    return [
        render_template(templates[rng.randrange(len(templates))], by_id[concept_id])
        for _ in range(count)
    ]


def _stream_item(row: dict, registry: VocabRegistry, previous_timestamp: float) -> StreamItem:
    """One stream-file row, rejected up front if decoding would fail on or mis-score it."""
    ids = tuple(tokenize(row["reference"], registry, grow=True))
    prompt_len = int(row["prompt_len"])
    spans = tuple(PlaceholderSpan(n, int(s), int(e), v) for n, s, e, v in row["spans"])
    timestamp = float(row["timestamp"])
    where = f"stream item {row['index']}"
    for span in spans:
        if not 0 <= span.start < span.end <= len(ids):
            raise ValueError(
                f"{where}: span {span.name} [{span.start}, {span.end}) is outside "
                f"the {len(ids)}-token reference"
            )
    first_span = min((span.start for span in spans), default=len(ids))
    if not 0 <= prompt_len <= first_span:
        raise ValueError(f"{where}: prompt_len {prompt_len} is not within [0, {first_span}]")
    if not (math.isfinite(timestamp) and timestamp > 0 and timestamp >= previous_timestamp):
        raise ValueError(
            f"{where}: timestamp {timestamp!r} must be finite, > 0 and "
            f"not before the previous item's {previous_timestamp}"
        )
    return StreamItem(
        index=int(row["index"]),
        prompt=ids[:prompt_len],
        reference=ids,
        timestamp=timestamp,
        concept_id=row["concept"],
        prompt_text=" ".join(row["reference"].split()[:prompt_len]),
        reference_text=" ".join(row["reference"].split()),
        spans=spans,
    )


def build_experiment(
    scenario: dict,
    seed_override: int | None = None,
    stream_items: list[dict] | None = None,
) -> Experiment:
    """Registry, warmup corpus, and stream, all in one deterministic order.

    Ids are assigned end-marker first, then warmup text, then the stream in
    index order, so rebuilding from a stream file lands on the same id
    space as generating directly from the scenario.
    """
    seed = _number(int, scenario["seed"], "seed") if seed_override is None else seed_override
    # the scenario carried forward (e.g. into stream-file headers) must
    # reflect the seed actually used
    scenario = {**scenario, "seed": seed}
    registry = VocabRegistry()
    eos_id = registry.add(scenario.get("eos", "</s>"))
    concepts = _parse_concepts(scenario)
    warmup_texts = _build_warmup_texts(scenario, concepts, seed)
    warmup_corpus = [tokenize(text, registry, grow=True) + [eos_id] for text in warmup_texts]
    schedule = _parse_schedule(scenario, seed)
    timestamp_step = _number(
        float, scenario.get("timestamp_step", DEFAULT_TIMESTAMP_STEP), "timestamp_step"
    )

    if stream_items is None:
        length = _number(int, scenario["length"], "length")
        stream = generate_stream(scenario["templates"], schedule, length, registry, timestamp_step)
    else:
        stream = []
        for row in stream_items:
            stream.append(_stream_item(row, registry, stream[-1].timestamp if stream else 0.0))

    warm = scenario.get("warmup") or {}
    return Experiment(
        scenario=scenario,
        seed=seed,
        registry=registry,
        eos_id=eos_id,
        schedule=schedule,
        stream=stream,
        warmup_corpus=warmup_corpus,
        warmup_into_trie=bool(warm.get("insert_into_trie", True)),
        timestamp_step=timestamp_step,
    )


# ---------------------------------------------------------------------------
# engine configuration


# Engine settings a flag can override: name -> (scenario section, type,
# default, help). The name is both the flag's dest and the scenario key.
SETTINGS = {
    "n_max": ("engine", int, 5, "trie window length"),
    "top_k": ("engine", int, DEFAULT_TOP_K, "disagreement top-k"),
    "fixed_temperature": ("engine", float, 1.0, "temperature for the temp-scaled preset"),
    "max_new_tokens": ("engine", int, DEFAULT_MAX_NEW_TOKENS, "generation cap per item"),
    "order": ("base_lm", int, 3, "built-in n-gram order"),
    "smoothing_k": ("base_lm", float, 1.0, "built-in add-k constant"),
}


def _flag_or(args, name: str, fallback):
    """The flag's value when it was given, even 0 or empty, else ``fallback``."""
    value = getattr(args, name, None)
    return fallback if value is None else value


def _setting(scenario: dict, args, name: str):
    section, kind, default, _ = SETTINGS[name]
    value = _flag_or(args, name, (scenario.get(section) or {}).get(name, default))
    return _number(kind, value, f"{section}.{name}")


def _engine_settings(scenario: dict, args) -> dict:
    engine = scenario.get("engine") or {}
    weight_spec = engine.get("weights") or {}
    if getattr(args, "weights", None) is not None:
        parts = [float(p) for p in args.weights.split(",")]
        if len(parts) != 3:
            raise ValueError("--weights takes three comma-separated values")
        weights = ScoringWeights(*parts)
    else:
        weights = ScoringWeights(*(
            _number(float, weight_spec.get(name, 1.0 / 3.0), f"engine.weights.{name}")
            for name in ("frequency", "length", "recency")
        ))
    n_max = _setting(scenario, args, "n_max")
    TrieConfig(n_max)  # checked here as well: the baselines build no trie
    return {
        "weights": weights,
        "n_max": n_max,
        "top_k": _setting(scenario, args, "top_k"),
        "continuity_scale": _number(
            float, engine.get("continuity_scale", CONTINUITY_SCALE), "engine.continuity_scale"
        ),
        "fixed_temperature": _setting(scenario, args, "fixed_temperature"),
        "max_new_tokens": _setting(scenario, args, "max_new_tokens"),
    }


def build_provider(experiment: Experiment, args) -> LogitProvider:
    base = experiment.scenario.get("base_lm") or {}
    kind = _flag_or(args, "lm", base.get("kind", "builtin"))
    if getattr(args, "lm_model", None) is not None:
        model = NGramModel.load(args.lm_model)
        if model.vocab_size != len(experiment.registry):
            raise ValueError(
                f"model vocabulary ({model.vocab_size}) does not match the "
                f"experiment vocabulary ({len(experiment.registry)}); retrain "
                "against the exported vocab"
            )
        return model
    if kind == "external":
        endpoint = _flag_or(args, "endpoint", base.get("endpoint"))
        if not endpoint:
            raise ValueError("external base model needs --endpoint host:port")
        if isinstance(endpoint, str):
            host, _, port = endpoint.rpartition(":")
            endpoint = (host, int(port))
        return ExternalLogitProvider.connect_tcp(
            endpoint[0], int(endpoint[1]), len(experiment.registry)
        )
    if kind != "builtin":
        raise ValueError(f"unknown base_lm kind {kind!r}")
    if not experiment.warmup_corpus:
        raise ValueError("builtin base model needs warmup sentences to train on")
    return train_ngram(
        experiment.warmup_corpus,
        _setting(experiment.scenario, args, "order"),
        _setting(experiment.scenario, args, "smoothing_k"),
        vocab_size=len(experiment.registry),
    )


def execute_strategy(
    experiment: Experiment, provider: LogitProvider, strategy: str, settings: dict
) -> tuple[list[ItemRecord], PrefixTrie | None]:
    """Run one strategy over the stream; the trie is None for strategies that never read it."""
    decoder = Decoder(
        DecoderConfig(
            strategy=strategy,
            weights=settings["weights"],
            top_k=settings["top_k"],
            continuity_scale=settings["continuity_scale"],
            fixed_temperature=settings["fixed_temperature"],
        )
    )
    trie = None
    if decoder.wants_prior:
        trie = PrefixTrie(n_max=settings["n_max"])
        if experiment.warmup_into_trie and experiment.warmup_corpus:
            warm_start(trie, experiment.warmup_corpus, experiment.timestamp_step * 0.5)
    records = run_online(
        experiment.stream,
        trie,
        provider,
        decoder,
        experiment.registry,
        max_new_tokens=settings["max_new_tokens"],
        eos_id=experiment.eos_id,
    )
    return records, trie


def summarize_strategy(experiment: Experiment, records: list[ItemRecord], strategy: str) -> dict:
    means, intervals = aggregate_with_ci(
        [r.metrics for r in records], seed=experiment.seed
    )
    summary = {
        "strategy": strategy,
        "items": len(records),
        "means": means.as_dict(),
        "ci95": {name: list(bounds) for name, bounds in intervals.items()},
        "bypass_steps": sum(r.bypass_steps for r in records),
        "total_steps": sum(len(r.steps) for r in records),
    }
    if experiment.schedule.switch_points:
        switch = experiment.schedule.switch_points[0]
        post = [r.metrics for r in records if r.index >= switch]
        pre = [r.metrics for r in records if r.index < switch]
        if pre and post:
            matched, total = drift_adaptation_rate(
                experiment.stream, records, experiment.concepts[0], switch + DRIFT_GRACE_ITEMS
            )
            summary["drift"] = {
                "switch_index": switch,
                "pre_rouge_l": sum(m.rouge_l for m in pre) / len(pre),
                "post_rouge_l": sum(m.rouge_l for m in post) / len(post),
                "drifted_spans_matched": matched,
                "drifted_spans_total": total,
                "drifted_span_rate": (matched / total) if total else None,
            }
    return summary


# ---------------------------------------------------------------------------
# output writers


def _dump_json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_results(records: list[ItemRecord], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(_dump_json_line(record.to_dict()))


def write_trace(records: list[ItemRecord], path: Path, registry: VocabRegistry) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            rows = zip(record.steps, record.generated, record.priors)
            for step, (diag, token, prior) in enumerate(rows):
                # vars, not dataclasses.asdict: the fields are scalars, and
                # asdict's deep copy doubles the cost of writing a trace
                row = {
                    **vars(diag),
                    "item": record.index,
                    "step": step,
                    "chosen": int(token),
                    "chosen_token": registry.token_of(token),
                    "prior": None if prior is None else [[int(t), p] for t, p in prior],
                }
                fh.write(_dump_json_line(row))


def write_table(summaries: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for note in TABLE_HEADER_NOTES:
            fh.write(note + "\n")
        fh.write("strategy\t" + "\t".join(METRIC_FIELDS) + "\n")
        for summary in summaries:
            row = [summary["strategy"]] + [
                f"{summary['means'][name]:.4f}" for name in METRIC_FIELDS
            ]
            fh.write("\t".join(row) + "\n")


def write_summary(payload: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _telemetry(experiment: Experiment) -> list[list]:
    window = _number(int, experiment.scenario.get("telemetry_window", 0), "telemetry_window")
    if window < 1:
        return []
    refs = [item.reference for item in experiment.stream]
    if len(refs) < 2 * window:
        return []
    return [[index, distance] for index, distance in rolling_drift(refs, window)]


# ---------------------------------------------------------------------------
# subcommands


def _scenario_arg(args) -> str:
    source = _flag_or(args, "scenario", os.environ.get(ENV_SCENARIO))
    if not source:
        raise ValueError(
            f"no scenario given: pass --scenario or set {ENV_SCENARIO}"
        )
    return source


def _load_stream_file(path: str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"stream file {path} is empty")
    header = json.loads(lines[0])
    if header.get("format") != STREAM_FORMAT:
        raise ValueError(f"{path} is not a {STREAM_FORMAT} file")
    return header["scenario"], [json.loads(line) for line in lines[1:]]


def _experiment_from_args(args) -> Experiment:
    if getattr(args, "stream", None) is not None:
        if getattr(args, "seed", None) is not None:
            raise ValueError("--seed cannot override a pre-generated stream file")
        scenario, items = _load_stream_file(args.stream)
        return build_experiment(scenario, stream_items=items)
    scenario = load_scenario(_scenario_arg(args))
    return build_experiment(scenario, seed_override=getattr(args, "seed", None))


def cmd_simulate(args) -> int:
    scenario = load_scenario(_scenario_arg(args))
    experiment = build_experiment(scenario, seed_override=args.seed)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_dump_json_line({"format": STREAM_FORMAT, "scenario": experiment.scenario}))
        for item in experiment.stream:
            fh.write(
                _dump_json_line(
                    {
                        "index": item.index,
                        "concept": item.concept_id,
                        "prompt": item.prompt_text,
                        "prompt_len": len(item.prompt),
                        "reference": item.reference_text,
                        "timestamp": item.timestamp,
                        "spans": [[s.name, s.start, s.end, s.value] for s in item.spans],
                    }
                )
            )
    if args.vocab_out:
        experiment.registry.save(args.vocab_out)
    if args.warmup_out:
        with open(args.warmup_out, "w", encoding="utf-8", newline="\n") as fh:
            for text in _build_warmup_texts(
                experiment.scenario, list(experiment.concepts), experiment.seed
            ):
                fh.write(text + "\n")
    print(f"wrote {len(experiment.stream)} items to {out}")
    return 0


def cmd_run(args) -> int:
    if args.save_trie is not None and args.strategy != "odd":
        raise ValueError(f"--save-trie needs --strategy odd; {args.strategy} builds no trie")
    experiment = _experiment_from_args(args)
    settings = _engine_settings(experiment.scenario, args)
    provider = build_provider(experiment, args)
    records, trie = execute_strategy(experiment, provider, args.strategy, settings)
    write_results(records, Path(args.out))
    if args.trace:
        write_trace(records, Path(args.trace), experiment.registry)
    if args.save_trie is not None:
        Path(args.save_trie).write_bytes(trie.snapshot())
    summary = summarize_strategy(experiment, records, args.strategy)
    payload = {
        "seed": experiment.seed,
        "strategies": [summary],
        "telemetry": _telemetry(experiment),
    }
    if args.summary:
        write_summary(payload, Path(args.summary))
    means = summary["means"]
    print(
        f"{args.strategy}: "
        + "  ".join(f"{name}={means[name]:.4f}" for name in METRIC_FIELDS)
    )
    return 0


def cmd_compare(args) -> int:
    experiment = _experiment_from_args(args)
    settings = _engine_settings(experiment.scenario, args)
    provider = build_provider(experiment, args)
    runs = {
        strategy: execute_strategy(experiment, provider, strategy, settings)[0]
        for strategy in STRATEGY_ORDER
    }
    summaries = [summarize_strategy(experiment, runs[s], s) for s in STRATEGY_ORDER]
    telemetry = _telemetry(experiment)
    # created only now, so that a failed strategy leaves no directory behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for strategy, records in runs.items():
        write_results(records, out_dir / f"results_{strategy}.jsonl")
        if args.trace:
            write_trace(records, out_dir / f"trace_{strategy}.jsonl", experiment.registry)
    write_table(summaries, out_dir / "summary.tsv")
    write_summary(
        {"seed": experiment.seed, "strategies": summaries, "telemetry": telemetry},
        out_dir / "summary.json",
    )
    for summary in summaries:
        means = summary["means"]
        print(
            f"{summary['strategy']:>11}: "
            + "  ".join(f"{name}={means[name]:.4f}" for name in METRIC_FIELDS)
        )
    return 0


def cmd_trie(args) -> int:
    trie = PrefixTrie.restore(Path(args.snapshot).read_bytes())
    stats = trie.stats()
    print(
        f"nodes={stats.node_count} inserted_positions={stats.total_insertions} "
        f"n_max={trie.config.n_max} last_timestamp={trie.last_timestamp}"
    )
    if args.dump:
        registry = VocabRegistry.load(args.vocab) if args.vocab else None
        for token, frequency, depth, recency, _ in trie.walk():
            label = registry.token_of(token) if registry else str(token)
            print("  " * (depth - 1) + f"{label} F={frequency} L={depth} R={recency}")
    return 0


def cmd_train_lm(args) -> int:
    registry = VocabRegistry.load(args.vocab_in) if args.vocab_in else VocabRegistry()
    corpus = []
    with open(args.corpus, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                corpus.append(tokenize(line, registry, grow=True))
    model = train_ngram(corpus, args.order, args.smoothing_k, vocab_size=len(registry))
    model.save(args.out)
    if args.vocab_out:
        registry.save(args.vocab_out)
    print(
        f"trained order-{args.order} model on {len(corpus)} sentences, "
        f"vocab {model.vocab_size}, saved to {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weights", help="frequency,length,recency scoring weights")
    for name, (section, kind, default, text) in SETTINGS.items():
        parser.add_argument(
            "--" + name.replace("_", "-"), type=kind, dest=name,
            help=f"{text} (default: scenario {section}.{name}, else {default})",
        )
    parser.add_argument("--lm", choices=("builtin", "external"), help="base model kind")
    parser.add_argument("--endpoint", help="host:port of an external logit provider")
    parser.add_argument("--lm-model", dest="lm_model", help="pre-trained n-gram model file")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help=f"scenario JSON path (default ${ENV_SCENARIO})")
    parser.add_argument("--stream", help="pre-generated stream file from `simulate`")
    parser.add_argument("--seed", type=int, help="override the scenario seed")


def build_parser() -> _Parser:
    parser = _Parser(prog="triefusion", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a drift stream file")
    p.add_argument("--scenario", help=f"scenario JSON path (default ${ENV_SCENARIO})")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", required=True, help="stream file to write")
    p.add_argument("--vocab-out", dest="vocab_out", help="also export the vocabulary")
    p.add_argument("--warmup-out", dest="warmup_out", help="also export the warmup corpus")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="online loop for one strategy")
    _add_input_flags(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="odd")
    _add_engine_flags(p)
    p.add_argument("--out", required=True, help="per-item results (JSON lines)")
    p.add_argument("--summary", help="write a summary JSON here")
    p.add_argument("--trace", help="write per-step diagnostics here")
    p.add_argument(
        "--save-trie", dest="save_trie", help="write the final trie snapshot here (odd only)"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="all three strategies on one stream")
    _add_input_flags(p)
    _add_engine_flags(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--trace", action="store_true", help="also write per-step diagnostics")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("trie", help="inspect or dump a trie snapshot")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--dump", action="store_true", help="print every node")
    p.add_argument("--vocab", help="vocabulary file for readable dumps")
    p.set_defaults(func=cmd_trie)

    p = sub.add_parser("train-lm", help="build and save the n-gram model")
    p.add_argument("--corpus", required=True, help="one sentence per line")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--smoothing-k", type=float, dest="smoothing_k", default=1.0)
    p.add_argument("--out", required=True, help="model JSON to write")
    p.add_argument("--vocab-in", dest="vocab_in", help="seed the registry from this vocabulary")
    p.add_argument("--vocab-out", dest="vocab_out", help="export the final vocabulary")
    p.set_defaults(func=cmd_train_lm)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except TrieFusionError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
