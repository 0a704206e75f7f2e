"""Command-line entry point.

Subcommands:

* ``simulate``  materialize a drift stream file from a scenario
* ``run``       online loop for one decoding strategy
* ``compare``   all three strategies on one stream, one results table
* ``trie``      inspect or dump a trie snapshot
* ``train-lm``  build and save the add-k n-gram model

Exit codes: 0 success, 1 usage error, 2 configuration or validation error,
3 runtime error (an unreachable external logit provider, a failed output
write). A subcommand reads its inputs inside one ``_reading()`` block, where a
``ValueError`` or ``OSError`` is bad input; past it, any other error is a
fault of the program and leaves ``main`` with its traceback.

A scenario is a JSON file declaring templates, concepts, the drift
schedule, the seed, and engine defaults; see the bundled
``scenarios/telco_abrupt.json`` (addressable as ``builtin:telco-abrupt``)
for the full shape. All randomness flows from the single scenario seed, so
repeated invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from random import Random
from typing import Sequence

from .errors import MISSING, ConfigError, TrieFusionError, typed, typed_items
from .fusion import (
    CONTINUITY_SCALE,
    DEFAULT_MAX_NEW_TOKENS,
    DEFAULT_TOP_K,
    Decoder,
    DecoderConfig,
    STRATEGIES,
)
from .harness import ItemRecord, drift_adaptation_rate, run_online, warm_start
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
from .summation import left_sum
from .trie import PrefixTrie, TrieConfig
from .vocab import VocabRegistry, detokenize, tokenize

ENV_SCENARIO = "TRIEFUSION_SCENARIO"
STREAM_FORMAT = "triefusion-stream/1"
DRIFT_GRACE_ITEMS = 5
STRATEGY_ORDER = ("greedy", "temp-scaled", "odd")
# one encoder for every output line: json.dumps would build this one per call
_JSON_LINE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

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


def _section(scenario: dict, key: str) -> dict:
    """A scenario object such as ``engine``: empty when absent, else it must be an object."""
    return typed(dict, scenario.get(key, {}), key)


def load_scenario(source: str) -> dict:
    if source.startswith("builtin:"):
        path = builtin_scenario_path(source.split(":", 1)[1])
    else:
        path = Path(source)
    with open(path, encoding="utf-8") as fh:
        return _required_keys(typed(dict, json.load(fh), source, "scenario file"), "scenario")


def _required_keys(scenario: dict, where: str) -> dict:
    for key in ("templates", "concepts", "schedule", "length", "seed"):
        if key not in scenario:
            raise ValueError(f"{where} is missing the {key!r} key")
    return scenario


def _parse_concepts(scenario: dict) -> tuple[ConceptSpec, ...]:
    concepts = []
    for i, entry in enumerate(typed_items(dict, scenario["concepts"], "concepts")):
        key = f"concepts[{i}]"
        substitutions = typed(dict, entry.get("substitutions", MISSING), f"{key}.substitutions")
        for name, value in substitutions.items():
            typed(str, value, f"{key}.substitutions.{name}")
        concept_id = typed(str, entry.get("id", MISSING), f"{key}.id")
        concepts.append(ConceptSpec(concept_id, dict(substitutions)))
    return tuple(concepts)


def _parse_schedule(scenario: dict, seed: int) -> DriftSchedule:
    raw = typed(dict, scenario["schedule"], "schedule")
    kind = raw.get("kind", "abrupt")
    ramp: tuple[float, ...] = ()
    if "ramp" in raw:
        ramp_spec = raw["ramp"]
        if isinstance(ramp_spec, dict):
            length = typed(int, scenario["length"], "length")
            start = typed(float, ramp_spec.get("start", MISSING), "schedule.ramp.start")
            end = typed(float, ramp_spec.get("end", MISSING), "schedule.ramp.end")
            if length == 1:
                ramp = (end,)
            else:
                ramp = tuple(start + (end - start) * i / (length - 1) for i in range(length))
        else:
            ramp = typed_items(float, ramp_spec, "schedule.ramp")
    return DriftSchedule(
        kind=kind,
        concepts=_parse_concepts(scenario),
        switch_points=typed_items(int, raw.get("switch_points", []), "schedule.switch_points"),
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
    warm = _section(scenario, "warmup")
    count = typed(int, warm.get("sentences", 0), "warmup.sentences")
    if count < 0:
        raise ValueError(f"scenario key 'warmup.sentences' needs a count >= 0, got {count}")
    if count == 0:
        return []
    concept_id = typed(str, warm.get("concept", concepts[0].concept_id), "warmup.concept")
    by_id = {c.concept_id: c for c in concepts}
    if concept_id not in by_id:
        raise ValueError(f"warmup concept {concept_id!r} not declared")
    templates = typed_items(str, scenario["templates"], "templates")
    rng = Random(f"{seed}/warmup")
    return [
        render_template(templates[rng.randrange(len(templates))], by_id[concept_id])
        for _ in range(count)
    ]


def _stream_item(position: int, row, registry: VocabRegistry, previous: tuple) -> StreamItem:
    """Row ``position`` of a stream file, rejected if decoding would fail on or mis-score it,
    or if it comes before ``previous``, a (timestamp, index) pair."""
    where = f"stream item {position}"
    row = typed(dict, row, position, "stream item")
    reference = typed(str, row.get("reference", MISSING), "reference", where)
    ids = tuple(tokenize(reference, registry, grow=True))
    prompt_len = typed(int, row.get("prompt_len", MISSING), "prompt_len", where)
    spans = []
    for i, span in enumerate(typed_items(list, row.get("spans", MISSING), "spans", where)):
        if len(span) != 4:
            raise ValueError(f"{where} 'spans[{i}]' needs [name, start, end, value], got {span!r}")
        spans.append(PlaceholderSpan(*(
            typed(kind, part, f"spans[{i}][{j}]", where)
            for j, (kind, part) in enumerate(zip((str, int, int, str), span))
        )))
    timestamp = typed(float, row.get("timestamp", MISSING), "timestamp", where)
    index = typed(int, row.get("index", MISSING), "index", where)
    for span in spans:
        if not 0 <= span.start < span.end <= len(ids):
            raise ValueError(
                f"{where}: span {span.name} [{span.start}, {span.end}) is outside "
                f"the {len(ids)}-token reference"
            )
    first_span = min((span.start for span in spans), default=len(ids))
    if not 0 <= prompt_len <= first_span:
        raise ValueError(f"{where}: prompt_len {prompt_len} is not within [0, {first_span}]")
    last_timestamp, last_index = previous
    if not (timestamp > 0 and timestamp >= last_timestamp):
        raise ValueError(
            f"{where}: timestamp {timestamp!r} must be > 0 and not before "
            f"{last_timestamp}, the warm-up's or the previous item's"
        )
    if not index > last_index:  # the drift summary splits items on index
        raise ValueError(f"{where} 'index' needs an integer >= 0 and above the "
                         f"previous item's, got {index}")
    return StreamItem(
        index=index,
        prompt=ids[:prompt_len],
        reference=ids,
        timestamp=timestamp,
        concept_id=typed(str, row.get("concept", MISSING), "concept", where),
        prompt_text=" ".join(reference.split()[:prompt_len]),
        reference_text=" ".join(reference.split()),
        spans=tuple(spans),
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
    templates = typed_items(str, scenario["templates"], "templates")
    if not templates:
        raise ValueError("scenario key 'templates' needs at least one template")
    seed = typed(int, scenario["seed"], "seed") if seed_override is None else seed_override
    # the scenario carried forward (e.g. into stream-file headers) must
    # reflect the seed actually used
    scenario = {**scenario, "seed": seed}
    registry = VocabRegistry()
    eos_id = registry.add(typed(str, scenario.get("eos", "</s>"), "eos"))
    schedule = _parse_schedule(scenario, seed)
    warmup_texts = _build_warmup_texts(scenario, schedule.concepts, seed)
    warmup_corpus = [tokenize(text, registry, grow=True) + [eos_id] for text in warmup_texts]
    timestamp_step = typed(float, scenario.get("timestamp_step", DEFAULT_TIMESTAMP_STEP),
                           "timestamp_step")

    warm = _section(scenario, "warmup")
    into_trie = typed(bool, warm.get("insert_into_trie", True), "warmup.insert_into_trie")
    if stream_items is None:
        length = typed(int, scenario["length"], "length")
        stream = generate_stream(templates, schedule, length, registry, timestamp_step)
    else:
        # warm-up goes into the trie at half a step (see execute_strategy)
        stream = []
        previous = (timestamp_step * 0.5 if into_trie and warmup_corpus else 0.0, -1)
        for position, row in enumerate(stream_items):
            stream.append(_stream_item(position, row, registry, previous))
            previous = (stream[-1].timestamp, stream[-1].index)
    return Experiment(
        scenario=scenario,
        seed=seed,
        registry=registry,
        eos_id=eos_id,
        schedule=schedule,
        stream=stream,
        warmup_corpus=warmup_corpus,
        warmup_into_trie=into_trie,
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
    """A flag's value, named as the flag, else the scenario's, named by its key."""
    section, kind, default, _ = SETTINGS[name]
    flag = getattr(args, name, None)
    if flag is not None:
        return typed(kind, flag, "--" + name.replace("_", "-"), "flag")
    return typed(kind, _section(scenario, section).get(name, default), f"{section}.{name}")


def _engine_settings(scenario: dict, args) -> dict:
    """The validated decoder (its strategy swapped per run) and n_max."""
    engine = _section(scenario, "engine")
    if getattr(args, "weights", None) is not None:
        try:
            frequency, length, recency = map(float, args.weights.split(","))
        except ValueError:
            raise ValueError("flag '--weights' needs three comma-separated numbers, "
                             f"got {args.weights!r}") from None
        weights = ScoringWeights(frequency, length, recency)
    else:
        weight_spec = typed(dict, engine.get("weights", {}), "engine.weights")
        weights = ScoringWeights(*(
            typed(float, weight_spec.get(name, 1.0 / 3.0), f"engine.weights.{name}")
            for name in ("frequency", "length", "recency")
        ))
    return {
        # checked here as well: the baselines build no trie
        "n_max": TrieConfig(_setting(scenario, args, "n_max")).n_max,
        "decoder": DecoderConfig(
            weights=weights,
            top_k=_setting(scenario, args, "top_k"),
            continuity_scale=typed(float, engine.get("continuity_scale", CONTINUITY_SCALE),
                                   "engine.continuity_scale"),
            fixed_temperature=_setting(scenario, args, "fixed_temperature"),
            max_new_tokens=_setting(scenario, args, "max_new_tokens"),
        ),
    }


# base model -> the base-model flags it never reads
_UNREAD_FLAGS = {
    "builtin": ("endpoint",),
    "the --lm-model file": ("order", "smoothing_k", "endpoint"),
    "external": ("lm_model", "order", "smoothing_k"),
}


def build_provider(experiment: Experiment, args) -> LogitProvider:
    base = _section(experiment.scenario, "base_lm")
    kind = _flag_or(args, "lm", base.get("kind", "builtin"))
    if kind not in ("builtin", "external"):
        raise ValueError(f"unknown base_lm kind {kind!r}")
    model_file = getattr(args, "lm_model", None)
    source = "the --lm-model file" if kind == "builtin" and model_file is not None else kind
    for name in _UNREAD_FLAGS[source]:
        if getattr(args, name, None) is not None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"flag {flag!r} is not read: the base model is {source}")
    if model_file is not None:
        model = NGramModel.load(model_file)
        if model.vocab_size != len(experiment.registry):
            raise ValueError(
                f"model vocabulary ({model.vocab_size}) does not match the "
                f"experiment vocabulary ({len(experiment.registry)}); retrain "
                "against the exported vocab"
            )
        return model
    if kind == "external":
        if getattr(args, "endpoint", None) is not None:
            endpoint, key, where = args.endpoint, "--endpoint", "flag"
        elif "endpoint" in base:
            endpoint, key, where = base["endpoint"], "base_lm.endpoint", "scenario key"
        else:
            raise ValueError("external base model needs --endpoint host:port")
        host, _, port = typed(str, endpoint, key, where).rpartition(":")
        if not (port.isascii() and port.isdecimal() and int(port) <= 65535):
            raise ValueError(f"{where} {key!r} needs host:port, port 0-65535; got {endpoint!r}")
        return ExternalLogitProvider.connect_tcp(host, int(port), len(experiment.registry))
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
    decoder = Decoder(replace(settings["decoder"], strategy=strategy))
    trie = None
    if decoder.wants_prior:
        trie = PrefixTrie(n_max=settings["n_max"])
        if experiment.warmup_into_trie and experiment.warmup_corpus:
            warm_start(trie, experiment.warmup_corpus, experiment.timestamp_step * 0.5)
    records = run_online(
        experiment.stream, trie, provider, decoder, experiment.registry, eos_id=experiment.eos_id
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
                "pre_rouge_l": left_sum(m.rouge_l for m in pre) / len(pre),
                "post_rouge_l": left_sum(m.rouge_l for m in post) / len(post),
                "drifted_spans_matched": matched,
                "drifted_spans_total": total,
                "drifted_span_rate": (matched / total) if total else None,
            }
    return summary


# ---------------------------------------------------------------------------
# output writers


def _dump_json_line(obj: dict) -> str:
    return _JSON_LINE.encode(obj) + "\n"


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
    window = typed(int, experiment.scenario.get("telemetry_window", 0), "telemetry_window")
    if window < 0:
        raise ValueError(f"scenario key 'telemetry_window' needs a count >= 0, got {window}")
    if window == 0:
        return []
    refs = [item.reference for item in experiment.stream]
    if len(refs) < 2 * window:
        return []
    return [[index, distance] for index, distance in rolling_drift(refs, window)]


# ---------------------------------------------------------------------------
# subcommands


@contextmanager
def _reading():
    """Inside the block, a ValueError or OSError is bad input: it leaves as ConfigError."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


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
    if len(lines) < 2:
        raise ValueError(f"stream file {path} has no items")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != STREAM_FORMAT:
        raise ValueError(f"{path} is not a {STREAM_FORMAT} file")
    scenario = typed(dict, header.get("scenario", MISSING), "scenario", "stream header")
    return _required_keys(scenario, "stream header scenario"), [json.loads(l) for l in lines[1:]]


def _experiment_from_args(args) -> Experiment:
    if getattr(args, "stream", None) is not None:
        if getattr(args, "seed", None) is not None:
            raise ValueError("--seed cannot override a pre-generated stream file")
        scenario, items = _load_stream_file(args.stream)
        return build_experiment(scenario, stream_items=items)
    scenario = load_scenario(_scenario_arg(args))
    return build_experiment(scenario, seed_override=getattr(args, "seed", None))


def _check_out_paths(args, *names: str) -> None:
    """Refuse, before any work, an output path that is a directory or lies in a missing one."""
    for name in names:
        path = getattr(args, name)
        if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"flag {flag!r} names {path!r}, not a file in an existing directory")


def _check_out_dir(path: str) -> None:
    """Refuse, before any work, an --out-dir that exists or would be made under a non-directory."""
    existing = Path(path)
    while not os.path.lexists(existing):
        existing = existing.parent
    if not existing.is_dir():
        raise ValueError(
            f"flag '--out-dir' names {path!r}, but {str(existing)!r} is not a directory")


def cmd_simulate(args) -> int:
    with _reading():
        _check_out_paths(args, "out", "vocab_out", "warmup_out")
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
            # each warm-up sequence ends in the end marker, which the text omits
            fh.writelines(detokenize(seq[:-1], experiment.registry) + "\n"
                          for seq in experiment.warmup_corpus)
    print(f"wrote {len(experiment.stream)} items to {out}")
    return 0


def _set_up(args) -> tuple[Experiment, dict, list, LogitProvider]:
    """The experiment, engine settings, telemetry and base model of ``run`` and ``compare``,
    every input and engine value read before the base model is trained or connected."""
    experiment = _experiment_from_args(args)
    settings = _engine_settings(experiment.scenario, args)
    telemetry = _telemetry(experiment)
    return experiment, settings, telemetry, build_provider(experiment, args)


def _decode_strategies(set_up: tuple, strategies: Sequence[str]) -> tuple[Experiment, dict, dict]:
    """The experiment, each strategy's (records, trie), and the summary payload over all;
    the base model is closed however decoding ends."""
    experiment, settings, telemetry, provider = set_up
    try:
        runs = {s: execute_strategy(experiment, provider, s, settings) for s in strategies}
    finally:
        provider.close()
    summaries = [summarize_strategy(experiment, runs[s][0], s) for s in strategies]
    return experiment, runs, {"seed": experiment.seed, "strategies": summaries,
                              "telemetry": telemetry}


def _print_means(summaries: list[dict], width: int = 0) -> None:
    for summary in summaries:
        means = "  ".join(f"{name}={summary['means'][name]:.4f}" for name in METRIC_FIELDS)
        print(f"{summary['strategy']:>{width}}: {means}")


def cmd_run(args) -> int:
    with _reading():
        if args.save_trie is not None and args.strategy != "odd":
            raise ValueError(f"--save-trie needs --strategy odd; {args.strategy} builds no trie")
        _check_out_paths(args, "out", "trace", "summary", "save_trie")
        set_up = _set_up(args)
    experiment, runs, summary = _decode_strategies(set_up, [args.strategy])
    records, trie = runs[args.strategy]
    write_results(records, Path(args.out))
    if args.trace:
        write_trace(records, Path(args.trace), experiment.registry)
    if args.save_trie is not None:
        Path(args.save_trie).write_bytes(trie.snapshot())
    if args.summary:
        write_summary(summary, Path(args.summary))
    _print_means(summary["strategies"])
    return 0


def cmd_compare(args) -> int:
    with _reading():
        _check_out_dir(args.out_dir)
        set_up = _set_up(args)
    experiment, runs, summary = _decode_strategies(set_up, STRATEGY_ORDER)
    # created only now, so that a failed strategy leaves no directory behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for strategy, (records, _) in runs.items():
        write_results(records, out_dir / f"results_{strategy}.jsonl")
        if args.trace:
            write_trace(records, out_dir / f"trace_{strategy}.jsonl", experiment.registry)
    write_table(summary["strategies"], out_dir / "summary.tsv")
    write_summary(summary, out_dir / "summary.json")
    _print_means(summary["strategies"], width=11)
    return 0


def cmd_trie(args) -> int:
    with _reading():
        if args.vocab is not None and not args.dump:
            raise ValueError("flag '--vocab' is not read without --dump")
        trie = PrefixTrie.restore(Path(args.snapshot).read_bytes())
        registry = VocabRegistry.load(args.vocab) if args.vocab is not None else None
        if registry is not None:  # checked before any output: a short vocabulary prints nothing
            top = max((record[0] for record in trie.walk()), default=-1)
            if top >= len(registry):
                raise ValueError(
                    f"snapshot token {top} is outside the {len(registry)}-token --vocab")
    stats = trie.stats()
    print(
        f"nodes={stats.node_count} inserted_positions={stats.total_insertions} "
        f"n_max={trie.config.n_max} last_timestamp={trie.last_timestamp}"
    )
    if args.dump:
        for token, frequency, depth, recency, _ in trie.walk():
            label = str(token) if registry is None else registry.token_of(token)
            print("  " * (depth - 1) + f"{label} F={frequency} L={depth} R={recency}")
    return 0


def cmd_train_lm(args) -> int:
    with _reading():
        _check_out_paths(args, "out", "vocab_out")
        registry = VocabRegistry.load(args.vocab_in) if args.vocab_in else VocabRegistry()
        with open(args.corpus, encoding="utf-8") as fh:
            corpus = [tokenize(line, registry, grow=True) for line in fh if line.strip()]
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
    try:  # anything else is a fault of the program: it leaves with its traceback
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (TrieFusionError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
