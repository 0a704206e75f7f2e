import argparse
import gc
import itertools
import json
import socket
import threading
import warnings

import numpy as np
import pytest

from triefusion import cli, harness
from triefusion.cli import (
    SETTINGS,
    _engine_settings,
    build_experiment,
    build_provider,
    builtin_scenario_path,
    execute_strategy,
    load_scenario,
    main,
)
from triefusion.fusion import DecoderConfig
from triefusion.harness import warm_start
from triefusion.lm import serve_logits, train_ngram
from triefusion.prior import ScoringWeights
from triefusion.trie import N_MAX_CAP, PrefixTrie


@pytest.fixture(scope="module")
def small_scenario(tmp_path_factory):
    """Short abrupt scenario so CLI runs stay fast."""
    scenario = load_scenario("builtin:telco-abrupt")
    scenario = dict(scenario)
    scenario["length"] = 40
    scenario["schedule"] = {"kind": "abrupt", "switch_points": [20]}
    scenario["warmup"] = {"sentences": 16, "concept": "concept-1", "insert_into_trie": True}
    scenario["telemetry_window"] = 8
    path = tmp_path_factory.mktemp("scenario") / "small.json"
    path.write_text(json.dumps(scenario))
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, small_scenario):
    """An order-3 model file over the small scenario's vocabulary."""
    experiment = build_experiment(json.loads(small_scenario.read_text()))
    path = tmp_path_factory.mktemp("model") / "model.json"
    train_ngram(experiment.warmup_corpus, 3, 1.0, vocab_size=len(experiment.registry)).save(path)
    return path


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["run", "--does-not-exist"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_invalid_choice(self):
        assert main(["run", "--strategy", "beam", "--out", "x"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_missing_scenario_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TRIEFUSION_SCENARIO", raising=False)
        assert main(["simulate", "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_scenario_file_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_schedule_is_config_error(self, tmp_path, small_scenario):
        scenario = json.loads(small_scenario.read_text())
        scenario["schedule"] = {"kind": "abrupt", "switch_points": [5, 5]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unreachable_endpoint_is_runtime_error(self, tmp_path, small_scenario, capsys):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "run",
                "--scenario", str(small_scenario),
                "--strategy", "odd",
                "--lm", "external",
                "--endpoint", f"127.0.0.1:{port}",
                "--out", str(tmp_path / "r.jsonl"),
            ]
        )
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    def test_value_error_mid_decode_is_not_bad_input(self, tmp_path, small_scenario,
                                                      monkeypatch):
        # past the inputs, a ValueError is a fault of the program: it keeps its traceback
        def broken(*args, **kwargs):
            raise ValueError("broken prior")

        monkeypatch.setattr(harness, "trie_prior", broken)
        with pytest.raises(ValueError, match="broken prior"):
            main(["run", "--scenario", str(small_scenario), "--strategy", "odd",
                  "--out", str(tmp_path / "r.jsonl")])

    def test_failed_output_write_is_runtime_error(self, tmp_path, small_scenario, capsys,
                                                  monkeypatch):
        def full(records, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_results", full)
        assert main(["run", "--scenario", str(small_scenario), "--strategy", "greedy",
                     "--out", str(tmp_path / "r.jsonl")]) == 3
        assert "runtime error: [Errno 28] No space left on device" in capsys.readouterr().err


class TestSimulate:
    def test_stream_file_shape(self, tmp_path, small_scenario):
        out = tmp_path / "stream.jsonl"
        assert main(["simulate", "--scenario", str(small_scenario), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "triefusion-stream/1"
        assert len(lines) == 1 + 40
        first = json.loads(lines[1])
        assert set(first) >= {"index", "concept", "prompt", "prompt_len", "reference",
                              "timestamp", "spans"}

    def test_env_var_default(self, tmp_path, small_scenario, monkeypatch):
        monkeypatch.setenv("TRIEFUSION_SCENARIO", str(small_scenario))
        out = tmp_path / "stream.jsonl"
        assert main(["simulate", "--out", str(out)]) == 0

    def test_stream_file_reconstructs_identically(self, tmp_path, small_scenario):
        out = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(out)])
        scenario = json.loads(small_scenario.read_text())
        direct = build_experiment(scenario)
        lines = out.read_text().splitlines()
        rebuilt = build_experiment(
            json.loads(lines[0])["scenario"],
            stream_items=[json.loads(line) for line in lines[1:]],
        )
        assert rebuilt.stream == direct.stream
        assert rebuilt.registry.tokens() == direct.registry.tokens()

    @pytest.mark.parametrize("name", ["telco-abrupt", "telco-gradual", "telco-incremental"])
    def test_warmup_export_is_the_rendered_warmup(self, tmp_path, name):
        warm = tmp_path / "warm.txt"
        assert main(["simulate", "--scenario", f"builtin:{name}", "--out",
                     str(tmp_path / "s.jsonl"), "--warmup-out", str(warm)]) == 0
        experiment = build_experiment(load_scenario(f"builtin:{name}"))
        texts = cli._build_warmup_texts(experiment.scenario, experiment.concepts, experiment.seed)
        assert texts and warm.read_text() == "".join(" ".join(t.split()) + "\n" for t in texts)

    def test_vocab_and_warmup_exports(self, tmp_path, small_scenario):
        out = tmp_path / "stream.jsonl"
        vocab = tmp_path / "vocab.txt"
        warm = tmp_path / "warm.txt"
        main([
            "simulate", "--scenario", str(small_scenario), "--out", str(out),
            "--vocab-out", str(vocab), "--warmup-out", str(warm),
        ])
        assert vocab.read_text().splitlines()[0] == "</s>"
        assert len(warm.read_text().splitlines()) == 16


class TestRun:
    def test_run_writes_results_and_summary(self, tmp_path, small_scenario):
        out = tmp_path / "results.jsonl"
        summary = tmp_path / "summary.json"
        trace = tmp_path / "trace.jsonl"
        code = main([
            "run", "--scenario", str(small_scenario), "--strategy", "odd",
            "--out", str(out), "--summary", str(summary), "--trace", str(trace),
        ])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 40
        assert all(set(r["metrics"]) == {"exact_match", "edit_similarity", "bleu",
                                         "rouge_l", "chrf"} for r in rows)
        payload = json.loads(summary.read_text())
        assert payload["strategies"][0]["strategy"] == "odd"
        assert payload["telemetry"]
        step = json.loads(trace.read_text().splitlines()[0])
        assert set(step) >= {"item", "step", "gamma", "omega", "continuity",
                             "temperature", "c_lm", "c_trie", "bypass", "chosen",
                             "prior"}

    def test_run_from_stream_file(self, tmp_path, small_scenario):
        stream = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream)])
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["run", "--stream", str(stream), "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(small_scenario), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_first_item_bypass_equivalence(self, tmp_path, small_scenario):
        # no trie warm start: item 0 decodes with an empty trie for both
        # strategies, so the first hypotheses coincide
        scenario = json.loads(small_scenario.read_text())
        scenario["warmup"]["insert_into_trie"] = False
        path = tmp_path / "cold.json"
        path.write_text(json.dumps(scenario))
        out_greedy = tmp_path / "greedy.jsonl"
        out_odd = tmp_path / "odd.jsonl"
        assert main(["run", "--scenario", str(path), "--strategy", "greedy",
                     "--out", str(out_greedy)]) == 0
        assert main(["run", "--scenario", str(path), "--strategy", "odd",
                     "--out", str(out_odd)]) == 0
        first_greedy = json.loads(out_greedy.read_text().splitlines()[0])
        first_odd = json.loads(out_odd.read_text().splitlines()[0])
        assert first_odd["hypothesis"] == first_greedy["hypothesis"]
        assert first_odd["bypass_steps"] == first_odd["steps"]

    def test_seed_with_stream_rejected(self, tmp_path, small_scenario):
        stream = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream)])
        assert main(["run", "--stream", str(stream), "--seed", "9",
                     "--out", str(tmp_path / "x.jsonl")]) == 2

    def test_seed_override_baked_into_stream_header(self, tmp_path, small_scenario):
        stream = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--seed", "99",
              "--out", str(stream)])
        header = json.loads(stream.read_text().splitlines()[0])
        assert header["scenario"]["seed"] == 99
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["run", "--stream", str(stream), "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(small_scenario), "--seed", "99",
                     "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_save_trie_roundtrips_through_cli(self, tmp_path, small_scenario, capsys):
        out = tmp_path / "results.jsonl"
        snap = tmp_path / "trie.bin"
        main(["run", "--scenario", str(small_scenario), "--out", str(out),
              "--save-trie", str(snap)])
        assert main(["trie", "--snapshot", str(snap)]) == 0
        captured = capsys.readouterr().out
        assert "nodes=" in captured and "n_max=5" in captured
        restored = PrefixTrie.restore(snap.read_bytes())
        assert restored.stats().node_count > 0

    def test_trie_dump_with_vocab(self, tmp_path, small_scenario, capsys):
        stream = tmp_path / "stream.jsonl"
        vocab = tmp_path / "vocab.txt"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream),
              "--vocab-out", str(vocab)])
        snap = tmp_path / "trie.bin"
        main(["run", "--stream", str(stream), "--out", str(tmp_path / "r.jsonl"),
              "--save-trie", str(snap)])
        assert main(["trie", "--snapshot", str(snap), "--dump", "--vocab", str(vocab)]) == 0
        assert "</s>" in capsys.readouterr().out

    def test_trie_dump_with_short_vocab_prints_nothing(self, tmp_path, small_scenario, capsys):
        vocab, snap = tmp_path / "vocab.txt", tmp_path / "trie.bin"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(tmp_path / "s.jsonl"),
              "--vocab-out", str(vocab)])
        main(["run", "--scenario", str(small_scenario), "--out", str(tmp_path / "r.jsonl"),
              "--save-trie", str(snap)])
        short = tmp_path / "short.txt"
        short.write_text("".join(line + "\n" for line in vocab.read_text().splitlines()[:5]))
        capsys.readouterr()
        assert main(["trie", "--snapshot", str(snap), "--dump", "--vocab", str(short)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the 5-token --vocab" in captured.err

    def test_trie_vocab_without_dump_is_refused(self, tmp_path, capsys):
        snap = tmp_path / "trie.bin"
        trie = PrefixTrie(n_max=3)
        trie.insert_sequence([1, 2], 1.0)
        snap.write_bytes(trie.snapshot())
        # the vocabulary is never opened: the flag is refused before any file is read
        assert main(["trie", "--snapshot", str(snap), "--vocab",
                     str(tmp_path / "missing" / "v.txt")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "flag '--vocab' is not read without --dump" in captured.err

    def test_corrupt_snapshot_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        assert main(["trie", "--snapshot", str(bad)]) == 2


class TestExternalProviderGlue:
    @pytest.mark.parametrize("strategy", ["odd", "greedy"])
    def test_run_against_tcp_served_model(self, tmp_path, small_scenario, strategy):
        """The external path reproduces the builtin path token for token."""
        scenario = json.loads(small_scenario.read_text())
        experiment = build_experiment(scenario)
        backing = train_ngram(
            experiment.warmup_corpus, 3, 1.0, vocab_size=len(experiment.registry)
        )

        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        port = server.getsockname()[1]

        def serve_one():
            conn, _ = server.accept()
            with conn:
                serve_logits(backing, conn.makefile("r"), conn.makefile("w"))

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        out_ext = tmp_path / "external.jsonl"
        out_builtin = tmp_path / "builtin.jsonl"
        code = main([
            "run", "--scenario", str(small_scenario), "--strategy", strategy,
            "--lm", "external", "--endpoint", f"127.0.0.1:{port}",
            "--out", str(out_ext),
        ])
        thread.join(timeout=10)
        server.close()
        assert code == 0
        assert main(["run", "--scenario", str(small_scenario), "--strategy", strategy,
                     "--out", str(out_builtin)]) == 0
        assert out_ext.read_bytes() == out_builtin.read_bytes()


class TestTrainLm:
    def test_train_and_reuse(self, tmp_path, small_scenario):
        stream = tmp_path / "stream.jsonl"
        vocab = tmp_path / "vocab.txt"
        warm = tmp_path / "warm.txt"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream),
              "--vocab-out", str(vocab), "--warmup-out", str(warm)])
        # append the end marker the runner trains with
        marked = tmp_path / "marked.txt"
        marked.write_text(
            "".join(line + " </s>\n" for line in warm.read_text().splitlines())
        )
        model = tmp_path / "model.json"
        assert main(["train-lm", "--corpus", str(marked), "--vocab-in", str(vocab),
                     "--order", "3", "--smoothing-k", "1.0", "--out", str(model)]) == 0
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        assert main(["run", "--stream", str(stream), "--lm-model", str(model),
                     "--out", str(out_a)]) == 0
        assert main(["run", "--stream", str(stream), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("flags, base_lm", [
        (["--lm", "external", "--endpoint", "127.0.0.1:1"], None),
        ([], {"kind": "external", "endpoint": "127.0.0.1:1"}),
    ], ids=["flag", "scenario"])
    def test_model_file_with_external_base_rejected(self, tmp_path, small_scenario, model_file,
                                                    capsys, flags, base_lm):
        scenario = json.loads(small_scenario.read_text())
        if base_lm is not None:
            scenario["base_lm"] = base_lm
        path = tmp_path / "external.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(path), "--lm-model", str(model_file), *flags,
                     "--out", str(out)]) == 2
        assert "the base model is external" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [m], "not an ngram-lm/1 file"),
        (lambda m: {**m, "contexts": None}, "'contexts' needs a list, got None"),
        (lambda m: {**m, "order": "3"}, "'order' needs an integer, got '3'"),
        (lambda m: {**m, "vocab_size": None}, "'vocab_size' needs an integer, got None"),
        (lambda m: {key: v for key, v in m.items() if key != "smoothing_k"},
         "is missing 'smoothing_k'"),
        (lambda m: m["contexts"][-1][1].__setitem__(0, [None, 1]),
         "[1][0][0]' needs an integer, got None"),
        (lambda m: m["contexts"][-1][0].__setitem__(0, 10**6), "ids below"),
        (lambda m: m["contexts"][-1][1][0].__setitem__(1, -5), "a count >= 1"),
        (lambda m: m["contexts"][-1][1].append(m["contexts"][-1][1][0]), "a new id"),
        (lambda m: m["contexts"][-1][0].append(0), "a new context of fewer than 3 ids"),
        (lambda m: m["contexts"].append(m["contexts"][0]), "a new context"),
        (lambda m: m["contexts"][-1].append([]), "needs [context, pairs]"),
        (lambda m: m["contexts"][-1][1].__setitem__(0, [1]), "needs [token, count]"),
    ], ids=["top-level-list", "contexts-null", "order-string", "vocab-null", "missing-key",
            "null-token", "huge-context-token", "negative-count", "repeated-token",
            "long-context", "repeated-context", "entry-not-pair", "pair-not-pair"])
    def test_bad_model_file_named_before_decoding(self, tmp_path, small_scenario, model_file,
                                                  capsys, edit, message):
        model = json.loads(model_file.read_text())
        edited = edit(model)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model if edited is None else edited))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--lm-model", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, flag, source", [
        (["--lm-model", "MODEL", "--order", "7"], "--order", "the --lm-model file"),
        (["--lm-model", "MODEL", "--smoothing-k", "50"], "--smoothing-k", "the --lm-model file"),
        (["--lm-model", "MODEL", "--endpoint", "1.2.3.4:5"], "--endpoint", "the --lm-model file"),
        (["--lm", "builtin", "--endpoint", "1.2.3.4:5"], "--endpoint", "builtin"),
        (["--endpoint", "1.2.3.4:5"], "--endpoint", "builtin"),
        (["--lm", "external", "--endpoint", "127.0.0.1:1", "--order", "7"], "--order",
         "external"),
        (["--lm", "external", "--endpoint", "127.0.0.1:1", "--smoothing-k", "50"],
         "--smoothing-k", "external"),
    ], ids=["model-order", "model-smoothing-k", "model-endpoint", "builtin-endpoint",
            "default-endpoint", "external-order", "external-smoothing-k"])
    def test_flag_the_base_model_never_reads_rejected(self, tmp_path, small_scenario,
                                                      model_file, capsys, flags, flag, source):
        out = tmp_path / "r.jsonl"
        flags = [str(model_file) if f == "MODEL" else f for f in flags]
        assert main(["run", "--scenario", str(small_scenario), *flags, "--out", str(out)]) == 2
        assert f"flag {flag!r} is not read: the base model is {source}" in capsys.readouterr().err
        assert not out.exists()

    def test_vocab_mismatch_rejected(self, tmp_path, small_scenario):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("tiny corpus here\n")
        model = tmp_path / "model.json"
        assert main(["train-lm", "--corpus", str(corpus), "--out", str(model)]) == 0
        assert main(["run", "--scenario", str(small_scenario), "--lm-model", str(model),
                     "--out", str(tmp_path / "r.jsonl")]) == 2


class TestCompare:
    def test_table_and_determinism(self, tmp_path, small_scenario):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for out_dir in (dir_a, dir_b):
            assert main(["compare", "--scenario", str(small_scenario),
                         "--out-dir", str(out_dir)]) == 0
        names = ["results_greedy.jsonl", "results_temp-scaled.jsonl",
                 "results_odd.jsonl", "summary.tsv", "summary.json"]
        for name in names:
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        table = (dir_a / "summary.tsv").read_text().splitlines()
        body = [line for line in table if not line.startswith("#")]
        assert body[0].split("\t") == ["strategy", "exact_match", "edit_similarity",
                                       "bleu", "rouge_l", "chrf"]
        assert [row.split("\t")[0] for row in body[1:]] == ["greedy", "temp-scaled", "odd"]

    def test_greedy_rows_match_direct_argmax(self, tmp_path, small_scenario):
        out_dir = tmp_path / "cmp"
        main(["compare", "--scenario", str(small_scenario), "--out-dir", str(out_dir)])
        scenario = json.loads(small_scenario.read_text())
        experiment = build_experiment(scenario)
        provider = train_ngram(
            experiment.warmup_corpus, 3, 1.0, vocab_size=len(experiment.registry)
        )
        rows = [json.loads(line)
                for line in (out_dir / "results_greedy.jsonl").read_text().splitlines()]
        for item, row in zip(experiment.stream, rows):
            ids = list(item.prompt)
            for _ in range(64):
                ids.append(int(np.argmax(provider.logits(ids))))
                if ids[-1] == experiment.eos_id:
                    break
            shown = ids[:-1] if ids[-1] == experiment.eos_id else ids
            expected = " ".join(experiment.registry.token_of(t) for t in shown)
            assert row["hypothesis"] == expected

    def test_set_up_is_checked_before_any_decode(self, tmp_path, small_scenario, capsys,
                                                 monkeypatch):
        # a bad telemetry window stops compare before its first strategy, as it stops run
        scenario = json.loads(small_scenario.read_text())
        scenario["telemetry_window"] = True
        path = tmp_path / "window.json"
        path.write_text(json.dumps(scenario))
        calls = []
        original = cli.execute_strategy

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "execute_strategy", counting)
        for command in (["compare", "--out-dir", str(tmp_path / "cmp")],
                        ["run", "--out", str(tmp_path / "r.jsonl")]):
            assert main([*command, "--scenario", str(path)]) == 2
            assert "scenario key 'telemetry_window'" in capsys.readouterr().err
        assert calls == []

    def test_negative_telemetry_window_rejected(self, tmp_path, small_scenario, capsys):
        scenario = json.loads(small_scenario.read_text())
        scenario["telemetry_window"] = -3
        path = tmp_path / "window.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert "scenario key 'telemetry_window' needs a count >= 0, got -3" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_negative_warmup_count_rejected(self, tmp_path, small_scenario, capsys, command):
        scenario = json.loads(small_scenario.read_text())
        scenario["warmup"]["sentences"] = -5
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "o.jsonl"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        assert "scenario key 'warmup.sentences' needs a count >= 0, got -5" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_failed_strategy_leaves_no_out_dir(self, tmp_path, small_scenario):
        # the served model hangs up after a few replies, inside the first strategy's run
        experiment = build_experiment(json.loads(small_scenario.read_text()))
        backing = train_ngram(experiment.warmup_corpus, 3, 1.0,
                              vocab_size=len(experiment.registry))
        server = socket.create_server(("127.0.0.1", 0))

        def serve_a_few():
            conn, _ = server.accept()
            with conn, conn.makefile("r") as reader, conn.makefile("w") as writer:
                serve_logits(backing, itertools.islice(reader, 5), writer)

        thread = threading.Thread(target=serve_a_few, daemon=True)
        thread.start()
        out_dir = tmp_path / "cmp"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["compare", "--scenario", str(small_scenario), "--lm", "external",
                         "--endpoint", f"127.0.0.1:{server.getsockname()[1]}",
                         "--out-dir", str(out_dir)])
            gc.collect()
        thread.join(timeout=10)
        server.close()
        assert code == 3
        assert not out_dir.exists()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_builtin_scenarios_resolve(self):
        for name in ("telco-abrupt", "telco-incremental", "telco-gradual"):
            path = builtin_scenario_path(name)
            scenario = json.loads(path.read_text())
            assert scenario["templates"]
        with pytest.raises(ValueError):
            builtin_scenario_path("nope")


class TestOtherScheduleKinds:
    def _shrunk(self, tmp_path, name, length=30):
        scenario = dict(load_scenario(f"builtin:{name}"))
        scenario["length"] = length
        if scenario["schedule"]["kind"] == "incremental":
            scenario["schedule"] = {"kind": "incremental", "switch_points": [10, 20]}
        scenario["warmup"] = {"sentences": 12, "concept": "concept-1",
                              "insert_into_trie": True}
        scenario["telemetry_window"] = 0
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(scenario))
        return path

    def test_gradual_ramp_expansion(self, tmp_path):
        path = self._shrunk(tmp_path, "telco-gradual")
        scenario = json.loads(path.read_text())
        experiment = build_experiment(scenario)
        assert len(experiment.schedule.mixing_ramp) == 30
        assert experiment.schedule.mixing_ramp[0] == 0.0
        assert experiment.schedule.mixing_ramp[-1] == 1.0
        out = tmp_path / "g.jsonl"
        summary = tmp_path / "g.json"
        assert main(["run", "--scenario", str(path), "--out", str(out),
                     "--summary", str(summary)]) == 0
        payload = json.loads(summary.read_text())
        assert "drift" not in payload["strategies"][0]  # no switch points

    def test_incremental_run(self, tmp_path):
        path = self._shrunk(tmp_path, "telco-incremental")
        out = tmp_path / "i.jsonl"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        concepts = {row["concept"] for row in rows}
        assert concepts == {"concept-1", "concept-2", "concept-3"}


ZERO_MESSAGES = {
    "n_max": "n_max must be >= 2",
    "top_k": "top_k must be >= 1",
    "fixed_temperature": "fixed_temperature must be > 0",
    "max_new_tokens": "max_new_tokens must be >= 1",
    "order": "order must be >= 1",
    "smoothing_k": "smoothing_k must be > 0",
}


_BAD_ENDPOINTS = {"int": 5, "list": ["h"], "list-null": ["h", None],
                  "word-port": "localhost:notaport", "no-port": "localhost", "empty": "",
                  "port-too-big": "127.0.0.1:70000", "negative-port": "127.0.0.1:-1"}


class TestSettingsTable:
    def test_every_table_setting_has_a_zero_case(self):
        assert set(SETTINGS) == set(ZERO_MESSAGES)

    @pytest.mark.parametrize("name", sorted(ZERO_MESSAGES))
    def test_zero_flag_reaches_validator(self, tmp_path, small_scenario, capsys, name):
        out = tmp_path / "r.jsonl"
        flag = "--" + name.replace("_", "-")
        assert main(["run", "--scenario", str(small_scenario), flag, "0",
                     "--out", str(out)]) == 2
        assert ZERO_MESSAGES[name] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["n_max", "top_k", "fixed_temperature", "max_new_tokens"])
    def test_engine_value_checked_before_the_base_model(self, tmp_path, small_scenario, capsys,
                                                        name):
        # nothing listens on the endpoint: a check left until after connecting would exit 3
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--" + name.replace("_", "-"),
                     "0", "--lm", "external", "--endpoint", "127.0.0.1:1",
                     "--out", str(out)]) == 2
        assert ZERO_MESSAGES[name] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(ZERO_MESSAGES))
    def test_zero_scenario_value_reaches_validator(self, tmp_path, small_scenario, capsys,
                                                   name):
        scenario = json.loads(small_scenario.read_text())
        section = SETTINGS[name][0]
        scenario[section] = {**scenario.get(section, {}), name: 0}
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert ZERO_MESSAGES[name] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [("engine", "top_k"), ("base_lm", "order"),
                                              ("warmup", "sentences")])
    def test_null_scenario_value_is_config_error(self, tmp_path, small_scenario, capsys,
                                                 section, key):
        scenario = json.loads(small_scenario.read_text())
        scenario[section] = {**(scenario.get(section) or {}), key: None}
        path = tmp_path / "null.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, edit, key", [
        ("run", lambda s: s.update(engine=5), "engine"),
        ("run", lambda s: s.update(engine=None), "engine"),
        ("run", lambda s: s.update(base_lm=5), "base_lm"),
        ("run", lambda s: s.update(warmup=5), "warmup"),
        ("run", lambda s: s.update(warmup=None), "warmup"),
        ("run", lambda s: s.setdefault("engine", {}).update(weights=5), "engine.weights"),
        ("run", lambda s: s["warmup"].update(concept=["concept-1"]), "warmup.concept"),
        ("run", lambda s: s["warmup"].update(insert_into_trie="no"), "warmup.insert_into_trie"),
        ("simulate", lambda s: s.update(concepts=5), "concepts"),
        ("simulate", lambda s: s.update(concepts=[5]), "concepts[0]"),
        ("simulate", lambda s: s["concepts"][0].update(substitutions=5),
         "concepts[0].substitutions"),
        ("simulate", lambda s: s.update(templates=5), "templates"),
        ("simulate", lambda s: s.update(templates=[5]), "templates[0]"),
        ("simulate", lambda s: s.update(eos=5), "eos"),
    ] + [
        # the endpoint is one host:port string with a decimal port
        ("run", lambda s, e=endpoint: s.update(base_lm={"kind": "external", "endpoint": e}),
         "base_lm.endpoint")
        for endpoint in _BAD_ENDPOINTS.values()
    ], ids=["engine-5", "engine-null", "base_lm-5", "warmup-5", "warmup-null", "weights-5",
            "warmup-concept-list", "insert-into-trie-string", "concepts-5", "concept-5",
            "substitutions-5", "templates-5", "template-5", "eos-5"]
    + [f"endpoint-{name}" for name in _BAD_ENDPOINTS])
    def test_misshapen_scenario_value_is_config_error(self, tmp_path, small_scenario, capsys,
                                                      command, edit, key):
        # a section or list of the wrong JSON shape, null included, names its key
        scenario = json.loads(small_scenario.read_text())
        edit(scenario)
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "r.jsonl"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"scenario key {key!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--fixed-temperature", "nan"),
                                             ("--smoothing-k", "inf")])
    def test_bad_flag_value_is_named_as_flag(self, tmp_path, small_scenario, capsys,
                                             flag, value):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), flag, value,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"flag {flag!r}" in err
        assert "scenario key" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", 1.5),
        ("seed", True),
        ("seed", "7"),
        ("engine.top_k", 2.7),
        ("engine.n_max", 3.9),
        ("engine.max_new_tokens", False),
        ("engine.fixed_temperature", float("nan")),
        ("engine.continuity_scale", float("inf")),
        ("engine.weights.frequency", True),
        ("base_lm.smoothing_k", float("-inf")),
        ("warmup.sentences", 2.5),
        ("timestamp_step", float("inf")),
        ("timestamp_step", 1e308),
        ("telemetry_window", True),
    ])
    def test_bad_scenario_number_is_config_error(self, tmp_path, small_scenario, capsys,
                                                 key, value):
        # integers must be whole, reals finite, and neither may be a bool or a string
        scenario = json.loads(small_scenario.read_text())
        *sections, leaf = key.split(".")
        node = scenario
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
        path = tmp_path / "number.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("schedule, key", [
        ({"kind": "abrupt", "switch_points": None}, "schedule.switch_points"),
        ({"kind": "abrupt", "switch_points": [None]}, "schedule.switch_points[0]"),
        ({"kind": "abrupt", "switch_points": 20}, "schedule.switch_points"),
        ({"kind": "gradual", "ramp": [None]}, "schedule.ramp[0]"),
        ({"kind": "gradual", "ramp": {"start": None, "end": 1.0}}, "schedule.ramp.start"),
        ({"kind": "gradual", "ramp": {"start": 0.0, "end": None}}, "schedule.ramp.end"),
        (None, "schedule"),
    ])
    def test_bad_schedule_value_is_config_error(self, tmp_path, small_scenario, capsys,
                                                schedule, key):
        scenario = json.loads(small_scenario.read_text())
        scenario["schedule"] = schedule
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "s.jsonl"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert f"scenario key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["nan,0.5,0.5", "0.5,0.5,nan", "inf,0,0"])
    def test_non_finite_weights_flag_is_config_error(self, tmp_path, small_scenario, capsys,
                                                     weights):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--weights", weights,
                     "--out", str(out)]) == 2
        assert "weight" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["0.5,0.5,", "a,b,c", "0.5,0.5", "0.2,0.2,0.2,0.4", ""])
    def test_unparsable_weights_flag_is_named(self, tmp_path, small_scenario, capsys, weights):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--weights", weights,
                     "--out", str(out)]) == 2
        assert (f"flag '--weights' needs three comma-separated numbers, got {weights!r}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("weights", ["0.3333333334,0.3333333334,0.3333333334",
                                         "0.5000000004,0.25,0.25"])
    def test_weights_summing_a_hair_above_one_decode(self, tmp_path, small_scenario, weights):
        # the top score passes 1 by the accepted slack; the prior keeps its winner at 1
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--weights", weights,
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 40

    def test_zero_n_max_rejected_for_baselines_too(self, tmp_path, small_scenario):
        assert main(["compare", "--scenario", str(small_scenario), "--n-max", "0",
                     "--out-dir", str(tmp_path / "cmp")]) == 2
        assert not (tmp_path / "cmp").exists()

    def test_n_max_past_snapshot_field_rejected_before_decoding(self, tmp_path, small_scenario,
                                                               capsys):
        out, saved = tmp_path / "o.jsonl", tmp_path / "t.bin"
        assert main(["run", "--scenario", str(small_scenario), "--n-max", str(N_MAX_CAP + 1),
                     "--out", str(out), "--save-trie", str(saved)]) == 2
        assert f"n_max must be <= {N_MAX_CAP}" in capsys.readouterr().err
        assert not out.exists() and not saved.exists()

    def test_n_max_at_snapshot_field_cap_round_trips(self, tmp_path, small_scenario):
        out, saved = tmp_path / "o.jsonl", tmp_path / "t.bin"
        assert main(["run", "--scenario", str(small_scenario), "--n-max", str(N_MAX_CAP),
                     "--max-new-tokens", "2", "--out", str(out), "--save-trie", str(saved)]) == 0
        assert PrefixTrie.restore(saved.read_bytes()).config.n_max == N_MAX_CAP

    @pytest.mark.parametrize("name", ["telco-abrupt", "telco-incremental", "telco-gradual"])
    def test_unset_flags_take_scenario_values(self, name):
        third = 1.0 / 3.0
        assert _engine_settings(load_scenario(f"builtin:{name}"), argparse.Namespace()) == {
            "decoder": DecoderConfig(weights=ScoringWeights(third, third, third), top_k=5,
                                     continuity_scale=3.0, fixed_temperature=1.5,
                                     max_new_tokens=64),
            "n_max": 5,
        }


_OUT_FLAGS = {"run": ("--out", "--trace", "--summary", "--save-trie"),
              "simulate": ("--out", "--vocab-out", "--warmup-out")}


class TestOutputPaths:
    @pytest.mark.parametrize("command, flag",
                             [(c, f) for c, flags in _OUT_FLAGS.items() for f in flags])
    @pytest.mark.parametrize("bad", ["missing/file", ""], ids=["missing-dir", "a-dir"])
    def test_unwritable_path_refused_before_any_output(self, tmp_path, small_scenario, capsys,
                                                       command, flag, bad):
        argv = [command, "--scenario", str(small_scenario)]
        for name in _OUT_FLAGS[command]:
            argv += [name, str(tmp_path / (bad if name == flag else name[2:]))]
        assert main(argv) == 2
        assert f"flag {flag!r} names" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out_dir", ["file", "file/sub/dir"])
    def test_out_dir_refused_before_any_decode(self, tmp_path, small_scenario, capsys,
                                               monkeypatch, out_dir):
        (tmp_path / "file").write_text("not a directory")
        calls = []
        monkeypatch.setattr(cli, "execute_strategy", lambda *args: calls.append(args[2]))
        assert main(["compare", "--scenario", str(small_scenario),
                     "--out-dir", str(tmp_path / out_dir)]) == 2
        assert f"but {str(tmp_path / 'file')!r} is not a directory" in capsys.readouterr().err
        assert calls == []


class TestTriesOnlyWhereRead:
    @pytest.mark.parametrize("strategy", ["greedy", "temp-scaled"])
    def test_save_trie_needs_odd(self, tmp_path, small_scenario, capsys, strategy):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--strategy", strategy,
                     "--out", str(out), "--save-trie", str(tmp_path / "t.bin")]) == 2
        assert "--save-trie" in capsys.readouterr().err
        assert not out.exists()

    def test_baselines_build_no_trie_and_odd_holds_warmup_plus_references(
        self, small_scenario
    ):
        experiment = build_experiment(json.loads(small_scenario.read_text()))
        settings = _engine_settings(experiment.scenario, argparse.Namespace())
        provider = build_provider(experiment, argparse.Namespace())
        for strategy in ("greedy", "temp-scaled"):
            _, trie = execute_strategy(experiment, provider, strategy, settings)
            assert trie is None
        _, trie = execute_strategy(experiment, provider, "odd", settings)
        fresh = PrefixTrie(n_max=settings["n_max"])
        warm_start(fresh, experiment.warmup_corpus, experiment.timestamp_step * 0.5)
        for item in experiment.stream:
            fresh.insert_sequence(list(item.reference) + [experiment.eos_id], item.timestamp)
        assert trie.snapshot() == fresh.snapshot()


def _rewrite_row(stream, row_number, edit):
    lines = stream.read_text().splitlines()
    row = json.loads(lines[row_number])
    edit(row)
    lines[row_number] = json.dumps(row)
    stream.write_text("\n".join(lines) + "\n")


_ROW_KEYS = ("concept", "reference", "prompt_len", "timestamp", "spans", "index")


class TestStreamFileValidation:
    @pytest.mark.parametrize(
        "row_number, edit, message",
        [
            (30, lambda row: row.update(timestamp=1.0), "timestamp"),
            (30, lambda row: row.update(timestamp=float("nan")), "timestamp"),
            (1, lambda row: row.update(timestamp=0.0), "timestamp"),
            (12, lambda row: row["spans"][0].__setitem__(2, 999), "outside"),
            (12, lambda row: row["spans"][0].__setitem__(1, -1), "outside"),
            (12, lambda row: row["spans"][0].__setitem__(2, row["spans"][0][1]), "outside"),
            (12, lambda row: row.update(prompt_len=50), "prompt_len"),
            (12, lambda row: row.update(prompt_len=-1), "prompt_len"),
            # row values of the wrong JSON type name the item and the key
            (12, lambda row: row.update(prompt_len=True), "stream item 11 'prompt_len'"),
            (12, lambda row: row.update(prompt_len=1.7), "stream item 11 'prompt_len'"),
            (12, lambda row: row.update(index=2.5), "stream item 11 'index'"),
            (12, lambda row: row.update(timestamp=str(row["timestamp"])),
             "stream item 11 'timestamp'"),
            (12, lambda row: row["spans"][0].__setitem__(1, str(row["spans"][0][1])),
             "stream item 11 'spans[0][1]'"),
            (12, lambda row: row.update(spans=None), "stream item 11 'spans'"),
            (12, lambda row: row.update(reference=5), "stream item 11 'reference'"),
            # the drift summary splits items on index, so indices rise from 0
            (1, lambda row: row.update(index=-5), "stream item 0 'index'"),
            (12, lambda row: row.update(index=10), "stream item 11 'index'"),
            # the warm-up goes into the trie at half a timestamp step, before row 0
            (1, lambda row: row.update(timestamp=1.0), "not before 30.0"),
        ] + [
            # an absent key names the item, not just the key
            (4, lambda row, key=key: row.pop(key), f"stream item 3 is missing {key!r}")
            for key in _ROW_KEYS
        ],
        ids=["timestamp-regression", "nan-timestamp", "zero-timestamp", "span-past-end",
             "negative-span-start", "empty-span", "prompt-past-span", "negative-prompt",
             "bool-prompt-len", "fractional-prompt-len", "fractional-index", "string-timestamp",
             "string-span-start", "null-spans", "number-reference", "negative-index",
             "repeated-index", "timestamp-before-warmup"]
        + [f"missing-{key}" for key in _ROW_KEYS],
    )
    def test_bad_row_rejected_before_any_output(self, tmp_path, small_scenario, capsys,
                                                row_number, edit, message):
        stream = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream)])
        _rewrite_row(stream, row_number, edit)
        capsys.readouterr()
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--stream", str(stream), "--out-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out_dir.exists()

    def test_header_only_stream_rejected_naming_the_file(self, tmp_path, small_scenario,
                                                         capsys):
        stream = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream)])
        stream.write_text(stream.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--stream", str(stream), "--out-dir", str(out_dir)]) == 2
        assert f"stream file {stream} has no items" in capsys.readouterr().err
        assert not out_dir.exists()


class TestNamedBoundaryErrors:
    @pytest.mark.parametrize("endpoint", ["localhost:notaport", "localhost", ""])
    def test_bad_endpoint_flag_is_named(self, tmp_path, small_scenario, capsys, endpoint):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--scenario", str(small_scenario), "--lm", "external",
                     "--endpoint", endpoint, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "flag '--endpoint'" in err
        assert "scenario key" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda h: h.pop("scenario"), "stream header is missing 'scenario'"),
        (lambda h: h["scenario"].pop("seed"), "stream header scenario is missing the 'seed' key"),
    ], ids=["scenario", "scenario-seed"])
    def test_missing_header_key_is_named(self, tmp_path, small_scenario, capsys, edit,
                                         message):
        stream = tmp_path / "stream.jsonl"
        main(["simulate", "--scenario", str(small_scenario), "--out", str(stream)])
        _rewrite_row(stream, 0, edit)
        capsys.readouterr()
        out = tmp_path / "r.jsonl"
        assert main(["run", "--stream", str(stream), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s["concepts"][0].pop("id"), "scenario key 'concepts[0]' is missing 'id'"),
        (lambda s: s["concepts"][1].pop("substitutions"),
         "scenario key 'concepts[1]' is missing 'substitutions'"),
        (lambda s: s.update(schedule={"kind": "gradual", "ramp": {"end": 1.0}}),
         "scenario key 'schedule.ramp' is missing 'start'"),
        (lambda s: s.update(schedule={"kind": "gradual", "ramp": {"start": 0.0}}),
         "scenario key 'schedule.ramp' is missing 'end'"),
    ], ids=["concept-id", "concept-substitutions", "ramp-start", "ramp-end"])
    def test_missing_scenario_key_names_its_container(self, tmp_path, small_scenario, capsys,
                                                      edit, message):
        scenario = json.loads(small_scenario.read_text())
        edit(scenario)
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "s.jsonl"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run", "compare"])
    def test_empty_templates_named_before_any_output(self, tmp_path, small_scenario, capsys,
                                                     command):
        scenario = json.loads(small_scenario.read_text())
        scenario["templates"] = []
        path = tmp_path / "templates.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "out"
        target = "--out-dir" if command == "compare" else "--out"
        assert main([command, "--scenario", str(path), target, str(out)]) == 2
        captured = capsys.readouterr()
        assert "scenario key 'templates' needs at least one template" in captured.err
        assert captured.out == ""
        assert not out.exists()
