"""Byte identity of the CLI's deterministic outputs.

The digests pin every file that ``compare --trace`` writes on the three
builtin scenarios, and every file that ``run --trace --summary --save-trie``
writes on telco-abrupt. A change that alters one byte of a results, trace,
summary or snapshot file fails here; a deliberate format change must update
the digests and say why.
"""

import hashlib

import pytest

from triefusion.cli import main

COMPARE_DIGESTS = {
    "telco-abrupt": {
        "results_greedy.jsonl": "c3ac9f159bc0f9abf249b2dbda2724932291b437b865af86ee76d4e580d2881f",
        "results_odd.jsonl": "3967fe931a38e6ad638f86784a0e27268a26d4dc3b419602ce09d68dea916288",
        "results_temp-scaled.jsonl": "c3ac9f159bc0f9abf249b2dbda2724932291b437b865af86ee76d4e580d2881f",
        "summary.json": "1e7b78b6ee5640235b0b8efda5934bdf91353213e968050f310ae1ea915c6c56",
        "summary.tsv": "d0014cc6ec881815efbf7d475091f8a9aaf1a49c04b4e56a6432b2554b7aee7d",
        "trace_greedy.jsonl": "e7d600b920d4f83c5cae999d1a0ac8cbfd71f4e4b6ce4c8bdc4ec9c91accd652",
        "trace_odd.jsonl": "abfa9ffc882e965b3ea6e4c4a59f7c7feda70e022d6acbec2e22246db495fde9",
        "trace_temp-scaled.jsonl": "0ecea136be1035da7a39db696ff85dc1b0d3a94431d02aea1803e67bfd82b268",
    },
    "telco-incremental": {
        "results_greedy.jsonl": "b6fe244a1f535d1cb6a9c8f09ced7d00e3c63c072d10e4fa094a7c649bbde86a",
        "results_odd.jsonl": "bddbb7b24cd1b20956392b7a5391e3e108f15fd714fef26c3ca51817da6cb776",
        "results_temp-scaled.jsonl": "b6fe244a1f535d1cb6a9c8f09ced7d00e3c63c072d10e4fa094a7c649bbde86a",
        "summary.json": "c7e432dbd081929e8fe65c6d49017ef12198ece0fd3da40ffec25bea0e9d5199",
        "summary.tsv": "758acdccca3d8688159b7aca7d58ecd517471dfc2a4f0279fce9700babd41266",
        "trace_greedy.jsonl": "78229a783517a95b1a25bad738ef7a6d4a2b7555268a407f15c2aa3e1ec07750",
        "trace_odd.jsonl": "40caa6955e41fb26a7b6231f6aaec7a58760f504086dd0bbaf2638479e3f8b92",
        "trace_temp-scaled.jsonl": "e8d0b32a46f117b25dc4f1d1f9da2b1ad65e47edb9f181f088769c9389f2db0a",
    },
    "telco-gradual": {
        "results_greedy.jsonl": "0431de78e856bfb866eb28ab0a2c327ae057a0eb11e6e9303b1e4e726b1ad7cd",
        "results_odd.jsonl": "f06608fd1ffcc8122ae4a4046be88124296d321dbda8274f76db3cda103e1cc4",
        "results_temp-scaled.jsonl": "0431de78e856bfb866eb28ab0a2c327ae057a0eb11e6e9303b1e4e726b1ad7cd",
        "summary.json": "5406ae9b41b636f4e25123415e4b4587b04f2987012f3f030647ee22ab0b0207",
        "summary.tsv": "95de144a4a4217ac7f3a3038cca5ff4c42dbd6e8ea4d903661c18b3f9fc36006",
        "trace_greedy.jsonl": "d1ab555afefcb8508e8f98f161942bdca65c322294e6351e7c40d3cd72def5b7",
        "trace_odd.jsonl": "6c97a6fa1145117d75d5b54c529d4202ced2da9ea79caaea481f6b20977657e8",
        "trace_temp-scaled.jsonl": "e78d40b10e49cc82d8178ed002af4cdc48ee5da436037a6abd80ec7289f3e27d",
    },
}

RUN_DIGESTS = {
    "results.jsonl": "3967fe931a38e6ad638f86784a0e27268a26d4dc3b419602ce09d68dea916288",
    "summary.json": "b87b4376b7b993020fa669388759899f5a140c84659bb183f4b17503720002aa",
    "trace.jsonl": "abfa9ffc882e965b3ea6e4c4a59f7c7feda70e022d6acbec2e22246db495fde9",
    "trie.bin": "57d8efb3e88d3b930ac6f7eebfec84cc9eb2e5a39c58d99c6ea749d13cb7373a",
}


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.mark.parametrize("scenario", sorted(COMPARE_DIGESTS))
def test_compare_outputs_are_pinned(tmp_path, scenario, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--scenario", f"builtin:{scenario}",
                 "--out-dir", str(out), "--trace"]) == 0
    assert _digests(out) == COMPARE_DIGESTS[scenario]


def test_run_outputs_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main([
        "run", "--scenario", "builtin:telco-abrupt",
        "--out", str(out / "results.jsonl"),
        "--trace", str(out / "trace.jsonl"),
        "--summary", str(out / "summary.json"),
        "--save-trie", str(out / "trie.bin"),
    ]) == 0
    assert _digests(out) == RUN_DIGESTS


TRIE_DUMP_DIGEST = "eeca56139254cd755c85ec46e169c8217bd94c1e3e16d6a7564ac9041093be2d"


def test_trie_dump_is_pinned(tmp_path, capsys):
    vocab, snapshot = tmp_path / "vocab.txt", tmp_path / "trie.bin"
    assert main(["simulate", "--scenario", "builtin:telco-abrupt",
                 "--out", str(tmp_path / "stream.jsonl"), "--vocab-out", str(vocab)]) == 0
    assert main(["run", "--scenario", "builtin:telco-abrupt",
                 "--out", str(tmp_path / "results.jsonl"), "--save-trie", str(snapshot)]) == 0
    capsys.readouterr()
    assert main(["trie", "--snapshot", str(snapshot), "--dump", "--vocab", str(vocab)]) == 0
    dump = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(dump).hexdigest() == TRIE_DUMP_DIGEST
