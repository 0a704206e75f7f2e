import re

import pytest
from hypothesis import given, strategies as st

from triefusion.vocab import VocabRegistry, detokenize, tokenize


def test_first_come_ids():
    registry = VocabRegistry()
    assert tokenize("activate your plan", registry, grow=True) == [0, 1, 2]
    assert len(registry) == 3


def test_lookup_is_idempotent():
    registry = VocabRegistry()
    tokenize("activate your plan", registry, grow=True)
    assert tokenize("plan plan", registry) == [2, 2]
    assert len(registry) == 3


def test_unknown_token_without_growth():
    registry = VocabRegistry()
    tokenize("activate your plan", registry, grow=True)
    with pytest.raises(ValueError, match="unregistered token: '5G'"):
        tokenize("5G", registry, grow=False)


def test_detokenize_inverse():
    registry = VocabRegistry()
    ids = tokenize("activate your plan", registry, grow=True)
    assert detokenize(ids, registry) == "activate your plan"


def test_detokenize_empty_and_unknown():
    registry = VocabRegistry()
    tokenize("a b c", registry, grow=True)
    assert detokenize([], registry) == ""
    with pytest.raises(ValueError, match="id 99 outside registry of size 3"):
        detokenize([99], registry)


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="cannot tokenize empty or whitespace-only text"):
        tokenize("   ", VocabRegistry(), grow=True)


def test_case_sensitive():
    registry = VocabRegistry()
    tokenize("5G 5g", registry, grow=True)
    assert len(registry) == 2


def test_id_stability_under_growth():
    registry = VocabRegistry()
    before = tokenize("a b", registry, grow=True)
    tokenize("c d e", registry, grow=True)
    assert tokenize("a b", registry) == before


def test_save_load_roundtrip(tmp_path):
    registry = VocabRegistry()
    tokenize("alpha beta 5G gamma", registry, grow=True)
    path = tmp_path / "vocab.txt"
    registry.save(path)
    loaded = VocabRegistry.load(path)
    assert loaded.tokens() == registry.tokens()
    assert loaded.id_of("5G") == registry.id_of("5G")


def test_load_rejects_repeated_token(tmp_path):
    # the line number is the id, so a repeat would shift every later token
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\na\nc\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 3 repeats token 'a' from line 1"):
        VocabRegistry.load(path)


@pytest.mark.parametrize("line", ["", " ", "two words"])
def test_load_names_the_line_that_is_not_one_token(tmp_path, line):
    path = tmp_path / "vocab.txt"
    path.write_text(f"a\n{line}\nc\n", encoding="utf-8")
    message = f"vocabulary file {path} line 2 holds {line!r}, not one word"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VocabRegistry.load(path)


def test_add_rejects_multiword():
    with pytest.raises(ValueError):
        VocabRegistry().add("two words")
    with pytest.raises(ValueError):
        VocabRegistry().add("")


@given(st.lists(st.text(alphabet="abcXYZ059-", min_size=1, max_size=6), min_size=1, max_size=20))
def test_roundtrip_property(words):
    registry = VocabRegistry()
    text = " ".join(words)
    assert detokenize(tokenize(text, registry, grow=True), registry) == text
