import os

import pytest
from hypothesis import settings

from triefusion.trie import PrefixTrie
from triefusion.vocab import VocabRegistry, tokenize

# Under CI, property tests draw the same examples on every run, keep no example
# database, and print a blob that replays a failure with @reproduce_failure, so
# a failing GitHub Actions run reproduces locally with CI=1.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

# Figure-style two-sentence corpus: one older, one newer insertion.
T_OLD = 1758658460.0
T_NEW = 1759263260.0


@pytest.fixture
def two_sentence_world():
    """Registry + trie holding 'activate your plan 4G' (old) and
    'please activate your plan 5G' (new), window length 5."""
    registry = VocabRegistry()
    first = tokenize("activate your plan 4G", registry, grow=True)
    second = tokenize("please activate your plan 5G", registry, grow=True)
    trie = PrefixTrie(n_max=5)
    trie.insert_sequence(first, T_OLD)
    trie.insert_sequence(second, T_NEW)
    return registry, trie
