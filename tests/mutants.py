"""Mutation table: deliberate bugs that named tests must catch.

Each row names a file under ``src/``, an exact old string, its replacement
and the pytest arguments (files or node ids) expected to kill it.
``python tests/mutants.py`` copies ``src/``, ``tests/`` and ``pyproject.toml``
into a temporary directory; for each row it applies the edit there, runs the
row's tests and undoes the edit. A mutant whose tests all pass survived. The
checkout is never written.

An old string that does not occur exactly once is an error, so a row goes
stale loudly when the code it mutates changes. The unmutated copy must pass
every row's tests first, or a kill would mean nothing. Property tests run
under the ``ci`` profile, so each run draws the same examples.

Usage: ``python tests/mutants.py`` from the repository root runs every row.
Exit status 0: every mutant killed; 1: a mutant survived; 2: a stale row or
failing unmutated tests. A test run past ``TIMEOUT_S`` counts as a kill and is
reported as timed out.

Rows come from changes that claimed "each mutation fails a test"; add yours.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60  # per pytest run, well inside the CI step's 3 minutes


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant("lcs-without-full-mask", "src/triefusion/metrics.py",
           "v = ((v + u) | (v - u)) & full", "v = (v + u) | (v - u)",
           ("tests/test_metrics.py",)),
    Mutant("clipped-matches-by-union", "src/triefusion/metrics.py",
           "_ngram_counts(hypothesis, order) & _ngram_counts(reference, order)",
           "_ngram_counts(hypothesis, order) | _ngram_counts(reference, order)",
           ("tests/test_metrics.py",)),
    Mutant("ngram-total-one-short", "src/triefusion/metrics.py",
           "total = hyp_len - order + 1", "total = hyp_len - order",
           ("tests/test_metrics.py",)),
    Mutant("vocab-repeat-unchecked", "src/triefusion/vocab.py",
           "if token in registry:", "if False:",
           ("tests/test_vocab.py",
            "tests/test_cli.py::TestRun::test_trie_dump_with_repeated_vocab_token_prints_nothing",
            "tests/test_cli.py::TestTrainLm::test_repeated_vocab_token_rejected")),
    Mutant("smoothing-unchecked", "src/triefusion/lm.py",
           "if not (math.isfinite(denominator) and k / denominator > 0):", "if False:",
           ("tests/test_lm.py", "tests/test_cli.py::TestSmoothingConstant")),
    Mutant("row-memo-keyed-by-last-token", "src/triefusion/harness.py",
           "key = tuple(ids)", "key = tuple(ids[-1:])",
           ("tests/test_harness.py::test_odd_decodes_like_the_dense_path",)),
    Mutant("row-summary-below-peak-one", "src/triefusion/fusion.py",
           "return self.ties is not None and prior.max_prob() >= 1.0",
           "return self.ties is not None",
           ("tests/test_harness.py::test_odd_decodes_like_the_dense_path",)),
    Mutant("floor-top-k-from-largest-id", "src/triefusion/fusion.py",
           "for token in range(summary.size) if", "for token in reversed(range(summary.size)) if",
           ("tests/test_fusion_equivalence.py"
            "::test_floor_steps_from_the_row_summary_match_the_plain_loops",)),
    Mutant("floor-step-picks-the-base-top", "src/triefusion/fusion.py",
           "chosen = prior.argmax_token()", "chosen = ties[-1]",
           ("tests/test_fusion_equivalence.py"
            "::test_floor_steps_from_the_row_summary_match_the_plain_loops",)),
    Mutant("tie-ids-without-shortcut", "src/triefusion/fusion.py",
           ".tolist()) if shortcut else None", ".tolist())",
           ("tests/test_harness.py::test_row_memo_holds_under_a_kilobyte_per_prefix",)),
)


def _refuse(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _mutated(mutant: Mutant) -> str:
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        _refuse(f"stale mutant {mutant.name}: its old string occurs {found} times "
                f"in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def _verdict(copy: Path, tests) -> str:
    """'passed' when every test passes; a mutant that hangs counts as killed."""
    env = {**os.environ, "CI": "1", "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timed out"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    edits = [_mutated(m) for m in MUTANTS]  # a stale row fails before any test runs
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as copy:
        copy = Path(copy)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        if _verdict(copy, list(dict.fromkeys(t for m in MUTANTS for t in m.tests))) != "passed":
            _refuse("the unmutated tests fail, so no kill can be trusted")
        for mutant, edit in zip(MUTANTS, edits):
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(edit, encoding="utf-8")
            start = time.perf_counter()
            verdict = _verdict(copy, mutant.tests)
            target.write_text(original, encoding="utf-8")
            if verdict == "passed":
                survivors.append(mutant.name)
            label = "SURVIVED" if verdict == "passed" else f"killed ({verdict})"
            print(f"{label:20} {mutant.name}  {time.perf_counter() - start:.1f} s")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
