"""Fast self-test of the benchmark, at a tiny input size.

    python3 bench/selftest.py        # from the repository root, about a minute

For every workload and two seeds it makes an untraced and a traced run and
requires that every check passes, that each run prints exactly the metrics
``BENCHMARK.json`` names for its mode, and that the program's outputs are
byte-identical with and without tracing. It then hands each workload's
checks outputs with one planted defect and requires them to fail, and runs
the benchmark in a directory that holds only the benchmark, where it must
exit non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (1, 2)
SIZE = "tiny"


def check_runs(spec: dict) -> list[str]:
    problems = []
    expected = {False: {m["name"] for m in spec["end_to_end"]},
                True: {m["name"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            digests = {}
            for traced in (False, True):
                result = run.run(workload, seed, 0.0, traced, SIZE)
                tag = f"{workload} seed {seed} trace {int(traced)}"
                if not result["correct"]:
                    problems.append(f"{tag}: checks failed")
                if set(result["metrics"]) != expected[traced]:
                    problems.append(f"{tag}: metrics {sorted(result['metrics'])} "
                                    f"!= {sorted(expected[traced])}")
                if not result["attempted"] >= 1 or result["failed"] != 0:
                    problems.append(f"{tag}: attempted {result['attempted']}, "
                                    f"failed {result['failed']}")
                out = run.BENCH_DIR / "out" / SIZE / workload / f"trace-{int(traced)}"
                digests[traced] = json.loads((out / "digest.json").read_text())["digest"]
            if digests[False] != digests[True]:
                problems.append(f"{workload} seed {seed}: outputs differ with tracing")
    return problems


def check_planted_defects() -> list[str]:
    """Each check must reject outputs with one known defect."""
    import checks
    from workloads import WORKLOADS

    tf, _ = run.load_program()
    problems = []
    scratch = run.BENCH_DIR / "out" / SIZE / "planted"

    compare = WORKLOADS["drift-compare"](tf, SEEDS[0], SIZE, scratch / "compare")
    evidence = compare.job(compare.setup()).evidence
    abrupt = evidence["dirs"][0]
    scenario = tf.cli.load_scenario(compare.sources[0])
    summary_path = abrupt / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["strategies"][0]["means"]["rouge_l"] += 1e-6
    summary_path.write_text(json.dumps(summary))
    if not checks.compare_outputs(abrupt, tf.cli.STRATEGY_ORDER, scenario):
        problems.append("drift-compare: a shifted summary mean passed")

    wide = WORKLOADS["wide-vocab"](tf, SEEDS[0], SIZE, scratch / "wide")
    evidence = wide.job(wide.setup()).evidence
    greedy = evidence["records"]["greedy"]
    first = greedy[0]
    flipped = (first.generated[0] + 1,) + first.generated[1:]
    greedy[0] = dataclasses.replace(first, generated=flipped)
    if not wide.check(evidence):
        problems.append("wide-vocab: a greedy token off the n-gram argmax passed")

    large = WORKLOADS["large-trie"](tf, SEEDS[0], SIZE, scratch / "large")
    evidence = large.job(large.setup()).evidence
    records = evidence["records"]
    for index, record in enumerate(records):
        for step, prior in enumerate(record.priors):
            if prior is not None and len(prior) > 1:
                (t0, p0), (t1, p1) = prior[0], prior[1]
                moved = ((t0, p0 + 1e-9), (t1, p1 - 1e-9)) + prior[2:]
                priors = record.priors[:step] + (moved,) + record.priors[step + 1:]
                records[index] = dataclasses.replace(record, priors=priors)
                break
        else:
            continue
        break
    # the planted step has to be among the sampled ones: check every step
    checks.PRIOR_SAMPLES, saved = 10**9, checks.PRIOR_SAMPLES
    try:
        if not large.check(evidence):
            problems.append("large-trie: a prior off by 1e-9 passed")
    finally:
        checks.PRIOR_SAMPLES = saved
    return problems


def check_bare_directory() -> list[str]:
    """Without the program next to it, the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR / "out") as bare:
        bare = Path(bare)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "drift-compare", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    run.MIN_LOOP_S = 0.05  # the timing loops only need to run, not to time well
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    (run.BENCH_DIR / "out").mkdir(exist_ok=True)
    problems = check_bare_directory() + check_runs(spec) + check_planted_defects()
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
