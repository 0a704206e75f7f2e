"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload drift-compare --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/`` and the
independent oracles from ``tests/`` of the same checkout; without them the
benchmark exits with a non-zero code and prints no result.

A run repeats whole rounds until ``--seconds`` have passed and at least two
rounds are done. A round is the set-up, the workload's job, then
``PrefixTrie`` snapshot, restore and ingest timed in turns until each has run
at least MIN_LOOP_S more. The first round's outputs are checked.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` does the same work
with every layer boundary wrapped in a span and prints the per-layer metrics
instead. The result line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the operations counted are decoded stream items.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# one thread of load: pin BLAS before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 2
MIN_LOOP_S = 1.5
IMPORT_SAMPLES = 9
MB = 1e6


def load_program():
    """Import the checkout's own ``triefusion`` and oracles; seconds spent importing."""
    src, tests = ROOT / "src", ROOT / "tests"
    needed = [src / "triefusion" / "__init__.py", tests / "metric_refs.py",
              tests / "bruteforce.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"error: not a triefusion checkout, missing {', '.join(missing)}")
    for path in (str(tests), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import triefusion
    from triefusion import cli, fusion, harness, lm, prior, trie, vocab

    if Path(triefusion.__file__).resolve().parent != src / "triefusion":
        raise SystemExit(f"error: imported triefusion from {triefusion.__file__}, not {src}")
    modules = SimpleNamespace(cli=cli, fusion=fusion, harness=harness, lm=lm, prior=prior,
                              trie=trie, vocab=vocab)
    return modules, time.perf_counter() - _PROCESS_START


def import_seconds(first_import_s: float) -> float:
    """Median import time over this process and fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(ROOT / 'src')!r}); import triefusion.cli; "
            "print(time.perf_counter() - t)")
    samples = [first_import_s]
    for _ in range(IMPORT_SAMPLES - 1):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def timed(entry: list, op, work):
    """Run ``op`` once, adding its seconds and ``work`` to ``entry``; its output."""
    start = time.perf_counter()
    output = op()
    entry[0] += time.perf_counter() - start
    entry[1] += work
    return output


def current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def run(workload: str, seed: int, seconds: float, traced: bool, size: str = "full") -> dict:
    tf, import_s = load_program()
    from tracer import CHECKS, LOOPS, ROUNDS, Tracer
    from workloads import WORKLOADS, fill

    out_dir = BENCH_DIR / "out" / size / workload / f"trace-{int(traced)}"
    wl = WORKLOADS[workload](tf, seed, size, out_dir / "outputs")
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install(tf)

    def phase(value):
        if tracer:
            tracer.phase = value

    rounds = []  # (setup_s, round_s, pass_s, tokens, items, digest)
    loops = {name: [0.0, 0] for name in ("snapshot", "restore", "ingest")}  # seconds, work
    failures = []
    roundtrips_ok = True
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        first = not rounds
        phase(ROUNDS)
        t0 = time.perf_counter()
        state = wl.setup()
        t1 = time.perf_counter()
        result = wl.job(state)
        t2 = time.perf_counter()
        round_s = t2 - (t0 if wl.wall_includes_setup else t1)
        rounds.append((t1 - t0, round_s, result.pass_s, result.tokens, result.items,
                       result.evidence["digest"]))
        phase(CHECKS)
        if first:
            failures += wl.check(result.evidence)
        tries = wl.final_tries(state, result)
        corpus = wl.corpus(state)
        # the timing loops run without the job's evidence and set-up state
        state = result = None

        # Every round times snapshot, restore and ingest in turns, so that
        # each rate is spread over the same stretch of the run as the others.
        # After the final tries' own snapshot, snapshot is timed on their
        # restored copies (the same bytes), so that no other trie is alive
        # while restore or ingest runs.
        phase(LOOPS)
        originals = [(t.stats(), t.last_timestamp) for t in tries]
        payloads = timed(loops["snapshot"], lambda: [t.snapshot() for t in tries], 0)
        tries = None
        payload_bytes = sum(len(b) for b in payloads)
        loops["snapshot"][1] += payload_bytes
        sequences = sum(len(group) for group in corpus)
        until = {name: loops[name][0] + MIN_LOOP_S for name in loops}
        while any(loops[name][0] < until[name] for name in loops):
            rss_before = current_rss_bytes()
            restored = timed(loops["restore"],
                             lambda: [tf.trie.PrefixTrie.restore(b) for b in payloads],
                             payload_bytes)
            if first:
                nodes = sum(t.stats().node_count for t in restored)
                bytes_per_node = (current_rss_bytes() - rss_before) / nodes
                first = False
            copies = [(t.stats(), t.last_timestamp) for t in restored]
            again = timed(loops["snapshot"], lambda: [t.snapshot() for t in restored],
                          payload_bytes)
            restored = None
            roundtrips_ok &= again == payloads and copies == originals
            if loops["ingest"][0] < until["ingest"]:
                timed(loops["ingest"], lambda: [fill(tf, group) for group in corpus], sequences)
        payloads = corpus = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    # set-up is timed in every round; cheap set-ups are repeated until
    # MIN_LOOP_S of it has been timed, so that its median is steady
    phase(CHECKS)
    setups = [r[0] for r in rounds]
    while sum(setups) < MIN_LOOP_S:
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    import_s = import_seconds(import_s)

    if not roundtrips_ok:
        failures.append("snapshot(restore(b)) != b, or restore lost the trie's stats")
    if len({r[5] for r in rounds}) != 1:
        failures.append("outputs differ between rounds of the same run")
    failures += _compare_with_other_mode(out_dir, seed, traced, rounds[0][5])
    for failure in failures:
        print(f"CHECK FAILED [{workload}]: {failure}", file=sys.stderr)

    setup_s = import_s + statistics.median(setups)
    wall_s = import_s + statistics.median(r[1] for r in rounds)
    if tracer:
        tracer.write(out_dir / "spans.jsonl")
        metrics = tracer.layer_metrics(len(rounds))
        metrics["trie.nodes"] = (nodes, "count")
        metrics["trie.snapshot_bytes"] = (payload_bytes, "B")
        metrics["trie.bytes_per_node"] = (bytes_per_node, "B")
        metrics["trace.wall_s"] = (wall_s, "s")
    else:
        def rate(name, scale=1.0):
            seconds_, work = loops[name]
            return work / scale / seconds_

        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "tokens_per_s": (sum(r[3] for r in rounds) / sum(r[2] for r in rounds), "tok/s"),
            "ingest_seq_per_s": (rate("ingest"), "seq/s"),
            "snapshot_mb_per_s": (rate("snapshot", MB), "MB/s"),
            "restore_mb_per_s": (rate("restore", MB), "MB/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not failures,
        "attempted": sum(r[4] for r in rounds),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _compare_with_other_mode(out_dir: Path, seed: int, traced: bool, digest: str) -> list[str]:
    """Outputs must be byte-identical with and without tracing, for the same seed."""
    (out_dir / "digest.json").write_text(json.dumps({"seed": seed, "digest": digest}))
    other = out_dir.parent / f"trace-{int(not traced)}" / "digest.json"
    if not other.is_file():
        return []
    recorded = json.loads(other.read_text())
    if recorded["seed"] == seed and recorded["digest"] != digest:
        return ["outputs differ between the traced and the untraced run"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("drift-compare", "wide-vocab", "large-trie"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
