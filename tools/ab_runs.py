"""Time `envload run` from two source trees, alternating in one process.

    python3 tools/ab_runs.py PARENT/src src --pairs 40 -- \
        --n-per-material 100

A and B are `src/` directories. Each side's `envload` package is imported
once, with `sys.modules` cleared of the other side's, and is put back into
`sys.modules` before each of its runs. After one untimed warm-up run per
side, each pair runs both sides, alternating which goes first. The options
after `--` are passed to `envload run`; the tool adds `--out`.

Every run must exit 0, and in each pair both sides must write the same files
with the same sha256; otherwise the tool exits 1. It prints each side's
median and quartiles of the wall time of `main`, the median and quartiles
of the per-pair difference B - A, and the number of pairs in which B was
faster. A gain of 1 % shows more clearly in the paired differences than as
the gap between two medians. One process pays the interpreter and numpy start-up
once, so pairs vary far less than pairs of processes do; it supplements
`bench/run.py` and does not replace it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HASH_BLOCK = 1 << 20  # bytes read at a time to hash an output


def _is_envload(name: str) -> bool:
    return name == "envload" or name.startswith("envload.")


def load_tree(src: Path) -> dict:
    """The envload modules of one source tree, imported with no other
    envload module in sys.modules."""
    for name in [n for n in sys.modules if _is_envload(n)]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        import envload.cli
    finally:
        sys.path.remove(str(src))
    if Path(envload.cli.__file__).resolve().parent != (src / "envload").resolve():
        raise SystemExit(f"imported envload from {envload.cli.__file__}, not {src}")
    return {n: m for n, m in sys.modules.items() if _is_envload(n)}


def run_once(modules: dict, argv: list[str], out: Path) -> tuple[int, float, dict]:
    """Exit code, wall seconds and sha256 by file name of one `envload run`."""
    for name in [n for n in sys.modules if _is_envload(n)]:
        del sys.modules[name]
    sys.modules.update(modules)
    if out.exists():
        for path in out.iterdir():
            path.unlink()
    gc.collect()
    start = time.perf_counter()
    code = modules["envload.cli"].main(["run", *argv, "--out", str(out)])
    elapsed = time.perf_counter() - start
    return code, elapsed, {p.name: sha256_of(p) for p in out.iterdir()}


def sha256_of(path: Path) -> str:
    """The sha256 of a file, read 1 MiB at a time, so that hashing an output
    adds no more than that to the peak memory of the process."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def _quartiles(times: list[float]) -> str:
    q1, median, q3 = (1e3 * q for q in statistics.quantiles(times, n=4))
    return f"median {median:.1f} ms (quartiles {q1:.1f} to {q3:.1f}) of {len(times)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     usage="%(prog)s A B [--pairs N] [-- RUN_OPTION ...]")
    parser.add_argument("a", type=Path, help="src/ directory of side A")
    parser.add_argument("b", type=Path, help="src/ directory of side B")
    parser.add_argument("--pairs", type=int, default=20)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    run_args = argv[split + 1:]
    if args.pairs < 2:
        parser.error(f"--pairs must be >= 2, got {args.pairs}")
    for var in BLAS_THREAD_VARS:  # before numpy is imported: no BLAS thread pool
        os.environ[var] = "1"

    sides = [load_tree(args.a), load_tree(args.b)]
    times: list[list[float]] = [[], []]
    b_won = 0
    with tempfile.TemporaryDirectory(prefix="ab_runs_") as tmp:
        outs = [Path(tmp) / "a", Path(tmp) / "b"]
        for pair in range(-1, args.pairs):  # pair -1 is the warm-up
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            results = {}
            for side in order:
                results[side] = run_once(sides[side], run_args, outs[side])
            codes = [results[s][0] for s in (0, 1)]
            name = f"pair {pair}" if pair >= 0 else "warm-up"
            if codes != [0, 0]:
                print(f"{name}: exit codes A {codes[0]}, B {codes[1]}", file=sys.stderr)
                return 1
            (_, time_a, digests_a), (_, time_b, digests_b) = results[0], results[1]
            if digests_a != digests_b:
                differ = sorted(n for n in digests_a.keys() | digests_b.keys()
                                if digests_a.get(n) != digests_b.get(n))
                print(f"{name}: outputs differ: {', '.join(differ)}", file=sys.stderr)
                return 1
            if pair >= 0:
                times[0].append(time_a)
                times[1].append(time_b)
                b_won += time_b < time_a
    print(f"A {args.a}: {_quartiles(times[0])}")
    print(f"B {args.b}: {_quartiles(times[1])}")
    print(f"B - A per pair: {_quartiles([b - a for a, b in zip(*times)])}")
    print(f"B faster in {b_won} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
