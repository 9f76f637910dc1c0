"""Peak RSS of `envload run` from two source trees, one fresh process each.

    python3 tools/peak_rss.py PARENT/src src --procs 10 --runs 1 -- \
        --n-per-material 10000

A and B are `src/` directories. The tool starts --procs processes per side,
alternating which side goes first, and each runs `envload run` exactly
--runs times (imported with `load_tree` and run with `run_once` from
tools/ab_runs.py) and reports its `ru_maxrss`. Every process runs the same
number of runs, so a faster side does not read a higher peak by fitting
more runs into a timed window, as a peak taken after a fixed number of
seconds does. The options after `--` are passed to `envload run`; the tool
adds `--out`.

Every run must exit 0, and both sides must write the same files with the
same sha256; otherwise the tool exits 1. It prints each side's median
`ru_maxrss` in MiB with quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_runs import BLAS_THREAD_VARS, load_tree, run_once


def _child(src: Path, runs: int, run_args: list[str], out: Path) -> None:
    """Run `envload run` runs times and print one JSON line: the exit codes,
    the digests of the last run and this process's ru_maxrss in KiB."""
    modules = load_tree(src)
    codes, digests = [], {}
    for _ in range(runs):
        code, _, digests = run_once(modules, run_args, out)
        codes.append(code)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"codes": codes, "digests": digests, "peak_kib": peak_kib}))


def _spawn(src: Path, runs: int, run_args: list[str], out: Path) -> dict:
    """The JSON line of one child process; a child that fails reports exit code -1."""
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--runs", str(runs),
         "--out", str(out), "--", *run_args],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr, end="")
        return {"codes": [-1]}
    return json.loads(proc.stdout.splitlines()[-1])


def _summary(label: str, src: Path, peaks: list[float], runs: int) -> str:
    q1, median, q3 = statistics.quantiles(peaks, n=4)
    return (f"{label} {src}: median {median:.1f} MiB (quartiles {q1:.1f}-{q3:.1f}) "
            f"of {len(peaks)} processes, {runs} runs each")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     usage="%(prog)s A B [--procs N] [--runs N] "
                                           "[-- RUN_OPTION ...]")
    parser.add_argument("a", type=Path, nargs="?", help="src/ directory of side A")
    parser.add_argument("b", type=Path, nargs="?", help="src/ directory of side B")
    parser.add_argument("--procs", type=int, default=10, help="processes per side")
    parser.add_argument("--runs", type=int, default=1, help="runs per process")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    run_args = argv[split + 1:]
    if args.child:
        _child(args.child, args.runs, run_args, args.out)
        return 0
    if args.a is None or args.b is None:
        parser.error("need the src/ directories of sides A and B")
    if args.procs < 2 or args.runs < 1:
        parser.error(f"need --procs >= 2 and --runs >= 1, got {args.procs} and {args.runs}")
    for var in BLAS_THREAD_VARS:  # inherited by every process: no BLAS thread pool
        os.environ[var] = "1"

    srcs = [args.a.resolve(), args.b.resolve()]
    peaks: list[list[float]] = [[], []]
    reference: dict = {}  # the digests of the first process
    with tempfile.TemporaryDirectory(prefix="peak_rss_") as tmp:
        for proc in range(args.procs):
            for side in (0, 1) if proc % 2 == 0 else (1, 0):
                result = _spawn(srcs[side], args.runs, run_args, Path(tmp) / f"p{proc}{side}")
                if any(result["codes"]):
                    print(f"process {proc}, side {'AB'[side]}: exit codes {result['codes']}",
                          file=sys.stderr)
                    return 1
                peaks[side].append(result["peak_kib"] / 1024)
                digests = result["digests"]
                reference = reference or digests
                if digests != reference:
                    differ = sorted(n for n in digests.keys() | reference.keys()
                                    if digests.get(n) != reference.get(n))
                    print(f"process {proc}, side {'AB'[side]}: outputs differ: "
                          f"{', '.join(differ)}", file=sys.stderr)
                    return 1
    print(_summary("A", args.a, peaks[0], args.runs))
    print(_summary("B", args.b, peaks[1], args.runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
