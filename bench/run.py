"""Benchmark of `envload run`, end to end and layer by layer.

    python3 bench/run.py --workload paper --seed 42 --seconds 30 --trace 0

Drives the public CLI entry `envload.cli.main(["run", ...])` in this one
process, on the sources under `src/` of the checkout this file sits in.
The workload seed sets `--seed`, `--split-seed` and `--cv-seed`; each
workload's remaining argv is in `workloads.json` and every workload passes
`surrogate.json`, which pins all surrogate constants.

`--trace 0` reports the end-to-end metrics: `setup_s` (a fresh interpreter
importing `envload.cli`, median of several taken before and after the timed
runs), `run_s` (median wall time of
one pipeline run, after a discarded warm-up run of at most 100 rows per
material) and `peak_rss_mb` (this process). `--trace 1` pairs untraced runs
with runs traced by `spans.py` and reports the per-layer medians of the
traced runs. Metric names and units are those of `BENCHMARK.json`.
`--workload all` runs every workload, each in its own process.

Every run's outputs are checked: exit code 0, `summary.json` invariants,
and the sha256 of every output file against `reference_sha256.json` at the
default seed (or against the first run of this process at any other seed).
The references are the `sha256sum` of each file that `envload run` writes
with the workload's argv at the default seed. A failed run counts in
`failed` and its time is left out of every metric; if any run failed, the
benchmark exits 1, and a kind of run with no correct run reports no
metrics. The last line on stdout is one JSON object; the full result, with
the environment, is also written under `.bench_out/`.

Smoke test: `python3 -m pytest bench/test_smoke.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
REFERENCES = BENCH / "reference_sha256.json"
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 42
SETUP_REPEATS = 16  # half before the timed runs, half after
WARMUP_N_PER_MATERIAL = 100
N_SUBSETS = 127  # non-empty subsets of the 7 features
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_blas_threads() -> None:
    """One process and no worker threads: BLAS must not start its own pool.
    Takes effect only before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def load_cli():
    """Import envload.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "envload" / "cli.py").is_file():
        raise BenchError(f"no envload sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import envload.cli

    if Path(envload.cli.__file__).resolve().parent != SRC / "envload":
        raise BenchError(f"imported envload from {envload.cli.__file__}, not {SRC}")
    return envload.cli


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter to finish `import envload.cli`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import envload.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"import envload.cli failed:\n{proc.stderr}")
    return times


def pipeline_argv(workload_args: list[str], seed: int, out: Path,
                  n_per_material: int | None) -> list[str]:
    argv = [
        "run", "--out", str(out),
        "--seed", str(seed), "--split-seed", str(seed), "--cv-seed", str(seed),
        "--surrogate-config", str(BENCH / "surrogate.json"),
        *workload_args,
    ]
    if n_per_material is not None:  # argparse keeps the last occurrence
        argv += ["--n-per-material", str(n_per_material)]
    return argv


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def summary_problems(out: Path, n_rows: int) -> list[str]:
    """Violated invariants of one run's summary.json and efs_accuracy.csv."""
    summary = json.loads((out / "summary.json").read_text())
    counts = summary["counts"]
    problems = []
    if counts["total"] != n_rows or sum(counts["per_class"].values()) != n_rows:
        problems.append(f"class counts {counts['per_class']} do not sum to {n_rows}")
    if counts["train"]["total"] + counts["test"]["total"] != n_rows:
        problems.append(f"train + test != {n_rows}")
    for part in ("train", "test"):
        if sum(counts[part]["per_class"].values()) != counts[part]["total"]:
            problems.append(f"{part} class counts do not sum to its total")
    efs_lines = (out / "efs_accuracy.csv").read_text().splitlines()[1:]
    if len(efs_lines) != N_SUBSETS:
        problems.append(f"efs_accuracy.csv has {len(efs_lines)} rows, not {N_SUBSETS}")
    accuracies = [float(line.rsplit(",", 2)[1]) for line in efs_lines]
    for model in summary["lda"].values():
        accuracies += [model["train_accuracy"], model["test_accuracy"]]
    if not all(0.0 <= a <= 1.0 for a in accuracies):
        problems.append("an accuracy lies outside [0, 1]")
    return problems


def file_kinds(names) -> list[str]:
    """Output file names, with the feature pair of each decision grid left
    out: which pairs are plotted depends on the data."""
    return sorted("decision_grid_*.csv" if n.startswith("decision_grid_") else n
                  for n in names)


class OutputCheck:
    """Checks one run's exit code and outputs against the expected digests:
    the pinned references if given, else those of the first correct run.
    The kinds of files written must always be those of the references."""

    def __init__(self, n_rows: int, kinds: list[str],
                 expected: dict[str, str] | None) -> None:
        self.n_rows = n_rows
        self.kinds = kinds
        self.expected = expected

    def __call__(self, code, out: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            problems = summary_problems(out, self.n_rows)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable outputs: {exc!r}"]
        digests = {p.name: sha256(p) for p in sorted(out.iterdir())}
        if file_kinds(digests) != self.kinds:
            problems.append(f"files written {sorted(digests)} are not of the "
                            f"kinds {self.kinds}")
        if self.expected is None:
            if not problems:
                self.expected = digests
        elif digests != self.expected:
            names = sorted(
                n for n in digests.keys() | self.expected.keys()
                if digests.get(n) != self.expected.get(n)
            )
            problems.append(f"outputs differ from the reference: {names}")
        return problems


def run_once(cli, argv: list[str], out: Path):
    """(exit code, wall seconds) of one `envload run` into an empty --out."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing run is a failed run, not a failed benchmark
        traceback.print_exc()
        code = "exception"
    return code, time.perf_counter() - start


def out_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Plan:
    """What one measurement of a workload runs, and how it checks each run."""

    cli: object          # the envload.cli module
    argv: list[str]
    out: Path
    check: OutputCheck
    warm_argv: list[str]
    warm_check: OutputCheck


@dataclass
class TimedRun:
    traced: bool
    seconds: float
    ok: bool                 # passed the output check
    layers: dict | None      # per-layer metrics of a traced run
    timed: bool = True       # False for the warm-up


def prepare(workload: str, seed: int, n_per_material: int | None) -> Plan:
    workloads = json.loads((BENCH / "workloads.json").read_text())
    if workload not in workloads:
        raise BenchError(f"unknown workload {workload!r}; have {sorted(workloads)}")
    cli = load_cli()
    from envload.dataset import builtin_material_library

    WORK.mkdir(exist_ok=True)
    out = WORK / f"out-{workload}-{os.getpid()}"
    argv = pipeline_argv(workloads[workload], seed, out, n_per_material)
    n = cli.build_parser().parse_args(argv).n_per_material
    n_warm = min(n, WARMUP_N_PER_MATERIAL)
    n_materials = len(builtin_material_library())
    references = json.loads(REFERENCES.read_text())[workload]
    pinned = references if seed == DEFAULT_SEED and n_per_material is None else None
    kinds = file_kinds(references)
    return Plan(
        cli, argv, out, OutputCheck(n_materials * n, kinds, pinned),
        argv + ["--n-per-material", str(n_warm)],
        OutputCheck(n_materials * n_warm, kinds, None),
    )


def measure(workload: str, seed: int, seconds: float, trace: bool,
            n_per_material: int | None = None) -> dict:
    """Run one workload for `seconds` after a warm-up run; the full result."""
    pin_blas_threads()
    plan = prepare(workload, seed, n_per_material)
    setup = [] if trace else measure_setup(SETUP_REPEATS // 2)
    tracer = Tracer() if trace else None

    problems: list[str] = []
    runs: list[TimedRun] = []
    out = plan.out

    def attempt(run: int, traced: bool, timed: bool) -> None:
        with tracer.run(run) if traced else nullcontext():
            code, elapsed = run_once(plan.cli, plan.argv if timed else plan.warm_argv, out)
        found = (plan.check if timed else plan.warm_check)(code, out)
        problems.extend(f"run {run}: {p}" for p in found)
        layers = None
        if traced:
            layers = dict(tracer.metrics(run), **{"cli.out_bytes": out_bytes(out)})
        runs.append(TimedRun(traced, elapsed, not found, layers, timed))

    try:
        # warm-up: checked, not timed. It runs at no more than paper size, which
        # warms the same code paths without adding a 60 000-row run to bulk.
        attempt(0, False, timed=False)
        start = time.perf_counter()
        run = 1
        # trace 1 pairs untraced and traced runs, alternating which goes first
        # (untraced, traced, traced, untraced, ...), with at least one of each
        while run <= (2 if trace else 1) or time.perf_counter() - start < seconds:
            attempt(run, trace and run % 4 in (2, 3), timed=True)
            run += 1
        if not trace:
            setup += measure_setup(SETUP_REPEATS - len(setup))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed = sum(not r.ok for r in runs)

    def correct_seconds(traced: bool) -> list[float]:
        return [r.seconds for r in runs if r.timed and r.ok and r.traced == traced]

    plain, traced = correct_seconds(False), correct_seconds(True)
    detail: dict[str, dict] = {}
    values: dict[str, float] = {}
    if trace:
        tracer.dump(WORK / f"trace-{workload}-seed{seed}.json")
        if plain and traced:
            detail = {"run_s": spread(plain), "traced_run_s": spread(traced)}
            pool = [r.layers for r in runs if r.traced and r.ok]
            values = {name: statistics.median(m[name] for m in pool) for name in pool[0]}
            values["trace.run_s"] = detail["traced_run_s"]["median"]
            values["trace.untraced_run_s"] = detail["run_s"]["median"]
            values["trace.overhead_s"] = values["trace.run_s"] - values["trace.untraced_run_s"]
    elif plain:
        detail = {"setup_s": spread(setup), "run_s": spread(plain)}
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
        values = {
            "setup_s": detail["setup_s"]["median"],
            "run_s": detail["run_s"]["median"],
            "peak_rss_mb": peak_kib / 1024,
        }
    # names and units as declared in BENCHMARK.json; none if no run was correct
    declared = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    } if values else {}

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": plan.argv,
        "environment": environment(),
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "error_rate": failed / len(runs),
        "problems": problems,
        "timings": detail,
        "metrics": metrics,
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, t in result["timings"].items():
        print(f"  {name + ' spread':<34} q1 {t['q1']:.6g} s  median {t['median']:.6g} s  "
              f"q3 {t['q3']:.6g} s  n {t['n']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:<14.6g} {m['unit']}")
    print(f"  {'error_rate':<34} {result['error_rate']:<14.6g} share  "
          f"({result['failed']} of {result['attempted']} runs failed)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or 'all' to run each "
                             "in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]).returncode
            for w in json.loads((BENCH / "workloads.json").read_text())
        ]
        return max(codes)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
