"""Span tracer that times envload's layers from outside the package.

Each traced name is replaced, for the length of one pipeline run, by a
wrapper installed where its caller looks it up: `envload.cli.read_dataset`
rather than `envload.dataset.read_dataset`, because the CLI bound the name
at import. Wrappers record spans (name, start, end, parent) in memory and
bump counters; `Tracer.run` removes every wrapper when the run ends, so
untraced runs execute the unmodified code.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

STAGES = ("generate", "simulate", "label", "split", "pca", "efs", "train")


@dataclass
class Span:
    run: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _count_read(counts, args, result):
    counts["dataset.rows_read"] += len(result)


def _count_write(counts, args, result):
    counts["dataset.rows_written"] += len(args[0])
    counts["dataset.bytes_written"] += os.path.getsize(args[1])


def _count_generated(counts, args, result):
    counts["sampling.rows"] += len(result)


def _count_efs(counts, args, result):
    counts["efs.subsets"] += len(result.all_results)
    counts["efs.fit_failed"] += sum(r.fit_failed for r in result.all_results)


def _count_predicted(counts, args, result):
    # every row through predict_many: accuracies, cv5 held-out rows and grid points
    counts["lda.predict_rows"] += len(result)


def _count_grid(counts, args, result):
    counts["lda.grid_points"] += len(result)


def _traced_names():
    """(module, attribute, span name, counter hook) for every wrapped call site."""
    import envload.cli as cli
    import envload.efs as efs
    import envload.lda as lda
    import envload.pca as pca

    sites = [
        (cli, "read_dataset", "dataset.read_dataset", _count_read),
        (cli, "write_dataset", "dataset.write_dataset", _count_write),
        (cli, "generate_dataset", "sampling.generate_dataset", _count_generated),
        (cli, "simulate_dataset", "surrogate.simulate_dataset", None),
        (cli, "label_dataset", "preprocess.label_dataset", None),
        (cli, "split", "preprocess.split", None),
        (cli, "fit_normalizer", "preprocess.fit_normalizer", None),
        (cli, "apply_normalizer", "preprocess.apply_normalizer", None),
        (pca, "fit_pca", "pca.fit_pca", None),
        (pca, "project", "pca.project", None),
        (pca, "jacobi_eigen", "numerics.jacobi_eigen", None),
        (efs, "run_efs", "efs.run_efs", _count_efs),
        (efs, "fit_lda", "lda.fit_lda", None),
        (efs, "predict_many", "lda.predict_many", _count_predicted),
        (lda, "fit_lda", "lda.fit_lda", None),
        (lda, "predict_many", "lda.predict_many", _count_predicted),
        (lda, "decision_grid", "lda.decision_grid", _count_grid),
    ]
    sites += [(cli, f"stage_{s}", f"cli.stage_{s}", None) for s in STAGES]
    return sites


class Tracer:
    """Spans and counters of every traced run, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: dict[int, list[Span]] = {}  # run -> its spans, in end order
        self.counts: dict[int, Counter] = {}
        self._epoch = time.perf_counter()
        self._stack: list[int] = []
        self._next_id = 0

    def _span(self, run: int, name: str, fn, hook):
        counts, spans = self.counts[run], self.spans[run]

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spans.append(
                    Span(run, sid, parent, name, start - self._epoch, end - self._epoch)
                )
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    @contextmanager
    def run(self, run: int):
        """Trace one pipeline run: install the wrappers, then restore the originals."""
        import envload.lda as lda
        import envload.sampling as sampling

        counts = self.counts[run] = Counter()
        self.spans[run] = []
        originals = []

        def patch(owner, attr, replacement):
            originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for owner, attr, name, hook in _traced_names():
            patch(owner, attr, self._span(run, name, getattr(owner, attr), hook))

        next_gaussian = sampling.Xoshiro256pp.next_gaussian

        def counted_gaussian(rng):
            counts["sampling.gaussians"] += 1
            return next_gaussian(rng)

        factor = lda.CholeskyFactor

        def counted_factor(*args, **kwargs):
            counts["numerics.cholesky.attempts"] += 1
            result = factor(*args, **kwargs)
            counts["numerics.cholesky.ok"] += 1
            return result

        patch(sampling.Xoshiro256pp, "next_gaussian", counted_gaussian)
        patch(lda, "CholeskyFactor", counted_factor)
        try:
            yield counts
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self._stack.clear()

    def metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run, derived from its spans and counts."""
        spans = self.spans[run]
        counts = self.counts[run]
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            total[s.name] += s.end - s.start
            calls[s.name] += 1
            if s.parent is not None:
                children[s.parent].append(s)

        m = {
            "dataset.read_dataset.s": total["dataset.read_dataset"],
            "dataset.read_dataset.calls": calls["dataset.read_dataset"],
            "dataset.write_dataset.s": total["dataset.write_dataset"],
            "dataset.rows_read": counts["dataset.rows_read"],
            "dataset.rows_written": counts["dataset.rows_written"],
            "dataset.bytes_written": counts["dataset.bytes_written"],
            "sampling.generate_dataset.s": total["sampling.generate_dataset"],
            "sampling.gaussians": counts["sampling.gaussians"],
            "sampling.accept_ratio": _ratio(
                counts["sampling.rows"] * 7, counts["sampling.gaussians"]
            ),
            "surrogate.simulate_dataset.s": total["surrogate.simulate_dataset"],
            "preprocess.label_dataset.s": total["preprocess.label_dataset"],
            "preprocess.split.s": total["preprocess.split"],
            "preprocess.normalize.s": total["preprocess.fit_normalizer"]
            + total["preprocess.apply_normalizer"],
            "pca.fit_pca.s": total["pca.fit_pca"],
            "pca.project.s": total["pca.project"],
            "numerics.jacobi_eigen.s": total["numerics.jacobi_eigen"],
            "efs.run_efs.s": total["efs.run_efs"],
            "efs.subsets": counts["efs.subsets"],
            "efs.fit_failed": counts["efs.fit_failed"],
            "lda.fit_lda.s": total["lda.fit_lda"],
            "lda.fit_lda.calls": calls["lda.fit_lda"],
            "lda.predict_rows": counts["lda.predict_rows"],
            "numerics.cholesky.attempts": counts["numerics.cholesky.attempts"],
            "numerics.cholesky.ok_ratio": _ratio(
                counts["numerics.cholesky.ok"], counts["numerics.cholesky.attempts"]
            ),
            "lda.decision_grid.s": total["lda.decision_grid"],
            "lda.grid_points": counts["lda.grid_points"],
        }
        for stage in STAGES:
            name = f"cli.stage_{stage}"
            m[f"{name}.s"] = total[name]
            m[f"{name}.self_s"] = sum(
                s.end - s.start - _covered(s, children[s.id]) for s in spans if s.name == name
            )
        return m

    def dump(self, path) -> None:
        import json

        with open(path, "w") as fh:
            json.dump([asdict(s) for spans in self.spans.values() for s in spans], fh)
            fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of span's interval that its children cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered
