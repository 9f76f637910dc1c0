"""Exhaustive wrapper feature selection over an LDA classifier.

Every feature subset is evaluated independently on a shared read-only
training matrix, so the sweep can run on a thread pool; results are always
assembled in enumeration order (size ascending, then lexicographic), making
sequential and parallel runs identical. A subset whose LDA fit fails scores
0 with a diagnostic flag instead of aborting the sweep.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .dataset import Dataset, FeatureId, N_FEATURES
from .lda import accuracy, fit_lda, predict_many
from .numerics import ConvergenceError, NotPositiveDefiniteError
from .sampling import Xoshiro256pp

METRIC_TRAIN = "train_accuracy"
METRIC_CV5 = "cv5"
CV_FOLDS = 5


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[FeatureId, ...]   # in canonical order
    size: int
    metric_value: float
    metric_kind: str
    fit_failed: bool = False

    def subset_names(self) -> str:
        return "+".join(f.column_name for f in self.subset)


@dataclass(frozen=True)
class EfsReport:
    all_results: tuple[SubsetResult, ...]  # enumeration order
    best_per_size: dict[int, SubsetResult]
    overall_best: SubsetResult
    metric_kind: str


def enumerate_subsets(p: int, min_size: int, max_size: int) -> list[tuple[int, ...]]:
    """All index subsets with sizes in [min_size, max_size], size ascending
    then lexicographic."""
    if not 1 <= min_size <= max_size <= p:
        raise ValueError(
            f"need 1 <= min_size <= max_size <= {p}, got ({min_size}, {max_size})"
        )
    out: list[tuple[int, ...]] = []
    for size in range(min_size, max_size + 1):
        out.extend(combinations(range(p), size))
    return out


def _cv_fold_ids(n: int, seed: int) -> np.ndarray:
    """Deterministic fold assignment: shuffled indices cut into CV_FOLDS
    near-equal contiguous chunks."""
    order = Xoshiro256pp(seed).shuffled(list(range(n)))
    base, extra = divmod(n, CV_FOLDS)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.repeat(np.arange(CV_FOLDS), [base + (f < extra) for f in range(CV_FOLDS)])
    return fold_of


_FIT_ERRORS = (ValueError, NotPositiveDefiniteError, ConvergenceError)


def _evaluate_subset(
    cols: tuple[int, ...],
    x: np.ndarray,
    y: np.ndarray,
    metric: str,
    fold_of: np.ndarray | None,
) -> tuple[float, bool]:
    xs = x[:, cols]
    if metric == METRIC_TRAIN:
        try:
            model = fit_lda(xs, y)
            return accuracy(model, xs, y), False
        except _FIT_ERRORS:
            return 0.0, True
    # pooled k-fold accuracy: correct held-out predictions over all rows
    assert fold_of is not None
    correct = 0
    for fold in range(CV_FOLDS):
        held_out = fold_of == fold
        try:
            model = fit_lda(xs[~held_out], y[~held_out])
        except _FIT_ERRORS:
            return 0.0, True
        correct += int(np.count_nonzero(predict_many(model, xs[held_out]) == y[held_out]))
    return correct / len(y), False


def run_efs(
    train: Dataset,
    metric: str = METRIC_TRAIN,
    cv_seed: int = 42,
    n_jobs: int = 1,
) -> EfsReport:
    """Evaluate LDA on every non-empty feature subset of the training set."""
    if metric not in (METRIC_TRAIN, METRIC_CV5):
        raise ValueError(f"unknown metric {metric!r}")
    y = train.labels
    if y is None:
        raise ValueError("training set must be labeled")
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes for the sweep")
    x = train.features

    fold_of = _cv_fold_ids(len(y), cv_seed) if metric == METRIC_CV5 else None
    subsets = enumerate_subsets(N_FEATURES, 1, N_FEATURES)

    def task(cols: tuple[int, ...]) -> tuple[float, bool]:
        return _evaluate_subset(cols, x, y, metric, fold_of)

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            outcomes = list(pool.map(task, subsets))
    else:
        outcomes = [task(cols) for cols in subsets]

    return build_report(
        [
            SubsetResult(
                subset=tuple(FeatureId(i) for i in cols),
                size=len(cols),
                metric_value=value,
                metric_kind=metric,
                fit_failed=failed,
            )
            for cols, (value, failed) in zip(subsets, outcomes)
        ],
        metric,
    )


def build_report(results: Sequence[SubsetResult], metric: str) -> EfsReport:
    """Report over results in enumeration order: the best subset of each size
    and overall, where a tie goes to the subset enumerated first."""
    best_per_size: dict[int, SubsetResult] = {}
    overall_best: SubsetResult | None = None
    for result in results:
        current = best_per_size.get(result.size)
        if current is None or result.metric_value > current.metric_value:
            best_per_size[result.size] = result
        if overall_best is None or result.metric_value > overall_best.metric_value:
            overall_best = result
    if overall_best is None:
        raise ValueError("no subset results to report")
    return EfsReport(tuple(results), best_per_size, overall_best, metric)
