"""Exhaustive wrapper feature selection over an LDA classifier.

Every feature subset is scored in enumeration order, that of SUBSETS: size
ascending, then lexicographic. The class means and within-class scatter of
all 7 features are computed once per training matrix: once for the train
metric, once per fold for cv5. Each subset's LDA is fit from a slice of
them, so no subset re-reads the training rows. The subsets of one size are
fit as one stacked LDA and scored in one pass, so a training matrix takes 7
fits, not 127. A subset whose LDA fit fails scores 0 with a diagnostic flag
instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Sequence

import numpy as np

from .dataset import Dataset, FeatureId, N_FEATURES
from .lda import class_stats, fit_lda, predict_many
from .sampling import Xoshiro256pp, check_seed

METRIC_TRAIN = "train_accuracy"
METRIC_CV5 = "cv5"
CV_FOLDS = 5
# Every non-empty subset of the feature indices, in enumeration order.
SUBSETS = tuple(cols for size in range(1, N_FEATURES + 1)
                for cols in combinations(range(N_FEATURES), size))


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[FeatureId, ...]   # in canonical order
    metric_value: float             # of EfsReport.metric_kind
    fit_failed: bool

    def subset_names(self) -> str:
        return "+".join(f.column_name for f in self.subset)


@dataclass(frozen=True)
class EfsReport:
    all_results: tuple[SubsetResult, ...]  # enumeration order
    best_per_size: dict[int, SubsetResult]
    overall_best: SubsetResult
    metric_kind: str


def _cv_fold_ids(n: int, seed: int) -> np.ndarray:
    """Deterministic fold assignment: shuffled indices cut into CV_FOLDS
    near-equal contiguous chunks."""
    order = Xoshiro256pp(seed).shuffled(list(range(n)))
    base, extra = divmod(n, CV_FOLDS)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[order] = np.repeat(np.arange(CV_FOLDS), [base + (f < extra) for f in range(CV_FOLDS)])
    return fold_of


def _pooled_accuracies(
    subsets: Sequence[tuple[int, ...]],
    x: np.ndarray,
    y: np.ndarray,
    folds: Sequence[tuple[np.ndarray | slice, np.ndarray | slice]],
) -> list[tuple[float, bool]]:
    """(accuracy, fit failed) per subset. For each (fit rows, scored rows) of
    folds, every subset is fit on the fit rows and its correct predictions on
    the scored rows are counted; accuracy is the total over all len(y) rows.
    A subset whose fit fails in any fold scores 0.

    The subsets of one size are fit as one stacked model and scored in one
    predict_many pass."""
    stacks, start = [], 0
    for _, same_size in groupby(subsets, key=len):
        cols = np.array(list(same_size))
        stacks.append((slice(start, start + len(cols)), cols))
        start += len(cols)
    correct = np.zeros(len(subsets), dtype=np.int64)
    failed = np.zeros(len(subsets), dtype=bool)
    for fit_rows, scored_rows in folds:
        try:
            stats = class_stats(x[fit_rows], y[fit_rows])
        except ValueError:
            return [(0.0, True)] * len(subsets)
        x_scored, y_scored = x[scored_rows], y[scored_rows]
        for members, cols in stacks:
            model = fit_lda(stats, cols)
            hits = predict_many(model, x_scored) == y_scored[:, None]
            correct[members] += np.count_nonzero(hits, axis=0)
            failed[members] |= model.failed
    return [(0.0, True) if f else (c / len(y), False)
            for c, f in zip(correct.tolist(), failed.tolist())]


def run_efs(
    train: Dataset,
    metric: str = METRIC_TRAIN,
    cv_seed: int = 42,
) -> EfsReport:
    """Evaluate LDA on every non-empty feature subset of the training set."""
    if metric not in (METRIC_TRAIN, METRIC_CV5):
        raise ValueError(f"unknown metric {metric!r}")
    check_seed(cv_seed, "cv_seed")
    y = train.labels
    if y is None:
        raise ValueError("training set must be labeled")
    if len(np.unique(y)) < 2:
        raise ValueError("need at least 2 classes for the sweep")
    x = train.features

    if metric == METRIC_TRAIN:
        folds = [(slice(None), slice(None))]  # fit and score on every row
    else:
        fold_of = _cv_fold_ids(len(y), cv_seed)
        folds = [(fold_of != f, fold_of == f) for f in range(CV_FOLDS)]
    results = [
        SubsetResult(tuple(FeatureId(i) for i in cols), value, failed)
        for cols, (value, failed) in zip(SUBSETS, _pooled_accuracies(SUBSETS, x, y, folds))
    ]
    return build_report(results, metric)


def build_report(results: Sequence[SubsetResult], metric: str) -> EfsReport:
    """Report over results in enumeration order: the best subset of each size
    and overall, where a tie goes to the subset enumerated first."""
    best_per_size: dict[int, SubsetResult] = {}
    overall_best: SubsetResult | None = None
    for result in results:
        current = best_per_size.get(len(result.subset))
        if current is None or result.metric_value > current.metric_value:
            best_per_size[len(result.subset)] = result
        if overall_best is None or result.metric_value > overall_best.metric_value:
            overall_best = result
    if overall_best is None:
        raise ValueError("no subset results to report")
    return EfsReport(tuple(results), best_per_size, overall_best, metric)
