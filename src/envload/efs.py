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
from itertools import combinations
from operator import attrgetter
from typing import Sequence

import numpy as np

from .dataset import FEATURE_COLUMNS, Dataset, FeatureId, N_FEATURES
from .lda import class_stats, fit_lda, predict_many
from .sampling import Xoshiro256pp, check_seed

METRIC_TRAIN = "train_accuracy"
METRIC_CV5 = "cv5"
CV_FOLDS = 5
# The subsets of each size s as one (C, s) array of feature indices, fit as
# one stacked LDA; SUBSETS is every non-empty subset, in enumeration order.
_STACKS = tuple(np.array(list(combinations(range(N_FEATURES), size)))
                for size in range(1, N_FEATURES + 1))
SUBSETS = tuple(tuple(cols) for stack in _STACKS for cols in stack.tolist())


@dataclass(frozen=True)
class SubsetResult:
    subset: tuple[FeatureId, ...]   # in canonical order
    metric_value: float             # of EfsReport.metric_kind
    fit_failed: bool

    def subset_names(self) -> str:
        return "+".join([FEATURE_COLUMNS[f] for f in self.subset])


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
    x: np.ndarray, y: np.ndarray, folds: Sequence[tuple[np.ndarray | slice, np.ndarray | slice]]
) -> list[tuple[float, bool]]:
    """(accuracy, fit failed) per subset of SUBSETS. For each (fit rows,
    scored rows) of folds, every subset is fit on the fit rows and its
    correct predictions on the scored rows are counted; accuracy is the
    total over all len(y) rows. A subset whose fit fails in any fold scores 0.

    The subsets of one size are fit as one stacked model and scored in one
    predict_many pass."""
    correct, failed = [0] * len(_STACKS), [False] * len(_STACKS)  # summed per stack
    for fit_rows, scored_rows in folds:
        try:
            stats = class_stats(x[fit_rows], y[fit_rows])
        except ValueError:
            return [(0.0, True)] * len(SUBSETS)
        x_scored, y_scored = x[scored_rows], y[scored_rows]
        for k, cols in enumerate(_STACKS):
            model = fit_lda(stats, cols)
            hits = predict_many(model, x_scored) == y_scored[:, None]
            correct[k] += np.count_nonzero(hits, axis=0)
            failed[k] |= model.failed
    return [(0.0, True) if f else (c / len(y), False)
            for c, f in zip(np.concatenate(correct).tolist(), np.concatenate(failed).tolist())]


def run_efs(train: Dataset, metric: str = METRIC_TRAIN, cv_seed: int = 42) -> EfsReport:
    """Evaluate LDA on every non-empty feature subset of the training set."""
    if metric not in (METRIC_TRAIN, METRIC_CV5):
        raise ValueError(f"unknown metric {metric!r}")
    check_seed(cv_seed, "cv_seed")
    y = train.labels
    if y is None:
        raise ValueError("training set must be labeled")
    # np.unique would import numpy.ma on its first call: 14 ms, mid-run
    if np.count_nonzero(np.bincount(y)) < 2:
        raise ValueError("need at least 2 classes for the sweep")
    x = train.features

    if metric == METRIC_TRAIN:
        folds = [(slice(None), slice(None))]  # fit and score on every row
    else:
        fold_of = _cv_fold_ids(len(y), cv_seed)
        folds = [(fold_of != f, fold_of == f) for f in range(CV_FOLDS)]
    features = tuple(FeatureId)  # indexed, as FeatureId(i) costs a lookup per call
    results = tuple(
        SubsetResult(tuple([features[i] for i in cols]), value, failed)
        for cols, (value, failed) in zip(SUBSETS, _pooled_accuracies(x, y, folds))
    )
    # the best subset of each size and overall; max keeps the first of a tie,
    # the subset enumerated first
    best = attrgetter("metric_value")
    best_per_size = {size: max((r for r in results if len(r.subset) == size), key=best)
                     for size in range(1, N_FEATURES + 1)}
    return EfsReport(results, best_per_size, max(results, key=best), metric)
