"""Multi-class linear discriminant analysis with a shared covariance.

Discriminant rule: predict argmax_k of

    delta_k(x) = x' S^-1 mu_k - 0.5 mu_k' S^-1 mu_k + log pi_k

with S the pooled within-class covariance (1/(n-K) scaling) and pi_k the
empirical class priors. Ties go to the lower class in LOW < MEDIUM < HIGH
order. A ridge ladder (0, 1e-8, 1e-6, 1e-4) handles near-singular pooled
covariances, as happen for collinear feature subsets. A column that is
constant within every class, up to rounding, fails the fit instead.

Fitting runs from class statistics: `fit_lda(class_stats(x, y))`.
`class_stats` checks the labels and computes the class means and the
within-class scatter once; `ClassStats.subset(cols)` slices them for a
feature subset without touching the rows again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ClassLabel
from .numerics import CholeskyFactor, NotPositiveDefiniteError, symmetric

RIDGE_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# A column whose pooled standard deviation is at most this fraction of its
# largest class mean is constant up to rounding: the mean of n equal values
# can be off by a few ulps, which leaves a pooled standard deviation near
# 1e-16 of the value. Fitting such a column would treat that noise as signal.
FLAT_RELATIVE_STD = 1e-10


@dataclass(frozen=True)
class LdaModel:
    classes: tuple[ClassLabel, ...]
    means: np.ndarray        # (K, p)
    pooled_covariance: np.ndarray  # (p, p), symmetric and read-only
    ridge_used: float        # the RIDGE_LADDER step that made S factorizable
    log_priors: np.ndarray   # (K,)
    p: int
    # cached discriminant parameters: delta_k(x) = coef[k] . x + intercept[k]
    coef: np.ndarray         # (K, p) rows are S^-1 mu_k
    intercept: np.ndarray    # (K,)


@dataclass(frozen=True)
class ClassStats:
    """Per-class sufficient statistics of an (n, p) matrix: everything fit_lda
    needs. A feature subset's statistics are slices of these (ESL 2nd ed.,
    section 4.3), so one class_stats call serves every subset."""

    classes: tuple[ClassLabel, ...]
    counts: np.ndarray       # (K,) rows per class
    means: np.ndarray        # (K, p)
    scatter: np.ndarray      # (p, p) within-class scatter, sum of centered outer products
    n: int

    def subset(self, cols: Sequence[int]) -> ClassStats:
        """The statistics of the columns cols, in that order."""
        cols = list(cols)
        return ClassStats(self.classes, self.counts, self.means[:, cols],
                          self.scatter[np.ix_(cols, cols)], self.n)


def class_stats(x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]) -> ClassStats:
    """Class means and within-class scatter of an (n, p) matrix with one
    ClassLabel code per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    n, p = x.shape
    y = np.asarray(y)
    if y.shape != (n,):
        raise ValueError(f"got {n} rows but {y.size} labels")
    if not np.isin(y, list(ClassLabel)).all():
        raise ValueError(f"labels must be ClassLabel codes, got {np.unique(y)}")
    counts = np.bincount(y.astype(np.int8), minlength=len(ClassLabel))
    classes = tuple(lbl for lbl in ClassLabel if counts[lbl])
    k = len(classes)
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} rows for {k} classes, got {n}")

    means = np.empty((k, p))
    scatter = np.zeros((p, p))
    for ci, lbl in enumerate(classes):
        n_class = int(counts[lbl])
        if n_class < 2:
            raise ValueError(f"class {lbl.csv_value!r} has {n_class} row(s); need >= 2")
        xc = x[y == lbl]
        means[ci] = xc.mean(axis=0)
        centered = xc - means[ci]
        scatter += centered.T @ centered
    return ClassStats(classes, counts[list(classes)], means, scatter, n)


def fit_lda(stats: ClassStats) -> LdaModel:
    """Fit from the class statistics of the training rows (see class_stats)."""
    k = len(stats.classes)
    means = stats.means
    pooled = symmetric(stats.scatter / (stats.n - k))
    variances = pooled.diagonal()
    scale = abs(means).max(axis=0)  # each column's largest class mean
    flat = variances <= FLAT_RELATIVE_STD ** 2 * (scale * scale)
    if flat.any():
        col = int(np.flatnonzero(flat)[0])
        raise ValueError(
            f"zero within-class covariance: column {col} is constant within every "
            f"class up to rounding (pooled variance {variances[col]:.3g})"
        )

    priors = stats.counts / stats.n
    solver = _factor_with_ladder(pooled)
    coef = np.vstack([solver.solve(means[ci]) for ci in range(k)])
    intercept = np.array(
        [
            -0.5 * float(means[ci] @ coef[ci]) + math.log(priors[ci])
            for ci in range(k)
        ]
    )
    return LdaModel(
        classes=stats.classes,
        means=means,
        pooled_covariance=pooled,
        ridge_used=solver.ridge,
        log_priors=np.log(priors),
        p=means.shape[1],
        coef=coef,
        intercept=intercept,
    )


def _factor_with_ladder(pooled: np.ndarray) -> CholeskyFactor:
    last_error: NotPositiveDefiniteError | None = None
    for ridge in RIDGE_LADDER:
        try:
            return CholeskyFactor(pooled, ridge)
        except NotPositiveDefiniteError as exc:
            last_error = exc
    raise NotPositiveDefiniteError(
        f"pooled covariance not factorizable up to ridge {RIDGE_LADDER[-1]:g}: {last_error}"
    )


def discriminants(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """delta_k values for one p-vector or an (n, p) matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.p:
        raise ValueError(f"expected {model.p} features, got {x.shape[-1]}")
    return x @ model.coef.T + model.intercept


def predict(model: LdaModel, x: np.ndarray) -> ClassLabel:
    """Label for a single p-vector; ties break to the lower class."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.p,):
        raise ValueError(f"expected shape ({model.p},), got {x.shape}")
    return model.classes[int(np.argmax(discriminants(model, x)))]


def predict_many(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """ClassLabel codes (int8), one per row; ties break to the lower class."""
    scores = discriminants(model, np.atleast_2d(np.asarray(x, dtype=np.float64)))
    return np.asarray(model.classes, dtype=np.int8)[np.argmax(scores, axis=1)]


def accuracy(model: LdaModel, x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]) -> float:
    """Fraction of rows where predict matches the label."""
    y = np.asarray(y, dtype=np.int8)
    if len(y) == 0:
        raise ValueError("cannot score an empty dataset")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != len(y):
        raise ValueError(f"got {x.shape[0]} rows but {len(y)} labels")
    return int(np.count_nonzero(predict_many(model, x) == y)) / len(y)


def grid_axes(
    bounds: tuple[float, float, float, float], resolution: int | tuple[int, int]
) -> tuple[list[float], list[float]]:
    """The x and y values of a regular grid, each axis from its min to its max.

    bounds is (x_min, x_max, y_min, y_max); resolution is points per axis.
    """
    nx, ny = (resolution, resolution) if isinstance(resolution, int) else resolution
    if nx < 2 or ny < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got ({nx}, {ny})")
    x_min, x_max, y_min, y_max = bounds
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"bad bounds {bounds}")
    return tuple([lo + i * (hi - lo) / (n - 1) for i in range(n)]
                 for lo, hi, n in ((x_min, x_max, nx), (y_min, y_max, ny)))


def decision_grid(model: LdaModel, xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """ClassLabel codes (int8) of a 2-feature model over the grid of points
    (x, y), x from xs and y from ys, such as the grid_axes values.

    Points are in row-major order, y outer, x inner: code k is at
    (xs[k % len(xs)], ys[k // len(xs)]).
    """
    if model.p != 2:
        raise ValueError(f"decision grid needs a 2-feature model, got p={model.p}")
    points = np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])
    return predict_many(model, points)
