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

Many subsets fit as one stacked model: `subset` of a (C, s) array of columns
gives stacked statistics, `fit_lda` fits all C members in one pass and marks
a member that fails instead of raising, and `predict_many` scores full-width
rows for every member with one matrix product per chunk of rows. One model
is the stack-of-one case of the same fit, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ClassLabel
from .numerics import CholeskyFactor, NotPositiveDefiniteError, ordered_dot, symmetric

RIDGE_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# A column whose pooled standard deviation is at most this fraction of its
# largest class mean is constant up to rounding: the mean of n equal values
# can be off by a few ulps, which leaves a pooled standard deviation near
# 1e-16 of the value. Fitting such a column would treat that noise as signal.
FLAT_RELATIVE_STD = 1e-10
# predict_many on a stacked model scores this many bytes of rows at a time
SCORE_CHUNK_BYTES = 2 << 20


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
    # A stacked model (fit_lda of ClassStats.subset of a (C, p) column array)
    # is C models in one: means, pooled_covariance, coef and intercept gain a
    # leading member axis and ridge_used is a (C,) array. A member whose fit
    # failed has ridge_used nan and coef and intercept 0.
    cols: np.ndarray | None = None    # (C, p) each member's columns of the full matrix
    failed: np.ndarray | None = None  # (C,) bool


@dataclass(frozen=True)
class ClassStats:
    """Per-class sufficient statistics of an (n, p) matrix: everything fit_lda
    needs. A feature subset's statistics are slices of these (ESL 2nd ed.,
    section 4.3), so one class_stats call serves every subset."""

    classes: tuple[ClassLabel, ...]
    counts: np.ndarray       # (K,) rows per class
    means: np.ndarray        # (K, p), or (C, K, p) when stacked
    scatter: np.ndarray      # (p, p) within-class scatter, sum of centered outer
                             # products; (C, p, p) when stacked
    n: int
    cols: np.ndarray | None = None  # (C, p) when stacked: each member's columns

    def subset(self, cols: Sequence[int] | np.ndarray) -> ClassStats:
        """The statistics of the columns cols, in that order. A (C, s) array
        of distinct columns per row gives stacked statistics, one member per
        row, which fit_lda fits all at once."""
        cols = np.asarray(cols, dtype=np.intp)
        if cols.ndim == 1:
            return ClassStats(self.classes, self.counts, self.means[:, cols],
                              self.scatter[np.ix_(cols, cols)], self.n)
        if cols.ndim != 2 or self.cols is not None:
            raise ValueError(
                f"need a (C, s) column array of unstacked statistics, got {cols.shape}")
        if (np.diff(np.sort(cols, axis=1), axis=1) == 0).any():
            raise ValueError("a member of a stacked subset repeats a column")
        return ClassStats(self.classes, self.counts, self.means[:, cols].swapaxes(0, 1),
                          self.scatter[cols[:, :, None], cols[:, None, :]], self.n, cols)


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
    # symmetric once here, so that every subset's slice is symmetric too
    return ClassStats(classes, counts[list(classes)], means, symmetric(scatter), n)


def fit_lda(stats: ClassStats) -> LdaModel:
    """Fit from the class statistics of the training rows (see class_stats).

    Unstacked statistics give one model, or raise ValueError (the
    NotPositiveDefiniteError of the ridge ladder is one). Stacked statistics
    give a stacked model in which each failed member is marked in `failed`.
    Both are the same computation: one set of statistics is a stack of one.
    """
    stacked = stats.cols is not None
    means = stats.means if stacked else stats.means[None]
    k = len(stats.classes)
    pooled = (stats.scatter if stacked else stats.scatter[None]) / (stats.n - k)
    pooled.setflags(write=False)
    variances = np.diagonal(pooled, axis1=1, axis2=2)
    scale = abs(means).max(axis=1)  # each column's largest class mean
    flat = variances <= FLAT_RELATIVE_STD ** 2 * (scale * scale)
    failed = flat.any(axis=1)

    # the ladder retries only the members that no smaller ridge factored
    coef = np.zeros(means.shape)
    ridge_used = np.full(len(means), np.nan)
    todo = np.flatnonzero(~failed)
    for ridge in RIDGE_LADDER:
        if not todo.size:
            break
        factor = CholeskyFactor(pooled[todo], ridge)
        coef[todo[factor.ok]] = factor.solve(means[todo])[factor.ok]
        ridge_used[todo[factor.ok]] = ridge
        todo = todo[~factor.ok]
    failed[todo] = True

    log_priors = np.array([math.log(count / stats.n) for count in stats.counts])
    intercept = -0.5 * ordered_dot(means, coef) + log_priors
    intercept[failed] = 0.0
    if stacked:
        return LdaModel(stats.classes, means, pooled, ridge_used, log_priors,
                        means.shape[2], coef, intercept, stats.cols, failed)
    if flat[0].any():
        col = int(np.flatnonzero(flat[0])[0])
        raise ValueError(
            f"zero within-class covariance: column {col} is constant within every "
            f"class up to rounding (pooled variance {variances[0, col]:.3g})"
        )
    if failed[0]:
        raise NotPositiveDefiniteError(
            f"pooled covariance not factorizable up to ridge {RIDGE_LADDER[-1]:g}: "
            f"{factor.error(0)}"
        )
    return LdaModel(stats.classes, means[0], pooled[0], float(ridge_used[0]),
                    log_priors, means.shape[2], coef[0], intercept[0])


def discriminants(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """delta_k values for one p-vector or an (n, p) matrix."""
    if model.cols is not None:
        raise ValueError("a stacked model is scored with predict_many")
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
    """ClassLabel codes (int8), one per row; ties break to the lower class.

    A stacked model scores full-width rows, of which each member reads its
    own columns, and gives an (n, C) array: one code per row and member.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    codes = np.asarray(model.classes, dtype=np.int8)
    if model.cols is None:
        return codes[np.argmax(discriminants(model, x), axis=1)]
    c, k, _ = model.coef.shape
    if x.ndim != 2 or x.shape[1] <= model.cols.max():
        raise ValueError(f"expected rows of at least {model.cols.max() + 1} features, "
                         f"got shape {x.shape}")
    # every member's coefficients at its own columns, zero elsewhere: one
    # product scores all members, and the zero terms add nothing
    weights = np.zeros((x.shape[1], c, k))
    weights[model.cols, np.arange(c)[:, None]] = model.coef.swapaxes(1, 2)
    weights = weights.reshape(x.shape[1], c * k)
    intercept = model.intercept.reshape(c * k)
    out = np.empty((len(x), c), dtype=np.int8)
    rows = max(1, SCORE_CHUNK_BYTES // (8 * c * k))
    for start in range(0, len(x), rows):
        scores = x[start : start + rows] @ weights + intercept
        out[start : start + rows] = codes[np.argmax(scores.reshape(-1, c, k), axis=2)]
    return out


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
