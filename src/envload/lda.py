"""Multi-class linear discriminant analysis with a shared covariance.

Discriminant rule: predict argmax_k of

    delta_k(x) = x' S^-1 mu_k - 0.5 mu_k' S^-1 mu_k + log pi_k

with S the pooled within-class covariance (1/(n-K) scaling) and pi_k the
empirical class priors. Ties go to the lower class in LOW < MEDIUM < HIGH
order. A ridge ladder (0, 1e-8, 1e-6, 1e-4) handles near-singular pooled
covariances, as happen for collinear feature subsets. A column that is
constant within every class, up to rounding, fails the fit instead.

Every model is a stack of C feature subsets, fit in one pass.
`class_stats(x, y)` checks the labels and computes the class means and the
within-class scatter of the full (n, p) matrix once; `ClassStats.subset` of
a (C, s) array of columns slices them for C subsets without touching the
rows again. `fit_lda` fits all C members and marks a member that fails
instead of raising, and `predict_many` scores full-width rows for every
member with one matrix product per chunk of rows. One subset is a stack of
one, and each member of a stack equals its own stack of one, to the bit,
which `member(model, i)` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import ClassLabel
from .numerics import CholeskyFactor, ordered_dot, symmetric

RIDGE_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# A column whose pooled standard deviation is at most this fraction of its
# largest class mean is constant up to rounding: the mean of n equal values
# can be off by a few ulps, which leaves a pooled standard deviation near
# 1e-16 of the value. Fitting such a column would treat that noise as signal.
FLAT_RELATIVE_STD = 1e-10
# predict_many scores this many bytes of rows at a time
SCORE_CHUNK_BYTES = 2 << 20


@dataclass(frozen=True)
class LdaModel:
    """C models in one, the fit of ClassStats.subset of a (C, s) column
    array: member i reads columns cols[i] of full-width rows. A member whose
    fit failed has ridge_used nan and coef and intercept 0."""

    classes: tuple[ClassLabel, ...]
    means: np.ndarray        # (C, K, s)
    pooled_covariance: np.ndarray  # (C, s, s), symmetric and read-only
    ridge_used: np.ndarray   # (C,) the RIDGE_LADDER step that made S factorizable
    log_priors: np.ndarray   # (K,)
    # cached discriminant parameters: delta_k(x) = coef[i, k] . x[cols[i]] + intercept[i, k]
    coef: np.ndarray         # (C, K, s) rows are S^-1 mu_k
    intercept: np.ndarray    # (C, K)
    cols: np.ndarray         # (C, s) each member's columns of the full matrix
    failed: np.ndarray       # (C,) bool


@dataclass(frozen=True)
class ClassStats:
    """Per-class sufficient statistics of an (n, p) matrix: everything fit_lda
    needs. A feature subset's statistics are slices of these (ESL 2nd ed.,
    section 4.3), so one class_stats call serves every subset."""

    classes: tuple[ClassLabel, ...]
    counts: np.ndarray       # (K,) rows per class
    means: np.ndarray        # (K, p), or (C, K, s) when stacked
    scatter: np.ndarray      # (p, p) within-class scatter, sum of centered outer
                             # products; (C, s, s) when stacked
    n: int
    cols: np.ndarray | None = None  # (C, s) when stacked: each member's columns

    def subset(self, cols: Sequence[Sequence[int]] | np.ndarray) -> ClassStats:
        """Stacked statistics of a (C, s) array of columns: one member per
        row, of the distinct columns in that row, in that order. fit_lda fits
        all members at once."""
        cols = np.asarray(cols)
        if cols.ndim != 2 or self.cols is not None:
            raise ValueError(
                f"need a (C, s) column array of unstacked statistics, got {cols.shape}")
        if cols.dtype.kind not in "iu":
            raise ValueError(f"columns must be integers, got dtype {cols.dtype}")
        cols = cols.astype(np.intp)
        p = self.means.shape[1]
        outside = cols[(cols < 0) | (cols >= p)]
        if outside.size:
            raise ValueError(f"column {outside[0]} is outside 0..{p - 1}")
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
    """Fit every member of stacked class statistics (ClassStats.subset) in
    one pass. A member with a column that is constant within every class,
    or whose pooled covariance does not factor at any ridge of the ladder,
    is marked in `failed`."""
    if stats.means.ndim != 3:
        raise ValueError("fit_lda needs stacked statistics: ClassStats.subset of a "
                         "(C, s) column array")
    means = stats.means
    k = len(stats.classes)
    pooled = stats.scatter / (stats.n - k)
    pooled.setflags(write=False)
    variances = np.diagonal(pooled, axis1=1, axis2=2)
    scale = abs(means).max(axis=1)  # each column's largest class mean
    failed = (variances <= FLAT_RELATIVE_STD ** 2 * (scale * scale)).any(axis=1)

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
    return LdaModel(stats.classes, means, pooled, ridge_used, log_priors, coef, intercept,
                    stats.cols, failed)


def member(model: LdaModel, i: int) -> LdaModel:
    """Member i of a stacked model as a stack of one: the same fit, bit for bit."""
    at = slice(i, i + 1)
    return replace(model, means=model.means[at], pooled_covariance=model.pooled_covariance[at],
                   ridge_used=model.ridge_used[at], coef=model.coef[at],
                   intercept=model.intercept[at], cols=model.cols[at], failed=model.failed[at])


def predict_many(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """ClassLabel codes (int8) of full-width rows, of which each member reads
    its own columns: an (n, C) array, one code per row and member. Ties
    break to the lower class."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    codes = np.asarray(model.classes, dtype=np.int8)
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
        scores = x[start : start + rows] @ weights
        scores += intercept
        out[start : start + rows] = codes[np.argmax(scores.reshape(-1, c, k), axis=2)]
    return out


def accuracy(
    model: LdaModel, x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]
) -> np.ndarray:
    """Each member's fraction of full-width rows where predict_many matches
    the label: a (C,) array."""
    y = np.asarray(y, dtype=np.int8)
    if len(y) == 0:
        raise ValueError("cannot score an empty dataset")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != len(y):
        raise ValueError(f"got {x.shape[0]} rows but {len(y)} labels")
    return np.count_nonzero(predict_many(model, x) == y[:, None], axis=0) / len(y)


def grid_axes(
    bounds: tuple[float, float, float, float], resolution: int
) -> tuple[list[float], list[float]]:
    """The x and y values of a regular grid, each axis from its min to its max.

    bounds is (x_min, x_max, y_min, y_max); resolution is points per axis.
    """
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    x_min, x_max, y_min, y_max = bounds
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"bad bounds {bounds}")
    return tuple([lo + i * (hi - lo) / (resolution - 1) for i in range(resolution)]
                 for lo, hi in ((x_min, x_max), (y_min, y_max)))


def decision_grid(model: LdaModel, xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """ClassLabel codes (int8) of a model with one 2-column member over the
    grid of points (x, y), x from xs in its first column and y from ys in
    its second, such as the grid_axes values.

    Points are in row-major order, y outer, x inner: code k is at
    (xs[k % len(xs)], ys[k // len(xs)]).
    """
    if model.cols.shape != (1, 2):
        raise ValueError(f"decision grid needs one 2-column member, got columns "
                         f"of shape {model.cols.shape}")
    points = np.zeros((len(xs) * len(ys), model.cols.max() + 1))
    points[:, model.cols[0]] = np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])
    return predict_many(model, points)[:, 0]
