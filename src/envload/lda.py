"""Multi-class linear discriminant analysis with a shared covariance.

Discriminant rule: predict argmax_k of

    delta_k(x) = x' S^-1 mu_k - 0.5 mu_k' S^-1 mu_k + log pi_k

with S the pooled within-class covariance (1/(n-K) scaling) and pi_k the
empirical class priors. Ties go to the lower class in LOW < MEDIUM < HIGH
order. A ridge ladder (0, 1e-8, 1e-6, 1e-4) handles near-singular pooled
covariances, as happen for collinear feature subsets. A column that is
constant within every class, up to rounding, fails the fit instead.

Every model is a stack of C feature subsets, fit in one pass.
`class_stats(x, y)` checks the rows and labels by the Dataset's rules and
computes the class means and the within-class scatter of the full (n, p)
matrix once; `fit_lda(stats, cols)` slices them for a (C, w) array of
columns, without touching the rows again, fits all C members and marks a
member that fails instead of raising. Members of different sizes share one
stack, padded with -1 columns. `predict_many` checks its rows the same way,
scores them for every member with one matrix product per chunk of rows and
picks each class by comparisons, not an argmax; `decision_grid` scores a
grid for one member. One subset is a stack of one, and each member's fit
equals that of its own unpadded stack of one, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dataset import ClassLabel, check_features, label_codes
from .numerics import CholeskyFactor, libm, ordered_dot, symmetric

RIDGE_LADDER = (0.0, 1e-8, 1e-6, 1e-4)
# A column whose pooled standard deviation is at most this fraction of its
# largest class mean is constant up to rounding: the mean of n equal values
# can be off by a few ulps, which leaves a pooled standard deviation near
# 1e-16 of the value. Fitting such a column would treat that noise as signal.
FLAT_RELATIVE_STD = 1e-10
# predict_many scores this many bytes of rows at a time: small enough that
# the scores of a 127-member stack stay in cache and add nothing to the peak
SCORE_CHUNK_BYTES = 128 << 10


@dataclass(frozen=True)
class LdaModel:
    """C models in one, the fit of class statistics at a (C, w) column
    array: member i reads columns cols[i] of full-width rows. A padded slot
    (column -1) has mean and coef +0.0 and identity in the pooled
    covariance. A member whose fit failed has ridge_used nan and coef and
    intercept 0."""

    classes: tuple[ClassLabel, ...]
    means: np.ndarray        # (C, K, w)
    pooled_covariance: np.ndarray  # (C, w, w), symmetric and read-only
    ridge_used: np.ndarray   # (C,) the RIDGE_LADDER step that made S factorizable
    log_priors: np.ndarray   # (K,)
    # cached discriminant parameters: delta_k(x) = coef[i, k] . x[cols[i]] + intercept[i, k]
    coef: np.ndarray         # (C, K, w) rows are S^-1 mu_k
    intercept: np.ndarray    # (C, K)
    cols: np.ndarray         # (C, w) each member's columns of the full matrix, -1 padded
    failed: np.ndarray       # (C,) bool

    def members(self, at: slice) -> LdaModel:
        """The members at, as a stack of their own."""
        return replace(self, means=self.means[at], pooled_covariance=self.pooled_covariance[at],
                       ridge_used=self.ridge_used[at], coef=self.coef[at],
                       intercept=self.intercept[at], cols=self.cols[at], failed=self.failed[at])


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


def class_stats(x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]) -> ClassStats:
    """Class means and within-class scatter of an (n, p) matrix with one
    ClassLabel code per row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"x must be 2-D, got shape {x.shape}")
    n, p = x.shape
    check_features(x)
    y = label_codes(y, n)
    counts = np.bincount(y, minlength=len(ClassLabel))
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
        xc = x[y == lbl]  # a fresh gather, centered in place
        means[ci] = xc.mean(axis=0)
        xc -= means[ci]
        scatter += xc.T @ xc
    # symmetric once here, so that every subset's slice is symmetric too
    return ClassStats(classes, counts[list(classes)], means, symmetric(scatter), n)


def fit_lda(stats: ClassStats, cols: Sequence[Sequence[int]] | np.ndarray) -> LdaModel:
    """Fit one member per row of a (C, w) array of columns, each on the
    distinct columns of its row up to its trailing run of -1 padding, in
    that order, all in one pass. A member with a column that is constant
    within every class, or whose pooled covariance does not factor at any
    ridge of the ladder, is marked in `failed`."""
    cols = np.asarray(cols)
    if cols.ndim != 2:
        raise ValueError(f"need a (C, w) column array, got {cols.shape}")
    if cols.dtype.kind not in "iu":
        raise ValueError(f"columns must be integers, got dtype {cols.dtype}")
    cols = cols.astype(np.intp)
    p = stats.means.shape[1]
    pad = np.logical_and.accumulate(cols[:, ::-1] == -1, axis=1)[:, ::-1]
    outside = cols[~pad & ((cols < 0) | (cols >= p))]
    if outside.size:
        raise ValueError(f"column {outside[0]} is outside 0..{p - 1}")
    sizes = np.count_nonzero(~pad, axis=1)
    if not sizes.all():
        raise ValueError("a member of a stacked subset has no columns")
    ordered = np.sort(cols, axis=1)  # padding first, and only padding is negative
    if ((np.diff(ordered, axis=1) == 0) & (ordered[:, 1:] >= 0)).any():
        raise ValueError("a member of a stacked subset repeats a column")
    means = np.where(pad[:, None, :], 0.0, stats.means[:, cols].swapaxes(0, 1))  # (C, K, w)
    k = len(stats.classes)
    pooled = stats.scatter[cols[:, :, None], cols[:, None, :]] / (stats.n - k)
    pooled = np.where(pad[:, :, None] | pad[:, None, :], np.eye(cols.shape[1]), pooled)
    pooled.setflags(write=False)
    variances = np.diagonal(pooled, axis1=1, axis2=2)
    scale = abs(means).max(axis=1)  # each column's largest class mean
    failed = (variances <= FLAT_RELATIVE_STD ** 2 * (scale * scale)).any(axis=1)

    # the ladder retries only the members that no smaller ridge factored; a
    # pivot's tolerance is of the member's own size, so padding moves no step
    coef = np.zeros(means.shape)
    ridge_used = np.full(len(means), np.nan)
    todo = np.flatnonzero(~failed)
    for ridge in RIDGE_LADDER:
        if not todo.size:
            break
        factor = CholeskyFactor(pooled[todo], ridge, sizes[todo])
        coef[todo[factor.ok]] = factor.solve(means[todo])[factor.ok]
        ridge_used[todo[factor.ok]] = ridge
        todo = todo[~factor.ok]
    failed[todo] = True

    (log_priors,) = libm(stats.counts / stats.n, math.log)
    intercept = -0.5 * ordered_dot(means, coef) + log_priors
    intercept[failed] = 0.0
    return LdaModel(stats.classes, means, pooled, ridge_used, log_priors, coef, intercept,
                    cols, failed)


def padded(subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """Column subsets of any sizes as one (C, w) column array for fit_lda,
    each padded with -1 to the largest size w."""
    width = max(map(len, subsets))
    return np.array([list(cols) + [-1] * (width - len(cols)) for cols in subsets])


def chunk_rows(model: LdaModel) -> int:
    """The rows predict_many scores with one matrix product. Blocks that
    start at multiples of it get the codes of one predict_many call."""
    c, k, _ = model.coef.shape
    return max(1, SCORE_CHUNK_BYTES // (8 * c * k))


def predict_many(model: LdaModel, x: np.ndarray) -> np.ndarray:
    """ClassLabel codes (int8) of full-width, finite rows, of which each
    member reads its own columns: an (n, C) array, one code per row and
    member, in Fortran order. Ties break to the lower class."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    c, k, _ = model.coef.shape
    if x.ndim != 2 or x.shape[1] <= model.cols.max():
        raise ValueError(f"expected rows of at least {model.cols.max() + 1} features, "
                         f"got shape {x.shape}")
    # a NaN score would make the comparisons below disagree with an argmax
    check_features(x)
    # every member's coefficients at its own columns, zero elsewhere, class
    # major: one product scores all members, the zero terms add nothing, and
    # each class's scores of a chunk are one contiguous (C, rows) block
    members, slots = np.nonzero(model.cols >= 0)
    weights = np.zeros((k, c, x.shape[1]))
    weights[:, members, model.cols[members, slots]] = model.coef[members, :, slots].T
    weights = weights.reshape(k * c, x.shape[1])
    intercept = model.intercept.T[:, :, None]
    codes = np.asarray(model.classes, dtype=np.int8)
    out = np.empty((c, len(x)), dtype=np.int8)  # returned as its (n, C) transpose
    rows = chunk_rows(model)
    scores, won = np.empty(k * c * min(rows, len(x))), np.empty((c, min(rows, len(x))), np.int8)
    for start in range(0, len(x), rows):
        m = min(rows, len(x) - start)
        score = np.matmul(weights, x[start : start + m].T, out=scores[: k * c * m].reshape(-1, m))
        score = score.reshape(k, c, m)
        score += intercept
        best, label, won_m = score[0], out[:, start : start + m], won[:, :m]
        label.fill(codes[0])
        # class j wins where it beats the running maximum of the lower
        # classes; a strict > keeps a tie on the lower class, as argmax does.
        # The label is the last class that won: the largest code that won,
        # as codes ascend with the classes
        for j in range(1, k):
            np.greater(score[j], best, out=won_m)
            won_m *= codes[j]
            np.maximum(label, won_m, out=label)
            if j + 1 < k:
                np.maximum(best, score[j], out=best)
    return out.T


def hits(model: LdaModel, x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]) -> np.ndarray:
    """Each member's count of full-width rows where predict_many matches the
    label: a (C,) integer array."""
    y = label_codes(y, len(x))
    return np.count_nonzero(predict_many(model, x) == y[:, None], axis=0)


def accuracy(
    model: LdaModel, x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]
) -> np.ndarray:
    """Each member's fraction of full-width rows where predict_many matches
    the label, its hits over the rows: a (C,) array."""
    if len(y) == 0:
        raise ValueError("cannot score an empty dataset")
    return hits(model, x, y) / len(y)


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


def decision_grid(
    model: LdaModel, i: int, xs: Sequence[float], ys: Sequence[float]
) -> np.ndarray:
    """ClassLabel codes (int8) of member i, a 2-column member, over the grid
    of points (x, y), x from xs in its first column and y from ys in its
    second, such as the grid_axes values.

    Points are in row-major order, y outer, x inner: code k is at
    (xs[k % len(xs)], ys[k // len(xs)]).
    """
    if not 0 <= i < len(model.cols):
        raise ValueError(f"member {i} is outside 0..{len(model.cols) - 1}")
    cols = model.cols[i][model.cols[i] >= 0]
    if len(cols) != 2:
        raise ValueError(f"decision grid needs 2-column members, member {i} has "
                         f"{len(cols)} column(s)")
    # member i alone, a stack of one: predict_many scores every member
    points = np.zeros((len(xs) * len(ys), cols.max() + 1))
    points[:, cols] = np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])
    return predict_many(model.members(slice(i, i + 1)), points)[:, 0]
