"""Multi-class linear discriminant analysis with a shared covariance.

Discriminant rule: predict argmax_k of

    delta_k(x) = x' S^-1 mu_k - 0.5 mu_k' S^-1 mu_k + log pi_k

with S the pooled within-class covariance (1/(n-K) scaling) and pi_k the
empirical class priors. Ties go to the lower class in LOW < MEDIUM < HIGH
order. A ridge ladder (0, 1e-8, 1e-6, 1e-4) handles near-singular pooled
covariances, as happen for near-constant feature subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ClassLabel
from .numerics import CholeskyFactor, NotPositiveDefiniteError, SymMatrix

RIDGE_LADDER = (0.0, 1e-8, 1e-6, 1e-4)


@dataclass(frozen=True)
class LdaModel:
    classes: tuple[ClassLabel, ...]
    means: np.ndarray        # (K, p)
    pooled_covariance: SymMatrix
    solver: CholeskyFactor   # factor of pooled covariance (+ used ridge)
    log_priors: np.ndarray   # (K,)
    p: int
    # cached discriminant parameters: delta_k(x) = coef[k] . x + intercept[k]
    coef: np.ndarray         # (K, p) rows are S^-1 mu_k
    intercept: np.ndarray    # (K,)

    @property
    def ridge_used(self) -> float:
        return self.solver.ridge


def fit_lda(x: np.ndarray, y: np.ndarray | Sequence[ClassLabel]) -> LdaModel:
    """Fit from an (n, p) matrix and one ClassLabel code per row."""
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
    priors = np.empty(k)
    for ci, lbl in enumerate(classes):
        n_class = int(counts[lbl])
        if n_class < 2:
            raise ValueError(f"class {lbl.csv_value!r} has {n_class} row(s); need >= 2")
        xc = x[y == lbl]
        means[ci] = xc.mean(axis=0)
        centered = xc - means[ci]
        scatter += centered.T @ centered
        priors[ci] = n_class / n

    pooled = SymMatrix.from_full(scatter / (n - k))
    if float(np.max(np.abs(pooled.to_full()))) == 0.0:
        raise ValueError("zero within-class covariance: all rows identical per class")

    solver = _factor_with_ladder(pooled)
    coef = np.vstack([solver.solve(means[ci]) for ci in range(k)])
    intercept = np.array(
        [
            -0.5 * float(means[ci] @ coef[ci]) + math.log(priors[ci])
            for ci in range(k)
        ]
    )
    return LdaModel(
        classes=classes,
        means=means,
        pooled_covariance=pooled,
        solver=solver,
        log_priors=np.log(priors),
        p=p,
        coef=coef,
        intercept=intercept,
    )


def _factor_with_ladder(pooled: SymMatrix) -> CholeskyFactor:
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


def decision_grid(
    model: LdaModel,
    bounds: tuple[float, float, float, float],
    resolution: int | tuple[int, int],
) -> list[tuple[float, float, ClassLabel]]:
    """Labels over a regular grid for a 2-feature model.

    bounds is (x_min, x_max, y_min, y_max); resolution is points per axis.
    Points are emitted row-major, y outer, x inner.
    """
    if model.p != 2:
        raise ValueError(f"decision grid needs a 2-feature model, got p={model.p}")
    nx, ny = (resolution, resolution) if isinstance(resolution, int) else resolution
    if nx < 2 or ny < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got ({nx}, {ny})")
    x_min, x_max, y_min, y_max = bounds
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"bad bounds {bounds}")
    xs = [x_min + i * (x_max - x_min) / (nx - 1) for i in range(nx)]
    ys = [y_min + j * (y_max - y_min) / (ny - 1) for j in range(ny)]
    points = np.array([(x, y) for y in ys for x in xs])
    labels = predict_many(model, points).tolist()
    return [(px, py, ClassLabel(c)) for (px, py), c in zip(points.tolist(), labels)]
