"""Dense symmetric linear algebra: cyclic Jacobi eigendecomposition and
Cholesky SPD solves, on plain float64 arrays. `symmetric` is the one check
that an array is a symmetric matrix; both solvers take their input through it.
Matrices here are tiny (p <= 7), so the implementations favor being explicit
and portable over being fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot; try a larger ridge."""


class ConvergenceError(RuntimeError):
    """Jacobi sweeps did not reduce the off-diagonal norm in time."""


def symmetric(a: np.ndarray, asym_tol: float = 1e-8) -> np.ndarray:
    """A read-only copy of the square, finite matrix a with its lower triangle
    replaced by the upper one. Relative asymmetry above asym_tol is an error."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    asym = float(np.abs(a - a.T).max())
    if asym > asym_tol * max(1.0, float(np.abs(a).max())):
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:g})")
    full = np.where(np.tri(len(a), k=-1, dtype=bool), a.T, a)
    full.setflags(write=False)
    return full


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending; eigenvectors[:, i] pairs with
    eigenvalues[i]. Sign convention: each eigenvector's largest-magnitude
    component is non-negative (first such component on ties)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _off_diagonal_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(off * off)))


def jacobi_eigen(matrix: np.ndarray, max_sweeps: int = 100) -> EigenDecomposition:
    """Cyclic Jacobi rotations until the off-diagonal Frobenius norm drops
    below 1e-12 * ||A||_F (or max_sweeps, then ConvergenceError)."""
    a = symmetric(matrix).copy()
    n = len(a)
    v = np.eye(n)
    target = 1e-12 * float(np.sqrt(np.sum(a * a)))

    if _off_diagonal_norm(a) > target:
        converged = False
        for _ in range(max_sweeps):
            for p in range(n - 1):
                for q in range(p + 1, n):
                    _rotate(a, v, p, q)
            if _off_diagonal_norm(a) <= target:
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"no convergence after {max_sweeps} sweeps; off-diagonal "
                f"residual {_off_diagonal_norm(a):g} (target {target:g})"
            )

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order].copy()
    for j in range(n):
        col = vectors[:, j]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            vectors[:, j] = -col
    return EigenDecomposition(eigenvalues, vectors)


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """One Jacobi rotation zeroing a[p, q], applied to a and accumulated in v."""
    apq = a[p, q]
    if apq == 0.0:
        return
    app = a[p, p]
    aqq = a[q, q]
    theta = (aqq - app) / (2.0 * apq)
    if theta >= 0.0:
        t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
    else:
        t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c

    n = a.shape[0]
    for i in range(n):
        if i != p and i != q:
            aip = a[i, p]
            aiq = a[i, q]
            a[i, p] = a[p, i] = aip * c - aiq * s
            a[i, q] = a[q, i] = aiq * c + aip * s
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = a[q, p] = 0.0

    for i in range(n):
        vip = v[i, p]
        viq = v[i, q]
        v[i, p] = vip * c - viq * s
        v[i, q] = viq * c + vip * s


class CholeskyFactor:
    """Lower-triangular factor of (A + ridge*I); reusable solver context."""

    def __init__(self, matrix: np.ndarray, ridge: float = 0.0) -> None:
        if ridge < 0.0:
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        a = symmetric(matrix)
        n = len(a)
        if ridge > 0.0:
            a = a.copy()
            a[np.diag_indices(n)] += ridge
        lower = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1):
                s = a[i, j] - float(np.dot(lower[i, :j], lower[j, :j]))
                if i == j:
                    if s <= 0.0:
                        raise NotPositiveDefiniteError(
                            f"pivot {s:g} at row {i} is not positive; "
                            f"increase the ridge (current {ridge:g})"
                        )
                    lower[i, i] = math.sqrt(s)
                else:
                    lower[i, j] = s / lower[j, j]
        self._lower = lower
        self._dim = n
        self.ridge = ridge

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self._dim,):
            raise ValueError(f"b must have shape ({self._dim},), got {b.shape}")
        lower = self._lower
        n = self._dim
        y = np.zeros(n)
        for i in range(n):
            y[i] = (b[i] - float(np.dot(lower[i, :i], y[:i]))) / lower[i, i]
        x = np.zeros(n)
        for i in range(n - 1, -1, -1):
            x[i] = (y[i] - float(np.dot(lower[i + 1 :, i], x[i + 1 :]))) / lower[i, i]
        return x
