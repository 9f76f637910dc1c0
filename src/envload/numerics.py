"""Dense symmetric linear algebra: cyclic Jacobi eigendecomposition and
Cholesky SPD solves, on plain float64 arrays. `symmetric` is the one check
that an array is a symmetric matrix, or a stack of them; both solvers take
their input through it. Matrices here are tiny (p <= 7), so the
implementations favor being explicit and portable over being fast.

`CholeskyFactor` factors and solves a whole stack of matrices at once, one
elementwise step per matrix entry across the stack. Its sums go through
`ordered_dot`, which adds in index order, so each member gets the same bits
as it would alone, on any BLAS build. One matrix is a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


_EPS = float(np.finfo(np.float64).eps)


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a pivot that is not positive up to rounding; try a larger ridge."""


class ConvergenceError(RuntimeError):
    """Jacobi sweeps did not reduce the off-diagonal norm in time."""


def symmetric(a: np.ndarray, asym_tol: float = 1e-8) -> np.ndarray:
    """A read-only copy of the square, finite matrix a, or of each matrix of
    a stack a[..., :, :], with its lower triangle replaced by the upper one.
    Relative asymmetry above asym_tol in any matrix is an error."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1] or a.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    transposed = np.swapaxes(a, -1, -2)
    asym = np.abs(a - transposed).max(axis=(-2, -1))
    limit = asym_tol * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
    if (asym > limit).any():
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym.max():g})")
    full = np.where(np.tri(a.shape[-1], k=-1, dtype=bool), transposed, a)
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
    if a.ndim != 2:
        raise ValueError(f"need one matrix, got shape {a.shape}")
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


def ordered_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis, term by term in index order.

    Unlike np.dot, the result does not depend on the BLAS kernel or on the
    leading shape, so each member of a stack gets the same bits as alone."""
    terms = np.multiply(a, b)
    total = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        total += terms[..., k]
    return total


class CholeskyFactor:
    """Lower-triangular factor of (A + ridge*I); reusable solver context.

    A is one (n, n) matrix or a stack of them, shape (C, n, n). A pivot at
    or below n * eps times its diagonal entry is zero up to rounding, so the
    matrix does not factor: one matrix raises NotPositiveDefiniteError. A
    stack factors every member and reports which did in `ok`; a member that
    hits such a pivot continues with unit pivots, so its factor and its
    solves stay finite but mean nothing. One matrix is a stack of one.
    """

    def __init__(self, matrix: np.ndarray, ridge: float = 0.0) -> None:
        if ridge < 0.0:
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        a = symmetric(matrix)
        if a.ndim > 3:
            raise ValueError(f"need a matrix or a stack of matrices, got shape {a.shape}")
        self._single = a.ndim == 2
        self.ridge = ridge
        a = a[None] if self._single else a
        c, n, _ = a.shape
        if ridge > 0.0:
            a = a.copy()
            a[:, range(n), range(n)] += ridge
        # Cholesky-Crout, one column at a time for every member at once
        lower = np.zeros((c, n, n))
        self.ok = np.ones(c, dtype=bool)
        self._pivot = np.zeros(c)  # first non-positive pivot of each failed member
        self._row = np.zeros(c, dtype=np.int64)
        for j in range(n):
            pivot = a[:, j, j] - ordered_dot(lower[:, j, :j], lower[:, j, :j])
            bad = self.ok & ~(pivot > n * _EPS * a[:, j, j])
            self._pivot[bad], self._row[bad] = pivot[bad], j
            self.ok &= ~bad
            lower[:, j, j] = np.sqrt(np.where(self.ok, pivot, 1.0))
            below = a[:, j + 1 :, j] - ordered_dot(lower[:, j + 1 :, :j], lower[:, j, None, :j])
            lower[:, j + 1 :, j] = below / lower[:, j, j, None]
        if self._single and not self.ok[0]:
            raise self.error(0)
        self._lower = lower
        self._dim = n

    @property
    def lower(self) -> np.ndarray:
        """The factor L: (n, n) for one matrix, (C, n, n) for a stack."""
        return self._lower[0] if self._single else self._lower

    def error(self, member: int) -> NotPositiveDefiniteError:
        """Why the stack member did not factor."""
        return NotPositiveDefiniteError(
            f"pivot {self._pivot[member]:g} at row {self._row[member]} is not positive "
            f"up to rounding; "
            f"increase the ridge (current {self.ridge:g})"
        )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (A + ridge*I) x = b. For one matrix b has shape (n,); for a
        stack of C, shape (C, m, n): m right-hand sides per member."""
        b = np.asarray(b, dtype=np.float64)
        stack = b[None, None] if self._single else b
        c, n = len(self._lower), self._dim
        if stack.ndim != 3 or stack.shape[0] != c or stack.shape[2] != n:
            want = f"({n},)" if self._single else f"({c}, m, {n})"
            raise ValueError(f"b must have shape {want}, got {b.shape}")
        lower = self._lower[:, None]  # broadcast over the right-hand sides
        y = np.zeros(stack.shape)
        for i in range(n):
            y[..., i] = (
                stack[..., i] - ordered_dot(lower[..., i, :i], y[..., :i])
            ) / lower[..., i, i]
        x = np.zeros(stack.shape)
        for i in range(n - 1, -1, -1):
            x[..., i] = (
                y[..., i] - ordered_dot(lower[..., i + 1 :, i], x[..., i + 1 :])
            ) / lower[..., i, i]
        return x[0, 0] if self._single else x
