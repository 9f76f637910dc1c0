"""Dense symmetric linear algebra: cyclic Jacobi eigendecomposition and
Cholesky SPD solves, on plain float64 arrays. `symmetric` is the one check
that an array is a symmetric matrix, or a stack of them; both solvers take
their input through it. Matrices here are tiny (p <= 7), so the
implementations favor being explicit and portable over being fast.

`CholeskyFactor` factors and solves a (C, n, n) stack of matrices at once,
one elementwise step per matrix entry across the stack, and marks each
member that does not factor instead of raising. Its sums go through
`ordered_dot`, which adds in index order, so each member gets the same bits
as in a stack of one, on any BLAS build, and a member padded with identity
keeps the bits of its unpadded self.

`libm` is the one place where the package takes log, exp, cos or sin of
array values, by Python's `math` (the platform's libm) one element at a
time: numpy's ufuncs may differ from libm in the last bit, depending on the
build (`np.log` does on numpy 2.4 with AVX-512), and the values reach CSVs
written with repr. The arithmetic around them is IEEE-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


_EPS = float(np.finfo(np.float64).eps)
_ASYM_TOL = 1e-8  # symmetric's bound on relative asymmetry


def libm(x: np.ndarray, *functions: Callable[[float], float]) -> tuple[np.ndarray, ...]:
    """Each of functions (math.log, math.exp, math.cos or math.sin) of every
    element of the 1-D array x, one array per function."""
    values = np.asarray(x, dtype=np.float64).tolist()
    return tuple(np.fromiter(map(f, values), np.float64, len(values)) for f in functions)


class ConvergenceError(RuntimeError):
    """Jacobi sweeps did not reduce the off-diagonal norm in time."""


def symmetric(a: np.ndarray) -> np.ndarray:
    """A read-only copy of the square, finite matrix a, or of each matrix of
    a stack a[..., :, :], with its lower triangle replaced by the upper one.
    Relative asymmetry above _ASYM_TOL in any matrix is an error."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1] or a.size == 0:
        raise ValueError(f"need a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    transposed = np.swapaxes(a, -1, -2)
    asym = np.abs(a - transposed).max(axis=(-2, -1))
    limit = _ASYM_TOL * np.maximum(1.0, np.abs(a).max(axis=(-2, -1)))
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
    a = symmetric(matrix)
    if a.ndim != 2:
        raise ValueError(f"need one matrix, got shape {a.shape}")
    n = len(a)
    v = np.eye(n)
    target = 1e-12 * float(np.sqrt(np.sum(a * a)))

    for _ in range(max_sweeps):
        if _off_diagonal_norm(a) <= target:
            break
        # a sweep's rotations on Python floats: the same IEEE arithmetic as
        # numpy scalars, without a numpy scalar per element access
        rows, vrows = a.tolist(), v.tolist()
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(rows, vrows, p, q)
        a, v = np.array(rows), np.array(vrows)
    residual = _off_diagonal_norm(a)
    if residual > target:
        raise ConvergenceError(f"no convergence after {max_sweeps} sweeps; off-diagonal "
                               f"residual {residual:g} (target {target:g})")

    order = np.argsort(-np.diag(a), kind="stable")
    vectors = v[:, order]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), range(n)]
    return EigenDecomposition(np.diag(a)[order], np.where(lead < 0.0, -vectors, vectors))


def _rotate(a: list[list[float]], v: list[list[float]], p: int, q: int) -> None:
    """One Jacobi rotation zeroing a[p][q], applied to the rows of a and
    accumulated in the rows of v."""
    ap, aq = a[p], a[q]
    apq = ap[q]
    if apq == 0.0:
        return
    app = ap[p]
    aqq = aq[q]
    theta = (aqq - app) / (2.0 * apq)
    if theta >= 0.0:
        t = 1.0 / (theta + math.sqrt(theta * theta + 1.0))
    else:
        t = -1.0 / (-theta + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c

    for i, ai in enumerate(a):
        if i != p and i != q:
            aip = ai[p]
            aiq = ai[q]
            ai[p] = ap[i] = aip * c - aiq * s
            ai[q] = aq[i] = aiq * c + aip * s
    ap[p] = app - t * apq
    aq[q] = aqq + t * apq
    ap[q] = aq[p] = 0.0

    for vi in v:
        vip = vi[p]
        viq = vi[q]
        vi[p] = vip * c - viq * s
        vi[q] = viq * c + vip * s


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
    """Lower-triangular factors of a (C, n, n) stack of matrices A, each plus
    ridge*I; a reusable solver context.

    Member i may be of size sizes[i] < n (n by default), padded with
    identity in its trailing rows and columns: padded terms come last in
    every sum and add +0.0. A pivot at or below sizes[i] * eps times its
    diagonal entry is zero up to rounding, so that member does not factor:
    `ok` marks the members that did. A member that hits such a pivot
    continues with unit pivots, so its factor and solves stay finite but
    mean nothing.
    """

    def __init__(self, matrix: np.ndarray, ridge: float = 0.0,
                 sizes: np.ndarray | None = None) -> None:
        if ridge < 0.0:
            raise ValueError(f"ridge must be >= 0, got {ridge}")
        a = symmetric(matrix)
        if a.ndim != 3:
            raise ValueError(f"need a (C, n, n) stack of matrices, got shape {a.shape}")
        c, n, _ = a.shape
        tolerance = _EPS * (n if sizes is None else np.asarray(sizes, dtype=np.float64))
        if ridge > 0.0:
            a = a.copy()
            a[:, range(n), range(n)] += ridge
        # Cholesky-Crout, one column at a time for every member at once
        lower = np.zeros((c, n, n))
        self.ok = np.ones(c, dtype=bool)
        for j in range(n):
            pivot = a[:, j, j] - ordered_dot(lower[:, j, :j], lower[:, j, :j])
            self.ok &= pivot > tolerance * a[:, j, j]
            lower[:, j, j] = np.sqrt(np.where(self.ok, pivot, 1.0))
            below = a[:, j + 1 :, j] - ordered_dot(lower[:, j + 1 :, :j], lower[:, j, None, :j])
            lower[:, j + 1 :, j] = below / lower[:, j, j, None]
        self.lower = lower

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with (A + ridge*I) x = b, member by member: b has shape (C, m, n),
        m right-hand sides per member."""
        b = np.asarray(b, dtype=np.float64)
        c, n, _ = self.lower.shape
        if b.ndim != 3 or b.shape[0] != c or b.shape[2] != n:
            raise ValueError(f"b must have shape ({c}, m, {n}), got {b.shape}")
        lower = self.lower[:, None]  # broadcast over the right-hand sides
        y = np.zeros(b.shape)
        for i in range(n):
            y[..., i] = (b[..., i] - ordered_dot(lower[..., i, :i], y[..., :i])) / lower[..., i, i]
        x = np.zeros(b.shape)
        for i in range(n - 1, -1, -1):
            x[..., i] = (
                y[..., i] - ordered_dot(lower[..., i + 1 :, i], x[..., i + 1 :])
            ) / lower[..., i, i]
        return x
