import numpy as np
import pytest

from envload.numerics import (
    CholeskyFactor,
    ConvergenceError,
    NotPositiveDefiniteError,
    jacobi_eigen,
    symmetric,
)


def _random_symmetric(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) * scale
    return (m + m.T) / 2.0


class TestSymMatrix:
    """symmetric(): the check every matrix passes before the solvers use it."""

    def test_full_roundtrip(self):
        a = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, -1.0], [0.5, -1.0, 4.0]])
        sym = symmetric(a)
        assert np.array_equal(sym, a)
        assert not sym.flags.writeable

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="symmetric"):
            symmetric(a)
        with pytest.raises(ValueError, match="symmetric"):
            jacobi_eigen(a)
        with pytest.raises(ValueError, match="symmetric"):
            CholeskyFactor(a)

    def test_non_square_rejected(self):
        for shape in [(2, 3), (0, 0), (4,)]:
            with pytest.raises(ValueError, match="square"):
                symmetric(np.zeros(shape))

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                symmetric(np.array([[1.0, bad], [bad, 1.0]]))
            with pytest.raises(ValueError, match="finite"):  # lower triangle only
                symmetric(np.array([[1.0, 0.0], [bad, 1.0]]))

    def test_upper_triangle_wins_below_tolerance(self):
        a = np.array([[4.0, -0.0, 1.0 / 3.0],
                      [0.0, 5.0, 2.0e-7],
                      [1.0 / 3.0 + 1e-15, 2.0e-7 * (1.0 + 1e-9), 6.0]])
        expected = np.array([[4.0, -0.0, 1.0 / 3.0], [-0.0, 5.0, 2.0e-7],
                             [1.0 / 3.0, 2.0e-7, 6.0]])
        assert symmetric(a).tobytes() == expected.tobytes()  # -0.0 included


class TestJacobiEigen:
    def test_identity(self):
        eig = jacobi_eigen(np.eye(7))
        assert np.array_equal(eig.eigenvalues, np.ones(7))
        assert np.array_equal(eig.eigenvectors, np.eye(7))

    def test_analytic_2x2(self):
        eig = jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert eig.eigenvalues == pytest.approx([3.0, 1.0], rel=1e-12)
        r = 1.0 / np.sqrt(2.0)
        assert eig.eigenvectors[:, 0] == pytest.approx([r, r], rel=1e-12)
        # sign convention: tie on magnitudes breaks to the first component
        assert eig.eigenvectors[:, 1] == pytest.approx([r, -r], rel=1e-12)

    def test_reconstruction_random_6x6(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            sym = _random_symmetric(rng, 6, scale=3.0)
            eig = jacobi_eigen(sym)
            rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            assert np.max(np.abs(rebuilt - sym)) <= 1e-8

    def test_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            eig = jacobi_eigen(_random_symmetric(rng, 7))
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.max(np.abs(gram - np.eye(7))) <= 1e-10

    def test_matches_numpy_eigh(self):
        # independent oracle for both eigenvalues and eigenvector directions
        rng = np.random.default_rng(23)
        for _ in range(20):
            sym = _random_symmetric(rng, 7, scale=2.0)
            eig = jacobi_eigen(sym)
            w_np, v_np = np.linalg.eigh(sym)
            w_np = w_np[::-1]
            v_np = v_np[:, ::-1]
            assert eig.eigenvalues == pytest.approx(w_np, rel=1e-9, abs=1e-9)
            aligns = np.abs(np.sum(eig.eigenvectors * v_np, axis=0))
            assert aligns == pytest.approx(np.ones(7), abs=1e-7)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sym = _random_symmetric(rng, 5)
            eig = jacobi_eigen(sym)
            tr = float(np.trace(sym))
            assert abs(eig.eigenvalues.sum() - tr) <= 1e-8 * max(1.0, abs(tr))

    def test_eigenvalue_product_is_determinant_3x3(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            a = (m + m.T) / 2.0
            # analytic 3x3 determinant by cofactor expansion
            det = (
                a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
                - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
                + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
            )
            eig = jacobi_eigen(a)
            assert np.prod(eig.eigenvalues) == pytest.approx(det, rel=1e-6, abs=1e-9)

    def test_psd_eigenvalues_non_negative(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = rng.normal(size=(7, 4))
            eig = jacobi_eigen(m @ m.T)
            assert np.all(eig.eigenvalues >= -1e-10)

    def test_sorted_descending_with_sign_convention(self):
        rng = np.random.default_rng(13)
        eig = jacobi_eigen(_random_symmetric(rng, 7))
        assert np.all(np.diff(eig.eigenvalues) <= 0.0)
        for j in range(7):
            col = eig.eigenvectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0

    def test_non_convergence_raises(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ConvergenceError, match="residual"):
            jacobi_eigen(a, max_sweeps=0)


class TestSpdSolve:
    """Solving (A + ridge*I) x = b with CholeskyFactor(A, ridge).solve(b)."""

    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        x = CholeskyFactor(np.eye(3)).solve(b)
        assert np.array_equal(x, b)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0])
        x = CholeskyFactor(a).solve(np.array([2.0, 8.0]))
        assert x == pytest.approx([1.0, 2.0], rel=1e-15)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            m = rng.normal(size=(5, 5))
            a = m.T @ m + np.eye(5)
            b = rng.normal(size=5)
            x = CholeskyFactor(a).solve(b)
            residual = np.max(np.abs(a @ x - b))
            assert residual <= 1e-8 * max(1.0, np.max(np.abs(b)))

    def test_not_positive_definite_advises_ridge(self):
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="ridge"):
            CholeskyFactor(a)

    def test_ridge_rescues_singular_matrix(self):
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)  # rank 1
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(a)
        x = CholeskyFactor(a, ridge=1e-8).solve(v)
        assert np.all(np.isfinite(x))

    def test_factor_reuse(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4))
        a = m.T @ m + np.eye(4)
        factor = CholeskyFactor(a)
        for _ in range(5):
            b = rng.normal(size=4)
            assert np.max(np.abs(a @ factor.solve(b) - b)) <= 1e-8

    def test_negative_ridge_rejected(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            CholeskyFactor(a, ridge=-1.0)

    def test_b_shape_validated(self):
        a = np.eye(2)
        with pytest.raises(ValueError):
            CholeskyFactor(a).solve(np.zeros(3))
