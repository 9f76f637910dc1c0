import numpy as np
import pytest

from envload.numerics import (
    CholeskyFactor,
    ConvergenceError,
    NotPositiveDefiniteError,
    jacobi_eigen,
    ordered_dot,
    symmetric,
)

EPS = np.finfo(np.float64).eps


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


def _spd_stack(rng, c, n):
    """c well-conditioned SPD matrices: M M' + n I."""
    m = rng.normal(size=(c, n, n))
    return m @ m.swapaxes(1, 2) + n * np.eye(n)


class TestStackedCholesky:
    """CholeskyFactor on a (C, n, n) stack: each member as if alone."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_agrees_with_numpy(self, n):
        rng = np.random.default_rng(60 + n)
        a = _spd_stack(rng, 20, n)
        b = rng.normal(size=(20, 3, n))
        # backward-stable factor and solves: forward error within a small
        # multiple of n * eps * cond(A), relative to the size of the result
        tol = 16 * n * EPS * np.linalg.cond(a)
        factor = CholeskyFactor(a)
        assert factor.ok.all()
        want_lower = np.linalg.cholesky(a)
        want_x = np.linalg.solve(a[:, None], b[..., None])[..., 0]
        got_x = factor.solve(b)
        for i in range(20):
            for got, want in ((factor.lower[i], want_lower[i]), (got_x[i], want_x[i])):
                assert np.abs(got - want).max() <= tol[i] * np.abs(want).max()

    def test_every_member_equals_a_stack_of_one(self):
        rng = np.random.default_rng(8)
        a = _spd_stack(rng, 12, 5)
        a[3] = np.outer(np.arange(1.0, 6.0), np.arange(1.0, 6.0))  # rank 1
        a[7, 2, 2] = -1.0 - a[7, 2, 2]                             # indefinite
        b = rng.normal(size=(12, 2, 5))
        for ridge in (0.0, 1e-8):
            factor = CholeskyFactor(a, ridge)
            x = factor.solve(b)
            assert factor.ok.tolist() == [i not in (3, 7) or (i == 3 and ridge > 0)
                                          for i in range(12)]
            for i in range(12):
                if not factor.ok[i]:
                    with pytest.raises(NotPositiveDefiniteError) as err:
                        CholeskyFactor(a[i], ridge)
                    assert str(err.value) == str(factor.error(i))
                    assert np.isfinite(x[i]).all()  # failed members stay finite
                    continue
                alone = CholeskyFactor(a[i], ridge)
                assert alone.lower.tobytes() == factor.lower[i].tobytes()
                for j in range(2):
                    assert alone.solve(b[i, j]).tobytes() == x[i, j].tobytes()

    def test_first_failing_pivot_is_reported(self):
        a = np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, -3.0]])])
        factor = CholeskyFactor(a)
        assert factor.ok.tolist() == [True, False]
        assert str(factor.error(1)).startswith("pivot -3 at row 1 is not positive")

    def test_pivot_of_rounding_size_fails(self):
        # the pooled scatter of a column and its copy over 6 degrees of freedom:
        # singular, yet the last pivot rounds to a tiny positive value, not 0
        a = np.array([[268.75, 70.5, 70.5], [70.5, 169.0, 169.0], [70.5, 169.0, 169.0]]) / 6
        factor = CholeskyFactor(np.stack([a, np.eye(3)]))
        assert factor.ok.tolist() == [False, True]
        assert str(factor.error(0)).startswith("pivot 3.55271e-15 at row 2 is not positive")
        with pytest.raises(NotPositiveDefiniteError):
            CholeskyFactor(a)
        assert CholeskyFactor(np.stack([a]), 1e-8).ok.all()

    def test_stack_shapes_validated(self):
        factor = CholeskyFactor(np.stack([np.eye(2)] * 3))
        with pytest.raises(ValueError, match="shape"):
            factor.solve(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            factor.solve(np.zeros((2, 1, 2)))
        with pytest.raises(ValueError):
            CholeskyFactor(np.zeros((1, 1, 2, 2)) + np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            CholeskyFactor(np.stack([np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]])]))


class TestOrderedDot:
    def test_sums_in_index_order(self):
        # in index order 1e16 + 1 rounds the first 1 away; in reverse order
        # -1e16 + 1 rounds the last one away; the exact sum is 2
        a = np.array([1e16, 1.0, -1e16, 1.0])
        assert ordered_dot(a, np.ones(4)) == 1.0
        assert ordered_dot(np.zeros((3, 0)), np.zeros((3, 0))).tolist() == [0.0] * 3

    def test_leading_shape_does_not_change_bits(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(50, 7)), rng.normal(size=(50, 7))
        stacked = ordered_dot(a, b)
        assert all(ordered_dot(a[i], b[i]).tobytes() == stacked[i].tobytes()
                   for i in range(50))
