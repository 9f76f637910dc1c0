import itertools
import math

import numpy as np
import pytest

from envload.dataset import ClassLabel
from envload.lda import (
    RIDGE_LADDER,
    accuracy,
    class_stats,
    decision_grid,
    discriminants,
    fit_lda,
    grid_axes,
    predict,
    predict_many,
)

LOW, MED, HIGH = ClassLabel.LOW, ClassLabel.MEDIUM, ClassLabel.HIGH


def _two_class_1d():
    x = np.array([[-2.0], [0.0], [0.0], [2.0]])
    y = [LOW, LOW, HIGH, HIGH]
    return x, y


def _three_blobs(rng, n_per=40, spread=0.3):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    xs, ys = [], []
    for lbl, c in zip((LOW, MED, HIGH), centers):
        xs.append(rng.normal(size=(n_per, 2)) * spread + c)
        ys.extend([lbl] * n_per)
    return np.vstack(xs), ys


class TestFit:
    def test_hand_computed_means_and_pooled_variance(self):
        # classes {-2, 0} and {0, 2}: means -1/+1, pooled var
        # ((−2+1)² + (0+1)² + (0−1)² + (2−1)²) / (4−2) = 2
        x, y = _two_class_1d()
        model = fit_lda(class_stats(x, y))
        assert model.classes == (LOW, HIGH)
        assert model.means[:, 0] == pytest.approx([-1.0, 1.0])
        assert model.pooled_covariance[0, 0] == pytest.approx(2.0)
        assert model.log_priors == pytest.approx([math.log(0.5)] * 2)

    def test_duplicated_rows_rescale_pooled_covariance(self):
        # duplicating every row keeps means; scatter doubles while the
        # denominator goes n-K -> 2n-K
        rng = np.random.default_rng(2)
        x, y = _three_blobs(rng, n_per=10)
        n, k = len(y), 3
        base = fit_lda(class_stats(x, y))
        doubled = fit_lda(class_stats(np.vstack([x, x]), y + y))
        assert doubled.means == pytest.approx(base.means)
        expected = base.pooled_covariance * (2 * (n - k)) / (2 * n - k)
        assert doubled.pooled_covariance == pytest.approx(expected)

    def test_ridge_used_is_the_ladder_step_that_factored(self):
        rng = np.random.default_rng(3)
        x, y = _three_blobs(rng, n_per=10)
        assert fit_lda(class_stats(x, y)).ridge_used == 0.0
        # a repeated column with pooled variance exactly 1 makes the pooled
        # covariance exactly singular: the second Cholesky pivot is 1 - 1 = 0
        col = np.array([-1.0, 0.0, 1.0, 9.0, 10.0, 11.0])
        labels = [LOW, LOW, LOW, HIGH, HIGH, HIGH]
        singular = fit_lda(class_stats(np.column_stack([col, col]), labels))
        assert singular.ridge_used == RIDGE_LADDER[1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            class_stats(np.array([[1.0], [2.0], [3.0]]), [LOW, LOW, LOW])

    def test_class_with_one_row_rejected(self):
        with pytest.raises(ValueError, match="high"):
            class_stats(np.array([[1.0], [2.0], [3.0]]), [LOW, LOW, HIGH])

    def test_identical_rows_rejected(self):
        x = np.ones((6, 2))
        y = [LOW, LOW, LOW, HIGH, HIGH, HIGH]
        with pytest.raises(ValueError, match="covariance"):
            fit_lda(class_stats(x, y))

    @pytest.mark.parametrize("bad", [3, -1, 0.5])
    def test_label_not_a_class_code_rejected(self, bad):
        x = np.arange(6.0).reshape(6, 1)
        with pytest.raises(ValueError, match="ClassLabel codes"):
            class_stats(x, [LOW, LOW, HIGH, HIGH, bad, bad])

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError):
            class_stats(np.zeros((3, 1)), [LOW, HIGH])


class TestClassStats:
    @pytest.fixture()
    def data(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(150, 7)) * [1.0, 1e3, 1e-3, 5.0, 7.0, 9.0, 11.0] + 100.0
        y = rng.choice([LOW, MED, HIGH], size=150)
        return x, y

    def test_subset_equals_stats_of_the_columns(self, data):
        x, y = data
        full = class_stats(x, y)
        for size in range(1, 8):
            for cols in itertools.combinations(range(7), size):
                sliced, direct = full.subset(cols), class_stats(x[:, cols], y)
                assert sliced.classes == direct.classes
                assert sliced.counts.tolist() == direct.counts.tolist()
                assert sliced.n == direct.n
                if size > 1:
                    assert np.array_equal(sliced.means, direct.means)
                else:
                    # numpy sums a one-column matrix pairwise, the columns of a
                    # wider one row by row
                    np.testing.assert_allclose(sliced.means, direct.means, rtol=1e-12)
                np.testing.assert_allclose(sliced.scatter, direct.scatter, rtol=1e-12)

    def test_counts_follow_classes(self):
        x = np.arange(7.0).reshape(7, 1)
        stats = class_stats(x, [HIGH, LOW, HIGH, LOW, LOW, HIGH, HIGH])
        assert stats.classes == (LOW, HIGH)
        assert stats.counts.tolist() == [3, 4]
        assert stats.n == 7


class TestPredict:
    def test_symmetric_midpoint_boundary(self):
        x, y = _two_class_1d()
        model = fit_lda(class_stats(x, y))
        assert predict(model, np.array([0.5])) is HIGH
        assert predict(model, np.array([-0.5])) is LOW

    def test_matches_brute_force_discriminants(self):
        # delta_k(x) = x S^-1 mu_k - mu_k S^-1 mu_k / 2 + log pi_k evaluated
        # directly, including unequal priors
        x = np.array([[-1.0], [-1.5], [-0.5], [-2.0], [-1.2], [-0.8],
                      [-1.1], [-0.9], [-1.3], [1.0], [0.6]])
        y = [LOW] * 9 + [HIGH] * 2
        model = fit_lda(class_stats(x, y))
        s = model.pooled_covariance[0, 0]
        mu = {lbl: x[np.array(y) == lbl].mean() for lbl in (LOW, HIGH)}
        pi = {LOW: 9 / 11, HIGH: 2 / 11}
        for probe in np.linspace(-3.0, 3.0, 61):
            delta = {
                lbl: probe * mu[lbl] / s - 0.5 * mu[lbl] ** 2 / s + math.log(pi[lbl])
                for lbl in (LOW, HIGH)
            }
            expected = LOW if delta[LOW] >= delta[HIGH] else HIGH
            assert predict(model, np.array([probe])) is expected

    def test_nearest_centroid_when_covariance_is_identity(self):
        # residual pattern (+-a, 0), (0, +-a) per class gives pooled
        # covariance exactly (2 a^2 K / (n - K)) I; a chosen to make it I
        a = math.sqrt(1.5)
        residuals = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        x = np.vstack([c + residuals for c in centers])
        y = [LOW] * 4 + [MED] * 4 + [HIGH] * 4
        model = fit_lda(class_stats(x, y))
        assert model.pooled_covariance == pytest.approx(np.eye(2))
        assert predict(model, np.array([3.9, 0.1])) is MED  # mean (4, 0)
        rng = np.random.default_rng(55)
        probes = rng.uniform(-2.0, 6.0, size=(1000, 2))
        ours = predict_many(model, probes)
        nearest = [
            model.classes[int(np.argmin(np.sum((centers - p) ** 2, axis=1)))]
            for p in probes
        ]
        assert ours.tolist() == nearest

    def test_tie_breaks_to_lower_class(self):
        # identical class distributions make every discriminant tie
        x = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = [LOW, LOW, HIGH, HIGH]
        model = fit_lda(class_stats(x, y))
        assert predict(model, np.array([0.7])) is LOW

    def test_dimension_mismatch(self):
        x, y = _two_class_1d()
        model = fit_lda(class_stats(x, y))
        with pytest.raises(ValueError):
            predict(model, np.array([1.0, 2.0]))


class TestInvariances:
    def test_affine_invariance_of_decisions(self):
        rng = np.random.default_rng(8)
        x, y = _three_blobs(rng)
        base = fit_lda(class_stats(x, y))
        probes = rng.uniform(-2.0, 6.0, size=(200, 2))
        for _ in range(5):
            m = rng.normal(size=(2, 2))
            while abs(np.linalg.det(m)) < 0.3:
                m = rng.normal(size=(2, 2))
            shift = rng.normal(size=2) * 3.0
            transformed = fit_lda(class_stats(x @ m.T + shift, y))
            assert predict_many(transformed, probes @ m.T + shift).tolist() == predict_many(
                base, probes
            ).tolist()

    def test_scale_invariance_of_labels(self):
        rng = np.random.default_rng(21)
        x, y = _three_blobs(rng)
        base = fit_lda(class_stats(x, y))
        scaled = fit_lda(class_stats(x * 37.5, y))
        probes = rng.uniform(-2.0, 6.0, size=(200, 2))
        assert predict_many(scaled, probes * 37.5).tolist() == predict_many(base, probes).tolist()


class TestAccuracy:
    def test_separable_toy_scores_one(self):
        rng = np.random.default_rng(14)
        x, y = _three_blobs(rng, spread=0.1)
        model = fit_lda(class_stats(x, y))
        assert accuracy(model, x, y) == 1.0

    def test_flipped_labels_complement(self):
        # overlapping 2-class toy: accuracy against flipped labels is 1 - acc
        rng = np.random.default_rng(33)
        x = np.vstack([rng.normal(size=(30, 2)) * 2.5,
                       rng.normal(size=(30, 2)) * 2.5 + 1.0])
        y = [LOW] * 30 + [HIGH] * 30
        model = fit_lda(class_stats(x, y))
        acc = accuracy(model, x, y)
        assert 0.0 < acc < 1.0
        flipped = [LOW if lbl is HIGH else HIGH for lbl in y]
        assert accuracy(model, x, flipped) == pytest.approx(1.0 - acc)

    def test_training_accuracy_beats_majority_prior(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            n_per = int(rng.integers(5, 40))
            spread = float(rng.uniform(0.2, 4.0))
            x, y = _three_blobs(rng, n_per=n_per, spread=spread)
            model = fit_lda(class_stats(x, y))
            majority = max(np.mean([lbl is c for lbl in y]) for c in set(y))
            assert accuracy(model, x, y) >= majority

    def test_empty_dataset_rejected(self):
        x, y = _two_class_1d()
        model = fit_lda(class_stats(x, y))
        with pytest.raises(ValueError):
            accuracy(model, np.zeros((0, 1)), [])


def _grid(model, bounds, resolution):
    """decision_grid over the grid_axes values as (x, y, ClassLabel) points,
    row-major like its codes."""
    xs, ys = grid_axes(bounds, resolution)
    codes = decision_grid(model, xs, ys).tolist()
    assert len(codes) == len(xs) * len(ys)
    return [(x, y, ClassLabel(c)) for (y, x), c in zip(itertools.product(ys, xs), codes)]


class TestDecisionGrid:
    @pytest.fixture()
    def model_2d(self):
        rng = np.random.default_rng(92)
        x, y = _three_blobs(rng)
        return fit_lda(class_stats(x, y))

    def test_grid_matches_pointwise_prediction(self, model_2d):
        grid = _grid(model_2d, (-1.0, 5.0, -1.0, 5.0), 9)
        assert len(grid) == 81
        for px, py, lbl in grid:
            assert predict(model_2d, np.array([px, py])) is lbl

    def test_doubling_resolution_agrees_at_shared_points(self, model_2d):
        coarse = _grid(model_2d, (-1.0, 5.0, -1.0, 5.0), 11)
        fine = _grid(model_2d, (-1.0, 5.0, -1.0, 5.0), 21)
        coarse_map = {(px, py): lbl for px, py, lbl in coarse}
        fine_map = {(px, py): lbl for px, py, lbl in fine}
        shared = set(coarse_map) & set(fine_map)
        assert len(shared) == len(coarse)  # halved step hits the same floats
        assert all(coarse_map[p] == fine_map[p] for p in shared)

    def test_two_class_boundary_is_straight(self):
        x = np.array([[-2.0, 0.3], [-1.0, -0.2], [-1.5, 1.1], [-0.7, 0.6],
                      [2.0, -0.3], [1.0, 0.2], [1.5, -1.1], [0.7, -0.6]])
        y = [LOW] * 4 + [HIGH] * 4
        model = fit_lda(class_stats(x, y))
        n = 41
        grid = _grid(model, (-3.0, 3.0, -3.0, 3.0), n)
        cell = 6.0 / (n - 1)
        crossings = []
        for j in range(n):  # per grid row, x where the label flips
            row = grid[j * n : (j + 1) * n]
            for (x0, y0, l0), (x1, _, l1) in zip(row, row[1:]):
                if l0 != l1:
                    crossings.append((0.5 * (x0 + x1), y0))
                    break
        assert len(crossings) >= 10
        xs = np.array([c[0] for c in crossings])
        # collinear within one cell width: second differences stay below the
        # grid quantization (plus float slack)
        assert np.max(np.abs(np.diff(xs, 2))) <= cell * (1.0 + 1e-12)

    def test_requires_two_features(self):
        x, y = _two_class_1d()
        model = fit_lda(class_stats(x, y))
        with pytest.raises(ValueError, match="2-feature"):
            decision_grid(model, [0.0, 1.0], [0.0, 1.0])

    def test_uneven_axes_are_row_major(self, model_2d):
        xs, ys = [-1.0, 2.0, 5.0], [0.0, 4.0]
        codes = decision_grid(model_2d, xs, ys)
        points = [[x, y] for y in ys for x in xs]
        assert codes.tolist() == predict_many(model_2d, np.array(points)).tolist()

    def test_resolution_validation(self):
        for resolution in (1, (2, 1), (0, 5)):
            with pytest.raises(ValueError, match="resolution"):
                grid_axes((0.0, 1.0, 0.0, 1.0), resolution)

    def test_bounds_validation(self):
        for bounds in ((1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 2.0, 2.0)):
            with pytest.raises(ValueError, match="bounds"):
                grid_axes(bounds, 5)


class TestFeatureOrdering:
    def test_coefficients_follow_input_columns(self):
        # label depends only on column j; the dominant coefficient must sit
        # at index j for every j
        rng = np.random.default_rng(44)
        for j in range(7):
            x = rng.normal(size=(200, 7))
            y = [HIGH if row[j] > 0 else LOW for row in x]
            x[:, j] *= 5.0  # widen the separating direction
            y = [HIGH if row[j] > 0 else LOW for row in x]
            model = fit_lda(class_stats(x, y))
            contrast = np.abs(model.coef[1] - model.coef[0])
            assert int(np.argmax(contrast)) == j
