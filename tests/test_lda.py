import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from envload.dataset import ClassLabel, builtin_material_library
from envload import lda as lda_mod
from envload.lda import (
    RIDGE_LADDER,
    LdaModel,
    accuracy,
    class_stats,
    decision_grid,
    fit_lda,
    grid_axes,
    predict_many,
)
from envload.numerics import CholeskyFactor
from envload.preprocess import label_dataset
from envload.sampling import SamplerConfig, generate_dataset
from envload.surrogate import SurrogateConfig, simulate_dataset

LOW, MED, HIGH = ClassLabel.LOW, ClassLabel.MEDIUM, ClassLabel.HIGH


def reference_predict(model, x):
    """predict_many as one member-major product and np.argmax over each
    member's classes: the reference that its comparisons must match."""
    x = np.asarray(x, dtype=np.float64)
    c, k, _ = model.coef.shape
    weights = np.zeros((x.shape[1], c, k))
    for i, cols in enumerate(model.cols):
        real = cols >= 0
        weights[cols[real], i] = model.coef[i][:, real].T
    scores = x @ weights.reshape(x.shape[1], c * k) + model.intercept.reshape(c * k)
    codes = np.asarray(model.classes, dtype=np.int8)
    return codes[np.argmax(scores.reshape(len(x), c, k), axis=2)]


def _fit(x, y):
    """A stack of one: LDA on every column of x, in order."""
    x = np.asarray(x)
    return fit_lda(class_stats(x, y), [range(x.shape[1])])


def _predict(model, x):
    """The codes of the stack of one's only member."""
    return [ClassLabel(c) for c in predict_many(model, x)[:, 0].tolist()]


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
        model = _fit(x, y)
        assert model.classes == (LOW, HIGH)
        assert model.means[0, :, 0] == pytest.approx([-1.0, 1.0])
        assert model.pooled_covariance[0, 0, 0] == pytest.approx(2.0)
        assert model.log_priors == pytest.approx([math.log(0.5)] * 2)

    def test_duplicated_rows_rescale_pooled_covariance(self):
        # duplicating every row keeps means; scatter doubles while the
        # denominator goes n-K -> 2n-K
        rng = np.random.default_rng(2)
        x, y = _three_blobs(rng, n_per=10)
        n, k = len(y), 3
        base = _fit(x, y)
        doubled = _fit(np.vstack([x, x]), y + y)
        assert doubled.means == pytest.approx(base.means)
        expected = base.pooled_covariance * (2 * (n - k)) / (2 * n - k)
        assert doubled.pooled_covariance == pytest.approx(expected)

    def test_ridge_used_is_the_ladder_step_that_factored(self):
        rng = np.random.default_rng(3)
        x, y = _three_blobs(rng, n_per=10)
        assert _fit(x, y).ridge_used.tolist() == [0.0]
        # a repeated column with pooled variance exactly 1 makes the pooled
        # covariance exactly singular: the second Cholesky pivot is 1 - 1 = 0
        col = np.array([-1.0, 0.0, 1.0, 9.0, 10.0, 11.0])
        labels = [LOW, LOW, LOW, HIGH, HIGH, HIGH]
        singular = _fit(np.column_stack([col, col]), labels)
        assert singular.ridge_used.tolist() == [RIDGE_LADDER[1]]

    def test_collinear_member_takes_the_first_ridge(self):
        # column 2 copies column 1; with 4 rows per class the scatter is exact,
        # and the last Cholesky pivot of (0, 1, 2) rounds to a tiny positive
        # value rather than 0, which must not pass for a factor at ridge 0
        u = [5.0, 9.0, -4.0, -6.0, 6.0, 6.0, 0.0, -7.0]
        v = [6.0, 0.0, -7.0, -7.0, -2.0, 4.0, -2.0, 6.0]
        stats = class_stats(np.column_stack([u, v, v]), [LOW] * 4 + [HIGH] * 4)
        stacked = fit_lda(stats, np.array([[0, 1, 2]]))
        assert stacked.ridge_used.tolist() == [RIDGE_LADDER[1]]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            class_stats(np.array([[1.0], [2.0], [3.0]]), [LOW, LOW, LOW])

    def test_class_with_one_row_rejected(self):
        with pytest.raises(ValueError, match="high"):
            class_stats(np.array([[1.0], [2.0], [3.0]]), [LOW, LOW, HIGH])

    def test_identical_rows_rejected(self):
        # zero within-class covariance: the member fails, and scores nothing
        x = np.ones((6, 2))
        y = [LOW, LOW, LOW, HIGH, HIGH, HIGH]
        model = _fit(x, y)
        assert model.failed.tolist() == [True]
        assert math.isnan(model.ridge_used[0])
        assert not model.coef.any() and not model.intercept.any()

    def test_column_array_not_2d_rejected(self):
        x, y = _two_class_1d()
        stats = class_stats(x, y)
        for cols in ([0], 0, np.zeros((1, 1, 1), dtype=int)):
            with pytest.raises(ValueError, match=r"\(C, w\) column array"):
                fit_lda(stats, cols)

    @pytest.mark.parametrize("bad, message", [
        (3, "row 4, column label: not a class code, got 3"),
        (-1, "row 4, column label: not a class code, got -1"),
        (0.5, "column label: values do not fit int8"),
    ], ids=["3", "-1", "0.5"])
    def test_label_not_a_class_code_rejected(self, bad, message):
        x = np.arange(6.0).reshape(6, 1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
        # fit_lda slices a member's statistics from the full ones: its class
        # means and pooled covariance are those of class_stats of its columns
        x, y = data
        full = class_stats(x, y)
        for size in range(1, 8):
            for cols in itertools.combinations(range(7), size):
                sliced, direct = fit_lda(full, [cols]), class_stats(x[:, cols], y)
                assert sliced.classes == direct.classes
                assert sliced.cols.tolist() == [list(cols)]
                if size > 1:
                    assert np.array_equal(sliced.means[0], direct.means)
                else:
                    # numpy sums a one-column matrix pairwise, the columns of a
                    # wider one row by row
                    np.testing.assert_allclose(sliced.means[0], direct.means, rtol=1e-12)
                pooled = direct.scatter / (direct.n - len(direct.classes))
                np.testing.assert_allclose(sliced.pooled_covariance[0], pooled, rtol=1e-12)

    @pytest.mark.parametrize("col", [-1, 7, 100])
    def test_column_outside_the_matrix_rejected(self, data, col):
        full = class_stats(*data)
        with pytest.raises(ValueError, match=f"column {col} is outside 0..6"):
            fit_lda(full, [[0, 1], [col, 0]])

    @pytest.mark.parametrize("cols", [[[1.7, 2.2]], [[True, False]], [[1.0, 2.0]]],
                             ids=["float", "bool", "whole-float"])
    def test_columns_that_are_not_integers_rejected(self, data, cols):
        full = class_stats(*data)
        dtype = np.asarray(cols).dtype
        with pytest.raises(ValueError, match=f"columns must be integers, got dtype {dtype}"):
            fit_lda(full, cols)

    def test_counts_follow_classes(self):
        x = np.arange(7.0).reshape(7, 1)
        stats = class_stats(x, [HIGH, LOW, HIGH, LOW, LOW, HIGH, HIGH])
        assert stats.classes == (LOW, HIGH)
        assert stats.counts.tolist() == [3, 4]
        assert stats.n == 7


class TestPredict:
    def test_symmetric_midpoint_boundary(self):
        x, y = _two_class_1d()
        model = _fit(x, y)
        assert _predict(model, [[0.5], [-0.5]]) == [HIGH, LOW]

    def test_matches_brute_force_discriminants(self):
        # delta_k(x) = x S^-1 mu_k - mu_k S^-1 mu_k / 2 + log pi_k evaluated
        # directly, including unequal priors
        x = np.array([[-1.0], [-1.5], [-0.5], [-2.0], [-1.2], [-0.8],
                      [-1.1], [-0.9], [-1.3], [1.0], [0.6]])
        y = [LOW] * 9 + [HIGH] * 2
        model = _fit(x, y)
        s = model.pooled_covariance[0, 0, 0]
        mu = {lbl: x[np.array(y) == lbl].mean() for lbl in (LOW, HIGH)}
        pi = {LOW: 9 / 11, HIGH: 2 / 11}
        probes = np.linspace(-3.0, 3.0, 61)
        expected = []
        for probe in probes:
            delta = {
                lbl: probe * mu[lbl] / s - 0.5 * mu[lbl] ** 2 / s + math.log(pi[lbl])
                for lbl in (LOW, HIGH)
            }
            expected.append(LOW if delta[LOW] >= delta[HIGH] else HIGH)
        assert _predict(model, probes[:, None]) == expected

    def test_nearest_centroid_when_covariance_is_identity(self):
        # residual pattern (+-a, 0), (0, +-a) per class gives pooled
        # covariance exactly (2 a^2 K / (n - K)) I; a chosen to make it I
        a = math.sqrt(1.5)
        residuals = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        x = np.vstack([c + residuals for c in centers])
        y = [LOW] * 4 + [MED] * 4 + [HIGH] * 4
        model = _fit(x, y)
        assert model.pooled_covariance[0] == pytest.approx(np.eye(2))
        assert _predict(model, [[3.9, 0.1]]) == [MED]  # mean (4, 0)
        rng = np.random.default_rng(55)
        probes = rng.uniform(-2.0, 6.0, size=(1000, 2))
        ours = _predict(model, probes)
        nearest = [
            model.classes[int(np.argmin(np.sum((centers - p) ** 2, axis=1)))]
            for p in probes
        ]
        assert ours == nearest

    def test_tie_breaks_to_lower_class(self):
        # identical class distributions make every discriminant tie
        x = np.array([[0.0], [1.0], [0.0], [1.0]])
        y = [LOW, LOW, HIGH, HIGH]
        model = _fit(x, y)
        assert _predict(model, [[0.7]]) == [LOW]

    @pytest.mark.parametrize("labels", [[LOW, HIGH], [LOW, MED, HIGH]], ids=["2-class", "3-class"])
    def test_exact_ties_match_the_argmax_reference(self, labels):
        # small integers make every score exact in any summation order, so
        # two classes tie exactly wherever their integer scores are equal;
        # member 3 failed, so its scores are all zero and it predicts the
        # lowest class everywhere
        rng = np.random.default_rng(4)
        y = np.repeat(labels, 4)
        stats = class_stats(rng.normal(size=(len(y), 4)), y)
        cols = np.array([[0, 1, 2], [3, -1, -1], [2, 0, -1], [1, 3, -1], [0, 1, 2]])
        model = fit_lda(stats, cols)
        coef = rng.integers(-2, 3, size=model.coef.shape) * (cols >= 0)[:, None, :]
        intercept = rng.integers(-2, 3, size=model.intercept.shape)
        coef[4], intercept[4] = 0, 0
        model = dataclasses.replace(model, coef=coef.astype(float),
                                    intercept=intercept.astype(float),
                                    failed=np.arange(5) == 4)
        x = rng.integers(-3, 4, size=(500, 4)).astype(float)
        codes = predict_many(model, x)
        assert codes.tolist() == reference_predict(model, x).tolist()
        assert (codes[:, 4] == labels[0]).all()
        # the ties are there: many rows share a member's best score
        real = cols >= 0
        exact = np.stack([x[:, cols[i][real[i]]] @ coef[i][:, real[i]].T + intercept[i]
                          for i in range(4)], axis=1)
        assert ((exact == exact.max(axis=2, keepdims=True)).sum(axis=2) > 1).sum() > 100

    def test_fits_match_the_argmax_reference(self):
        rng = np.random.default_rng(19)
        x, y = _three_blobs(rng, spread=1.5)
        x = np.column_stack([x, rng.normal(size=(len(y), 2))])
        cols = [list(c) + [-1] * (4 - len(c))
                for size in range(1, 5) for c in itertools.combinations(range(4), size)]
        model = fit_lda(class_stats(x, y), cols)
        probes = rng.uniform(-3.0, 7.0, size=(2000, 4))
        assert predict_many(model, probes).tolist() == reference_predict(model, probes).tolist()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # a NaN score would make the comparisons disagree with np.argmax
        x, y = _three_blobs(np.random.default_rng(6))
        model = _fit(x, y)
        probes = x.copy()
        probes[7, 1] = bad
        message = re.escape(f"row 7, column density: not finite, got {bad}")
        with pytest.raises(ValueError, match=message):
            predict_many(model, probes)
        with pytest.raises(ValueError, match=message):
            accuracy(model, probes, y)

    def test_dimension_mismatch(self):
        # a member of column 1 needs rows of at least 2 features
        x, y = _two_class_1d()
        model = fit_lda(class_stats(np.column_stack([-x, x]), y), [[1]])
        with pytest.raises(ValueError, match="at least 2 features"):
            predict_many(model, x)


class TestInvariances:
    def test_affine_invariance_of_decisions(self):
        rng = np.random.default_rng(8)
        x, y = _three_blobs(rng)
        base = _fit(x, y)
        probes = rng.uniform(-2.0, 6.0, size=(200, 2))
        for _ in range(5):
            m = rng.normal(size=(2, 2))
            while abs(np.linalg.det(m)) < 0.3:
                m = rng.normal(size=(2, 2))
            shift = rng.normal(size=2) * 3.0
            transformed = _fit(x @ m.T + shift, y)
            assert predict_many(transformed, probes @ m.T + shift).tolist() == predict_many(
                base, probes
            ).tolist()

    def test_scale_invariance_of_labels(self):
        rng = np.random.default_rng(21)
        x, y = _three_blobs(rng)
        base = _fit(x, y)
        scaled = _fit(x * 37.5, y)
        probes = rng.uniform(-2.0, 6.0, size=(200, 2))
        assert predict_many(scaled, probes * 37.5).tolist() == predict_many(base, probes).tolist()


class TestAccuracy:
    def test_separable_toy_scores_one(self):
        rng = np.random.default_rng(14)
        x, y = _three_blobs(rng, spread=0.1)
        model = _fit(x, y)
        assert accuracy(model, x, y).tolist() == [1.0]

    def test_flipped_labels_complement(self):
        # overlapping 2-class toy: accuracy against flipped labels is 1 - acc
        rng = np.random.default_rng(33)
        x = np.vstack([rng.normal(size=(30, 2)) * 2.5,
                       rng.normal(size=(30, 2)) * 2.5 + 1.0])
        y = [LOW] * 30 + [HIGH] * 30
        model = _fit(x, y)
        [acc] = accuracy(model, x, y)
        assert 0.0 < acc < 1.0
        flipped = [LOW if lbl is HIGH else HIGH for lbl in y]
        assert accuracy(model, x, flipped) == pytest.approx([1.0 - acc])

    def test_training_accuracy_beats_majority_prior(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            n_per = int(rng.integers(5, 40))
            spread = float(rng.uniform(0.2, 4.0))
            x, y = _three_blobs(rng, n_per=n_per, spread=spread)
            model = _fit(x, y)
            majority = max(np.mean([lbl is c for lbl in y]) for c in set(y))
            assert accuracy(model, x, y)[0] >= majority

    def test_empty_dataset_rejected(self):
        x, y = _two_class_1d()
        model = _fit(x, y)
        with pytest.raises(ValueError):
            accuracy(model, np.zeros((0, 1)), [])

    def test_labels_must_be_class_codes(self):
        # unchecked, an int8 conversion would score the floats, wrap y + 256
        # to y and overflow on its list; accuracy checks as class_stats does
        rng = np.random.default_rng(14)
        x, y = _three_blobs(rng)
        model = _fit(x, y)
        y = np.asarray(y, dtype=np.int64)
        unfit = "column label: values do not fit int8"
        for bad, message in (([0.7] * len(y), unfit),
                             (y - 3, "row 0, column label: not a class code, got -3"),
                             (y + 256, unfit), ((y + 256).tolist(), unfit), (y + 0.5, unfit)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                accuracy(model, x, bad)
        assert accuracy(model, x, y.astype(np.float64)).tolist() == accuracy(model, x, y).tolist()

    def test_label_count_must_match_rows(self):
        x, y = _two_class_1d()
        model = _fit(x, y)
        with pytest.raises(ValueError,
                           match=re.escape("column label: expected shape (4,), got (3,)")):
            accuracy(model, x, y[:3])


def _grid(model, bounds, resolution):
    """decision_grid over the grid_axes values as (x, y, ClassLabel) points,
    row-major like its codes."""
    xs, ys = grid_axes(bounds, resolution)
    codes = decision_grid(model, 0, xs, ys).tolist()
    assert len(codes) == len(xs) * len(ys)
    return [(x, y, ClassLabel(c)) for (y, x), c in zip(itertools.product(ys, xs), codes)]


class TestDecisionGrid:
    @pytest.fixture()
    def model_2d(self):
        rng = np.random.default_rng(92)
        x, y = _three_blobs(rng)
        return _fit(x, y)

    def test_grid_matches_pointwise_prediction(self, model_2d):
        grid = _grid(model_2d, (-1.0, 5.0, -1.0, 5.0), 9)
        assert len(grid) == 81
        for px, py, lbl in grid:
            assert _predict(model_2d, [[px, py]]) == [lbl]

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
        model = _fit(x, y)
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
        model = _fit(x, y)
        with pytest.raises(ValueError, match="2-column members"):
            decision_grid(model, 0, [0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("i", [-1, 2])
    def test_member_outside_the_stack_rejected(self, i):
        x, y = _three_blobs(np.random.default_rng(5))
        model = fit_lda(class_stats(x, y), [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match=f"member {i} is outside 0..1"):
            decision_grid(model, i, [0.0, 1.0], [0.0, 1.0])

    def test_member_of_wider_statistics_reads_its_columns(self):
        # member 1 of a stack, of columns (3, 1): xs go to column 3 and ys to
        # column 1 of full-width points, and the other columns play no part
        rng = np.random.default_rng(12)
        x2, y = _three_blobs(rng)
        wide = rng.normal(size=(len(y), 4)) * 100.0
        wide[:, [3, 1]] = x2
        model = fit_lda(class_stats(wide, y), [[0, 2], [3, 1]])
        xs, ys = [-1.0, 2.0, 5.0], [0.0, 4.0]
        codes = decision_grid(model, 1, xs, ys)
        points = np.full((6, 4), 1e9)
        points[:, [3, 1]] = [[x, y] for y in ys for x in xs]
        assert codes.tolist() == predict_many(model, points)[:, 1].tolist()
        assert codes.tolist() == _predict(_fit(x2, y), [[x, y] for y in ys for x in xs])

    def test_uneven_axes_are_row_major(self, model_2d):
        xs, ys = [-1.0, 2.0, 5.0], [0.0, 4.0]
        codes = decision_grid(model_2d, 0, xs, ys)
        points = [[x, y] for y in ys for x in xs]
        assert codes.tolist() == predict_many(model_2d, np.array(points))[:, 0].tolist()

    def test_resolution_validation(self):
        for resolution in (1, 0, -3):
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
            model = _fit(x, y)
            contrast = np.abs(model.coef[0, 1] - model.coef[0, 0])
            assert int(np.argmax(contrast)) == j


def _members_of_every_size(p=7):
    return [np.array(list(itertools.combinations(range(p), size))) for size in range(1, p + 1)]


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _ragged(p=7):
    """Every non-empty subset of range(p) as one (2**p - 1, p) column array,
    each row padded with -1."""
    return np.array([list(cols) + [-1] * (p - size) for size in range(1, p + 1)
                     for cols in itertools.combinations(range(p), size)])


class TestStacked:
    """fit_lda and predict_many on a (C, w) column array: each member as if
    fit and scored alone."""

    @pytest.fixture(scope="class", params=range(5))
    def stats(self, request):
        ds = generate_dataset(builtin_material_library(),
                              SamplerConfig(seed=request.param, n_per_material=30))
        ds = label_dataset(simulate_dataset(ds, SurrogateConfig()))
        return class_stats(ds.features, ds.labels), ds.features, ds.labels

    def test_every_member_equals_its_stack_of_one(self, stats):
        # member i of a stack has the bits of fitting it alone in every field:
        # entry i of a per-member field, and all of a shared one
        full, _, _ = stats
        shared = {"classes", "log_priors"}
        for cols in _members_of_every_size():
            model = fit_lda(full, cols)
            assert model.cols.tolist() == cols.tolist()
            assert not model.failed.any()
            for i, columns in enumerate(cols):
                alone = fit_lda(full, [columns])
                for field in dataclasses.fields(LdaModel):
                    a, b = getattr(model, field.name), getattr(alone, field.name)
                    if field.name not in shared:
                        a, b = a[i], b[0]
                    assert np.shape(a) == np.shape(b), field.name
                    assert _same_bits(a, b), field.name

    def test_predict_many_equals_each_member_alone(self, stats):
        full, x, _ = stats
        rng = np.random.default_rng(0)
        probes = np.vstack([x, x + rng.normal(size=x.shape) * x.std(axis=0)])
        for cols in _members_of_every_size():
            model = fit_lda(full, cols)
            codes = predict_many(model, probes)
            assert codes.shape == (len(probes), len(cols))
            for i, member in enumerate(cols):
                alone = fit_lda(full, [member])
                assert codes[:, i].tolist() == predict_many(alone, probes)[:, 0].tolist()

    @pytest.mark.parametrize("collinear", [False, True], ids=["generated", "near-collinear"])
    def test_every_ragged_member_equals_its_stack_of_one(self, stats, collinear):
        # all 127 subsets in one stack, padded to 7 columns: each member's real
        # slots have the bits of its unpadded stack of one, and its padded
        # slots hold +0.0 means and coefficients and identity covariance. A
        # near-collinear column makes the subsets that hold it and its two
        # sources climb the ridge ladder, where a pivot tolerance of the
        # padded size would move the step
        full, x, y = stats
        if collinear:
            z = (x - x.mean(axis=0)) / x.std(axis=0)
            z[:, 6] = z[:, 4] - 0.5 * z[:, 5] + 1e-9 * np.random.default_rng(1).normal(size=len(z))
            full = class_stats(z, y)
        cols = _ragged()
        model = fit_lda(full, cols)
        if collinear:
            assert (model.ridge_used > 0).sum() >= 8
        for i, row in enumerate(cols):
            s = int((row >= 0).sum())
            alone = fit_lda(full, [row[:s]])
            assert model.cols[i].tolist() == row.tolist()
            assert model.failed[i] == alone.failed[0]
            assert _same_bits(model.ridge_used[i], alone.ridge_used[0])
            assert _same_bits(model.intercept[i], alone.intercept[0])
            assert _same_bits(model.coef[i, :, :s], alone.coef[0])
            assert _same_bits(model.means[i, :, :s], alone.means[0])
            assert _same_bits(model.pooled_covariance[i, :s, :s], alone.pooled_covariance[0])
            assert _same_bits(model.coef[i, :, s:], np.zeros((len(full.classes), 7 - s)))
            assert _same_bits(model.means[i, :, s:], np.zeros((len(full.classes), 7 - s)))
            assert _same_bits(model.pooled_covariance[i, s:, :], np.eye(7)[s:])
            assert _same_bits(model.pooled_covariance[i, :s, s:], np.zeros((s, 7 - s)))

    def test_ragged_predictions_equal_each_member_alone(self, stats):
        full, x, _ = stats
        cols = _ragged()
        codes = predict_many(fit_lda(full, cols), x)
        for i, row in enumerate(cols):
            alone = fit_lda(full, [row[row >= 0]])
            assert codes[:, i].tolist() == predict_many(alone, x)[:, 0].tolist()

    def test_padding_keeps_the_members_pivot_tolerance(self):
        # pooled covariance [[1, r], [r, 1]] with r = 1 - 3 * 2**-53: the
        # second pivot is 1 - r * r = 3 eps, above the 2 eps tolerance of a
        # 2-column member and below the 7 eps of a 7-wide stack, so only a
        # tolerance of the member's own size keeps it at ridge 0 when padded
        r = 1.0 - 3 * 2.0 ** -53
        scatter = np.eye(7)
        scatter[0, 1] = scatter[1, 0] = r
        stats = lda_mod.ClassStats((LOW, HIGH), np.array([5, 5]), np.eye(2, 7), 8 * scatter, 10)
        padded = fit_lda(stats, [[0, 1, -1, -1, -1, -1, -1]])
        assert not CholeskyFactor(padded.pooled_covariance).ok.any()
        alone = fit_lda(stats, [[0, 1]])
        assert alone.ridge_used.tolist() == padded.ridge_used.tolist() == [0.0]
        assert _same_bits(padded.coef[0, :, :2], alone.coef[0])

    @pytest.mark.parametrize("cols, message", [
        ([[0, 1], [-1, 0]], "column -1 is outside 0..6"),
        ([[0, -1, 1]], "column -1 is outside 0..6"),
        ([[0, 1], [-1, -1]], "a member of a stacked subset has no columns"),
        ([[2, 2, -1]], "a member of a stacked subset repeats a column"),
    ], ids=["leading", "inner", "empty", "repeat"])
    def test_padding_is_a_trailing_run_of_minus_one(self, cols, message):
        x = np.random.default_rng(0).normal(size=(9, 7))
        stats = class_stats(x, np.repeat([LOW, HIGH], [4, 5]))
        with pytest.raises(ValueError, match=message):
            fit_lda(stats, cols)

    def test_members_fail_and_retry_on_their_own(self):
        # column 1 is flat; columns 2 and 3 are one column with pooled variance
        # exactly 1, so (2, 3) factors only with the second ridge
        col = np.array([-1.0, 0.0, 1.0, 9.0, 10.0, 11.0])
        x = np.column_stack([[0.3, -1.2, 2.0, 5.1, 4.4, 7.0], np.full(6, 3.25), col, col])
        stats = class_stats(x, [LOW, LOW, LOW, HIGH, HIGH, HIGH])
        cols = np.array([[0, 1], [2, 3], [0, 2]])
        model = fit_lda(stats, cols)
        assert model.failed.tolist() == [True, False, False]
        assert math.isnan(model.ridge_used[0])
        assert model.ridge_used[1:].tolist() == [RIDGE_LADDER[1], RIDGE_LADDER[0]]
        assert not model.coef[0].any() and not model.intercept[0].any()
        assert fit_lda(stats, cols[[0]]).failed.tolist() == [True]
        for i in (1, 2):
            alone = fit_lda(stats, cols[[i]])
            assert alone.ridge_used[0] == model.ridge_used[i]
            assert _same_bits(model.coef[i], alone.coef[0])
            assert _same_bits(model.intercept[i], alone.intercept[0])

    def test_every_member_failing_is_marked(self):
        stats = class_stats(np.ones((6, 3)), [LOW, LOW, LOW, HIGH, HIGH, HIGH])
        model = fit_lda(stats, np.array([[0, 1], [1, 2]]))
        assert model.failed.tolist() == [True, True]

    def test_all_classes_tie_goes_to_the_lower_class(self):
        # identical class distributions: every discriminant of every member ties
        x = np.array([[0.0, 2.0], [1.0, 7.0]] * 3)
        y = [LOW, LOW, MED, MED, HIGH, HIGH]
        stats = class_stats(x, y)
        model = fit_lda(stats, np.array([[0], [1]]))
        probes = np.array([[-5.0, 3.0], [0.5, 100.0], [9.0, -1.0]])
        codes = predict_many(model, probes)
        assert codes.tolist() == [[LOW, LOW]] * 3
        for i in range(2):
            alone = fit_lda(stats, [[i]])
            assert predict_many(alone, probes)[:, 0].tolist() == [LOW] * 3

    def test_chunks_do_not_change_codes(self, stats, monkeypatch):
        full, x, _ = stats
        model = fit_lda(full, _members_of_every_size()[3])
        whole = predict_many(model, x)
        monkeypatch.setattr(lda_mod, "SCORE_CHUNK_BYTES", 8 * 35 * 3 * 7)  # 7 rows a chunk
        assert predict_many(model, x).tolist() == whole.tolist()

    def test_bad_stacks_rejected(self, stats):
        full, x, _ = stats
        with pytest.raises(ValueError, match="repeats a column"):
            fit_lda(full, np.array([[0, 1], [2, 2]]))
        model = fit_lda(full, np.array([[0, 6]]))
        with pytest.raises(ValueError, match="7 features"):
            predict_many(model, x[:, :6])
