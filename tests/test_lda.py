import dataclasses
import itertools
import math

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
    member,
    predict_many,
)
from envload.preprocess import label_dataset
from envload.sampling import SamplerConfig, generate_dataset
from envload.surrogate import SurrogateConfig, simulate_dataset

LOW, MED, HIGH = ClassLabel.LOW, ClassLabel.MEDIUM, ClassLabel.HIGH


def _fit(x, y):
    """A stack of one: LDA on every column of x, in order."""
    x = np.asarray(x)
    return fit_lda(class_stats(x, y).subset([range(x.shape[1])]))


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
        stacked = fit_lda(stats.subset(np.array([[0, 1, 2]])))
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

    def test_unstacked_statistics_rejected(self):
        x, y = _two_class_1d()
        stats = class_stats(x, y)
        with pytest.raises(ValueError, match="stacked statistics"):
            fit_lda(stats)
        for cols in ([0], 0, np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match=r"\(C, s\) column array"):
                stats.subset(cols)

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
                sliced, direct = full.subset([cols]), class_stats(x[:, cols], y)
                assert sliced.classes == direct.classes
                assert sliced.counts.tolist() == direct.counts.tolist()
                assert sliced.n == direct.n
                assert sliced.cols.tolist() == [list(cols)]
                if size > 1:
                    assert np.array_equal(sliced.means[0], direct.means)
                else:
                    # numpy sums a one-column matrix pairwise, the columns of a
                    # wider one row by row
                    np.testing.assert_allclose(sliced.means[0], direct.means, rtol=1e-12)
                np.testing.assert_allclose(sliced.scatter[0], direct.scatter, rtol=1e-12)

    @pytest.mark.parametrize("col", [-1, 7, 100])
    def test_column_outside_the_matrix_rejected(self, data, col):
        full = class_stats(*data)
        with pytest.raises(ValueError, match=f"column {col} is outside 0..6"):
            full.subset([[0, 1], [col, 0]])

    @pytest.mark.parametrize("cols", [[[1.7, 2.2]], [[True, False]], [[1.0, 2.0]]],
                             ids=["float", "bool", "whole-float"])
    def test_columns_that_are_not_integers_rejected(self, data, cols):
        full = class_stats(*data)
        dtype = np.asarray(cols).dtype
        with pytest.raises(ValueError, match=f"columns must be integers, got dtype {dtype}"):
            full.subset(cols)

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

    def test_dimension_mismatch(self):
        # a member of column 1 needs rows of at least 2 features
        x, y = _two_class_1d()
        model = fit_lda(class_stats(np.column_stack([-x, x]), y).subset([[1]]))
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
        with pytest.raises(ValueError, match="one 2-column member"):
            decision_grid(model, [0.0, 1.0], [0.0, 1.0])
        x, y = _three_blobs(np.random.default_rng(5))
        model = fit_lda(class_stats(x, y).subset([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="one 2-column member"):
            decision_grid(model, [0.0, 1.0], [0.0, 1.0])

    def test_member_of_wider_statistics_reads_its_columns(self):
        # a member of columns (3, 1): xs go to column 3 and ys to column 1 of
        # full-width points, and the other columns play no part
        rng = np.random.default_rng(12)
        x2, y = _three_blobs(rng)
        wide = rng.normal(size=(len(y), 4)) * 100.0
        wide[:, [3, 1]] = x2
        model = fit_lda(class_stats(wide, y).subset([[3, 1]]))
        xs, ys = [-1.0, 2.0, 5.0], [0.0, 4.0]
        codes = decision_grid(model, xs, ys)
        points = np.full((6, 4), 1e9)
        points[:, [3, 1]] = [[x, y] for y in ys for x in xs]
        assert codes.tolist() == predict_many(model, points)[:, 0].tolist()
        assert codes.tolist() == _predict(_fit(x2, y), [[x, y] for y in ys for x in xs])

    def test_uneven_axes_are_row_major(self, model_2d):
        xs, ys = [-1.0, 2.0, 5.0], [0.0, 4.0]
        codes = decision_grid(model_2d, xs, ys)
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


class TestStacked:
    """fit_lda and predict_many on a (C, s) column array: each member as if
    fit and scored alone."""

    @pytest.fixture(scope="class", params=range(5))
    def stats(self, request):
        ds = generate_dataset(builtin_material_library(),
                              SamplerConfig(seed=request.param, n_per_material=30))
        ds = label_dataset(simulate_dataset(ds, SurrogateConfig(q_base=0.0, r_wall=1.0)))
        return class_stats(ds.features, ds.labels), ds.features

    def test_every_member_equals_its_stack_of_one(self, stats):
        # member(model, i) takes member i out as a stack of one: every field
        # has the bits of fitting that member alone
        full, _ = stats
        for cols in _members_of_every_size():
            model = fit_lda(full.subset(cols))
            assert model.cols.tolist() == cols.tolist()
            for i, columns in enumerate(cols):
                alone = fit_lda(full.subset([columns]))
                one = member(model, i)
                assert one.failed.tolist() == [False]
                for field in dataclasses.fields(LdaModel):
                    a, b = getattr(one, field.name), getattr(alone, field.name)
                    assert np.shape(a) == np.shape(b), field.name
                    assert _same_bits(a, b), field.name

    def test_predict_many_equals_each_member_alone(self, stats):
        full, x = stats
        rng = np.random.default_rng(0)
        probes = np.vstack([x, x + rng.normal(size=x.shape) * x.std(axis=0)])
        for cols in _members_of_every_size():
            model = fit_lda(full.subset(cols))
            codes = predict_many(model, probes)
            assert codes.shape == (len(probes), len(cols))
            for i, member in enumerate(cols):
                alone = fit_lda(full.subset([member]))
                assert codes[:, i].tolist() == predict_many(alone, probes)[:, 0].tolist()

    def test_members_fail_and_retry_on_their_own(self):
        # column 1 is flat; columns 2 and 3 are one column with pooled variance
        # exactly 1, so (2, 3) factors only with the second ridge
        col = np.array([-1.0, 0.0, 1.0, 9.0, 10.0, 11.0])
        x = np.column_stack([[0.3, -1.2, 2.0, 5.1, 4.4, 7.0], np.full(6, 3.25), col, col])
        stats = class_stats(x, [LOW, LOW, LOW, HIGH, HIGH, HIGH])
        cols = np.array([[0, 1], [2, 3], [0, 2]])
        model = fit_lda(stats.subset(cols))
        assert model.failed.tolist() == [True, False, False]
        assert math.isnan(model.ridge_used[0])
        assert model.ridge_used[1:].tolist() == [RIDGE_LADDER[1], RIDGE_LADDER[0]]
        assert not model.coef[0].any() and not model.intercept[0].any()
        assert fit_lda(stats.subset(cols[[0]])).failed.tolist() == [True]
        for i in (1, 2):
            alone = fit_lda(stats.subset(cols[[i]]))
            assert alone.ridge_used[0] == model.ridge_used[i]
            assert _same_bits(model.coef[i], alone.coef[0])
            assert _same_bits(model.intercept[i], alone.intercept[0])

    def test_every_member_failing_is_marked(self):
        stats = class_stats(np.ones((6, 3)), [LOW, LOW, LOW, HIGH, HIGH, HIGH])
        model = fit_lda(stats.subset(np.array([[0, 1], [1, 2]])))
        assert model.failed.tolist() == [True, True]

    def test_all_classes_tie_goes_to_the_lower_class(self):
        # identical class distributions: every discriminant of every member ties
        x = np.array([[0.0, 2.0], [1.0, 7.0]] * 3)
        y = [LOW, LOW, MED, MED, HIGH, HIGH]
        stats = class_stats(x, y)
        model = fit_lda(stats.subset(np.array([[0], [1]])))
        probes = np.array([[-5.0, 3.0], [0.5, 100.0], [9.0, -1.0]])
        codes = predict_many(model, probes)
        assert codes.tolist() == [[LOW, LOW]] * 3
        for i in range(2):
            alone = fit_lda(stats.subset([[i]]))
            assert predict_many(alone, probes)[:, 0].tolist() == [LOW] * 3

    def test_chunks_do_not_change_codes(self, stats, monkeypatch):
        full, x = stats
        model = fit_lda(full.subset(_members_of_every_size()[3]))
        whole = predict_many(model, x)
        monkeypatch.setattr(lda_mod, "SCORE_CHUNK_BYTES", 8 * 35 * 3 * 7)  # 7 rows a chunk
        assert predict_many(model, x).tolist() == whole.tolist()

    def test_bad_stacks_rejected(self, stats):
        full, x = stats
        with pytest.raises(ValueError, match="repeats a column"):
            full.subset(np.array([[0, 1], [2, 2]]))
        stacked = full.subset(np.array([[0, 6]]))
        with pytest.raises(ValueError, match="unstacked"):
            stacked.subset(np.array([[0]]))
        model = fit_lda(stacked)
        with pytest.raises(ValueError, match="7 features"):
            predict_many(model, x[:, :6])
