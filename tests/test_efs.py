from itertools import combinations

import numpy as np
import pytest

from envload.dataset import ClassLabel, Dataset, FeatureId
from envload.efs import (
    METRIC_CV5,
    METRIC_TRAIN,
    enumerate_subsets,
    run_efs,
)
from envload.lda import accuracy, fit_lda

LOW, HIGH = ClassLabel.LOW, ClassLabel.HIGH


def _dataset(x: np.ndarray, y) -> Dataset:
    n = len(y)
    return Dataset(np.zeros(n, dtype=np.int64), x, loads=np.ones(n), labels=y)


def make_single_informative(n=120, seed=60):
    """Label determined solely by feature 3's sign; other features are noise.

    Feature 3 values keep a margin away from zero with balanced signs, so the
    pooled-covariance boundary lands at zero and the singleton subset scores
    a training accuracy of exactly 1.0.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 7))
    magnitudes = rng.uniform(0.5, 3.0, size=n)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    x[:, FeatureId.SPECIFIC_HEAT_CAPACITY] = signs * magnitudes
    y = [HIGH if row[FeatureId.SPECIFIC_HEAT_CAPACITY] > 0 else LOW for row in x]
    return _dataset(x, y)


@pytest.fixture(scope="module")
def single_informative():
    return make_single_informative()


class TestEnumerate:
    def test_full_range_has_127_subsets(self):
        subsets = enumerate_subsets(7, 1, 7)
        assert len(subsets) == 127
        assert len(set(subsets)) == 127

    def test_pairs_of_three(self):
        assert enumerate_subsets(3, 2, 2) == [(0, 1), (0, 2), (1, 2)]

    def test_size_four_of_seven(self):
        assert len(enumerate_subsets(7, 4, 4)) == 35

    def test_order_is_size_then_lexicographic(self):
        subsets = enumerate_subsets(4, 1, 4)
        expected = []
        for size in range(1, 5):
            expected.extend(combinations(range(4), size))
        assert subsets == expected

    @pytest.mark.parametrize("bad", [(0, 3), (2, 1), (1, 8)])
    def test_invalid_ranges(self, bad):
        with pytest.raises(ValueError):
            enumerate_subsets(7, *bad)


class TestRunEfs:
    def test_report_shape(self, single_informative):
        report = run_efs(single_informative)
        assert len(report.all_results) == 127
        assert len({r.subset for r in report.all_results}) == 127
        assert sorted(report.best_per_size) == [1, 2, 3, 4, 5, 6, 7]
        for r in report.all_results:
            assert r.size == len(r.subset)
            assert 0.0 <= r.metric_value <= 1.0

    def test_single_informative_feature_wins_size_one(self, single_informative):
        report = run_efs(single_informative)
        best1 = report.best_per_size[1]
        assert best1.subset == (FeatureId.SPECIFIC_HEAT_CAPACITY,)
        assert best1.metric_value == 1.0
        # verified independently by evaluating all seven singletons
        x = single_informative.features
        y = single_informative.labels
        for f in FeatureId:
            xs = x[:, [int(f)]]
            acc = accuracy(fit_lda(xs, y), xs, y)
            if f is FeatureId.SPECIFIC_HEAT_CAPACITY:
                assert acc == 1.0
            else:
                assert acc < 1.0

    def test_best_per_size_survives_independent_second_pass(self, single_informative):
        report = run_efs(single_informative)
        for size, best in report.best_per_size.items():
            candidates = [r for r in report.all_results if r.size == size]
            assert best.metric_value == max(r.metric_value for r in candidates)
            # tie-breaking: the winner is the first maximal subset in order
            first_max = next(
                r for r in candidates if r.metric_value == best.metric_value
            )
            assert best is first_max

    def test_overall_best_prefers_smaller_then_lexicographic(self, single_informative):
        report = run_efs(single_informative)
        best = report.overall_best
        same_metric = [
            r for r in report.all_results if r.metric_value == best.metric_value
        ]
        assert best is same_metric[0]
        assert all(r.size >= best.size for r in same_metric)

    def test_sequential_and_parallel_sweeps_identical(self, single_informative):
        seq = run_efs(single_informative, n_jobs=1)
        par = run_efs(single_informative, n_jobs=4)
        assert seq.all_results == par.all_results
        assert seq.best_per_size == par.best_per_size
        assert seq.overall_best == par.overall_best

    def test_duplicated_column_tie_breaks_lexicographically(self):
        rng = np.random.default_rng(5)
        signs = np.where(np.arange(80) % 2 == 0, 1.0, -1.0)
        z = signs * rng.uniform(0.5, 3.0, size=80)
        x = rng.normal(size=(80, 7)) * 0.01
        x[:, 1] = z        # density and conductivity carry identical signal
        x[:, 2] = z
        y = [HIGH if v > 0 else LOW for v in z]
        report = run_efs(_dataset(x, y))
        best1 = report.best_per_size[1]
        assert best1.metric_value == 1.0
        assert best1.subset == (FeatureId.DENSITY,)  # index 1 beats index 2

    def test_constant_feature_subset_flagged_not_fatal(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 7))
        x[:, 0] = 3.25  # constant thickness: zero within-class variance alone
        y = [HIGH if v > 0 else LOW for v in x[:, 1]]
        report = run_efs(_dataset(x, y))
        thickness_only = report.all_results[0]
        assert thickness_only.subset == (FeatureId.THICKNESS,)
        assert thickness_only.fit_failed
        assert thickness_only.metric_value == 0.0
        assert not report.best_per_size[1].fit_failed

    def test_unknown_metric_rejected(self, single_informative):
        with pytest.raises(ValueError, match="metric"):
            run_efs(single_informative, metric="auc")

    def test_unlabeled_rows_rejected(self):
        ds = Dataset([0] * 4, [(1.0,) * 7] * 4, loads=[1.0] * 4)
        with pytest.raises(ValueError, match="label"):
            run_efs(ds)


class TestCrossValidation:
    def test_cv5_deterministic_in_seed(self, single_informative):
        a = run_efs(single_informative, metric=METRIC_CV5, cv_seed=3)
        b = run_efs(single_informative, metric=METRIC_CV5, cv_seed=3)
        assert a.all_results == b.all_results

    def test_cv5_differs_from_train_metric(self, single_informative):
        train = run_efs(single_informative, metric=METRIC_TRAIN)
        cv = run_efs(single_informative, metric=METRIC_CV5)
        assert train.metric_kind == METRIC_TRAIN
        assert cv.metric_kind == METRIC_CV5
        assert any(
            t.metric_value != c.metric_value
            for t, c in zip(train.all_results, cv.all_results)
        )

    def test_cv5_metric_bounded(self, single_informative):
        cv = run_efs(single_informative, metric=METRIC_CV5)
        assert all(0.0 <= r.metric_value <= 1.0 for r in cv.all_results)
        # the informative singleton generalizes across folds too
        assert cv.best_per_size[1].subset == (FeatureId.SPECIFIC_HEAT_CAPACITY,)
        assert cv.best_per_size[1].metric_value == 1.0
