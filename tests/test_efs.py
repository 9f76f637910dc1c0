import numpy as np
import pytest

from envload.dataset import ClassLabel, Dataset, FeatureId, builtin_material_library
from envload.efs import (
    CV_FOLDS,
    METRIC_CV5,
    METRIC_TRAIN,
    SUBSETS,
    _cv_fold_ids,
    run_efs,
)
from envload.lda import accuracy, class_stats, fit_lda, predict_many
from envload.preprocess import label_dataset
from envload.sampling import SamplerConfig, generate_dataset
from envload.surrogate import SurrogateConfig, simulate_dataset

LOW, HIGH = ClassLabel.LOW, ClassLabel.HIGH


def fit_all_columns(x: np.ndarray, y):
    """LDA on every column of x, in order: a stack of one, from the class
    statistics of x itself."""
    return fit_lda(class_stats(x, y).subset([range(x.shape[1])]))


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
        assert len(SUBSETS) == 127
        assert len(set(SUBSETS)) == 127

    def test_pairs_of_three(self):
        assert [s for s in SUBSETS if len(s) == 2 and max(s) < 3] == [(0, 1), (0, 2), (1, 2)]

    def test_size_four_of_seven(self):
        assert sum(len(s) == 4 for s in SUBSETS) == 35

    def test_order_is_size_then_lexicographic(self):
        assert all(list(s) == sorted(set(s)) for s in SUBSETS)
        assert list(SUBSETS) == sorted(SUBSETS, key=lambda s: (len(s), s))
        assert SUBSETS[:8] == ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (0, 1))


class TestRunEfs:
    def test_report_shape(self, single_informative):
        report = run_efs(single_informative)
        assert len(report.all_results) == 127
        assert len({r.subset for r in report.all_results}) == 127
        assert sorted(report.best_per_size) == [1, 2, 3, 4, 5, 6, 7]
        assert [tuple(map(int, r.subset)) for r in report.all_results] == list(SUBSETS)
        for r in report.all_results:
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
            [acc] = accuracy(fit_all_columns(xs, y), xs, y)
            if f is FeatureId.SPECIFIC_HEAT_CAPACITY:
                assert acc == 1.0
            else:
                assert acc < 1.0

    def test_best_per_size_survives_independent_second_pass(self, single_informative):
        report = run_efs(single_informative)
        for size, best in report.best_per_size.items():
            candidates = [r for r in report.all_results if len(r.subset) == size]
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
        assert all(len(r.subset) >= len(best.subset) for r in same_metric)

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


def _generated(seed: int) -> Dataset:
    ds = generate_dataset(builtin_material_library(),
                          SamplerConfig(seed=seed, n_per_material=30))
    return label_dataset(simulate_dataset(ds, SurrogateConfig(q_base=0.0, r_wall=1.0)))


def _brute_force_efs(ds: Dataset, metric: str, cv_seed: int = 42) -> list[tuple[float, bool]]:
    """(metric, fit failed) per subset from one fit on the subset's own
    columns per subset, and per fold for cv5."""
    x, y = ds.features, ds.labels
    fold_of = _cv_fold_ids(len(y), cv_seed)
    out = []
    for cols in SUBSETS:
        xs = x[:, cols]
        try:
            if metric == METRIC_TRAIN:
                model = fit_all_columns(xs, y)
                failed = model.failed[0]
                [value] = accuracy(model, xs, y)
            else:
                correct, failed = 0, False
                for fold in range(CV_FOLDS):
                    held = fold_of == fold
                    model = fit_all_columns(xs[~held], y[~held])
                    failed |= model.failed[0]
                    hits = predict_many(model, xs[held])[:, 0] == y[held]
                    correct += int(np.count_nonzero(hits))
                value = correct / len(y)
        except ValueError:  # class_stats: a fold without enough rows of a class
            failed = True
        out.append((0.0, True) if failed else (value, False))
    return out


def _swept(ds: Dataset, metric: str) -> list[tuple[float, bool]]:
    return [(r.metric_value, r.fit_failed) for r in run_efs(ds, metric=metric).all_results]


class TestSharedStatisticsEquivalence:
    """run_efs fits every subset from slices of one set of class statistics
    per training matrix; the results must equal one fit per subset exactly."""

    @pytest.mark.parametrize("metric", [METRIC_TRAIN, METRIC_CV5])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_one_fit_per_subset(self, seed, metric):
        ds = _generated(seed)
        assert _swept(ds, metric) == _brute_force_efs(ds, metric)

    @pytest.mark.parametrize("metric", [METRIC_TRAIN, METRIC_CV5])
    @pytest.mark.parametrize("value", [3.25, 0.1, 2700.0])
    def test_constant_column_fails_its_subsets(self, value, metric):
        # 3.25 and 2700 sum exactly and leave a zero variance; 0.1 leaves
        # rounding noise in the class means. Either way the column carries no
        # signal, so the shared statistics and per-subset fits agree
        ds = _generated(0)
        x = ds.features.copy()
        x[:, FeatureId.DENSITY] = value
        ds = Dataset(ds.material_index, x, loads=ds.loads, labels=ds.labels)
        expected = _brute_force_efs(ds, metric)
        assert _swept(ds, metric) == expected
        subsets = SUBSETS
        assert [cols for cols, (_, failed) in zip(subsets, expected) if failed] == [
            cols for cols in subsets if FeatureId.DENSITY in cols]

    def test_column_flat_in_one_fold_fails_its_subsets(self):
        # density is constant but for two rows of fold 0: only the fit that
        # holds out fold 0 sees a flat column, and that one failure must stick
        ds = _generated(0)
        x = ds.features.copy()
        x[:, FeatureId.DENSITY] = 3.25
        x[np.flatnonzero(_cv_fold_ids(len(x), 42) == 0)[:2], FeatureId.DENSITY] = [1.0, 5.0]
        ds = Dataset(ds.material_index, x, loads=ds.loads, labels=ds.labels)
        expected = _brute_force_efs(ds, METRIC_CV5)
        assert _swept(ds, METRIC_CV5) == expected
        subsets = SUBSETS
        assert [cols for cols, (_, failed) in zip(subsets, expected) if failed] == [
            cols for cols in subsets if FeatureId.DENSITY in cols]

    def test_fold_leaving_one_row_of_a_class_fails_every_subset(self):
        # one HIGH row: the four folds that train on it have a one-row class
        ds = _generated(0)
        labels = ds.labels.copy()
        high = np.flatnonzero(labels == HIGH)
        labels[high[1:]] = ClassLabel.MEDIUM
        ds = Dataset(ds.material_index, ds.features, loads=ds.loads, labels=labels)
        expected = _brute_force_efs(ds, METRIC_CV5)
        assert expected == [(0.0, True)] * 127
        assert _swept(ds, METRIC_CV5) == expected
