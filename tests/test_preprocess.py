import math
from collections import Counter

import numpy as np
import pytest

from envload.dataset import ClassLabel, Dataset
from envload.preprocess import (
    Normalizer,
    SplitConfig,
    Thresholds,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    split,
)


def label_load(load: float, thresholds: Thresholds = Thresholds()) -> ClassLabel:
    """The labelling rule for one load, the reference for label_dataset."""
    if load >= thresholds.high_min:
        return ClassLabel.HIGH
    if load <= thresholds.low_max:
        return ClassLabel.LOW
    return ClassLabel.MEDIUM


def _labels(loads, thresholds: Thresholds = Thresholds()) -> list[ClassLabel]:
    ds = Dataset([0] * len(loads), [(1.0,) * 7] * len(loads), loads=loads)
    return list(map(ClassLabel, label_dataset(ds, thresholds).labels.tolist()))


class TestLabeling:
    def test_boundary_values(self):
        assert _labels([90.0, 75.0, 82.5]) == [ClassLabel.HIGH, ClassLabel.LOW, ClassLabel.MEDIUM]

    def test_just_inside_the_band(self):
        assert _labels([math.nextafter(75.0, 90.0), math.nextafter(90.0, 0.0)]) == [
            ClassLabel.MEDIUM, ClassLabel.MEDIUM]

    def test_monotone_in_load(self):
        labels = _labels(np.linspace(0.0, 200.0, 801))
        assert labels == sorted(labels)
        assert set(labels) == set(ClassLabel)

    def test_custom_thresholds(self):
        t = Thresholds(low_max=10.0, high_min=20.0)
        assert _labels([10.0, 15.0, 20.0], t) == [
            ClassLabel.LOW, ClassLabel.MEDIUM, ClassLabel.HIGH]

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            Thresholds(low_max=90.0, high_min=75.0)

    def test_label_dataset_matches_label_load(self):
        t = Thresholds()
        loads = [0.0, 75.0, math.nextafter(75.0, 90.0), 82.5,
                 math.nextafter(90.0, 0.0), 90.0, 1e6]
        assert _labels(loads, t) == [label_load(q, t) for q in loads]

    def test_label_dataset_requires_loads(self):
        ds = Dataset([0], [(1.0,) * 7])
        with pytest.raises(ValueError, match="load"):
            label_dataset(ds)


def _labeled(counts: dict[ClassLabel, int]) -> Dataset:
    labels = [lbl for lbl, n in counts.items() for _ in range(n)]
    n = len(labels)
    features = [(float(i), 0.0, 0.0, 0.0, 0.5, 0.5, 0.5) for i in range(n)]
    return Dataset([0] * n, features, loads=[1.0] * n, labels=labels)


def _rows(ds: Dataset) -> Counter:
    """The dataset as a multiset of (material_index, features, load, label) rows."""
    return Counter(zip(ds.material_index.tolist(), map(tuple, ds.features.tolist()),
                       ds.loads.tolist(), ds.labels.tolist()))


def _parts(ds: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    """(train, test) of the split's train mask."""
    in_train = split(ds, cfg)
    return ds.select(in_train), ds.select(~in_train)


class TestSplit:
    def test_default_pipeline_is_210_390(self, labeled_dataset):
        train, test = _parts(labeled_dataset, SplitConfig())
        assert (len(train), len(test)) == (210, 390)

    def test_partition_no_loss_no_duplication(self, labeled_dataset):
        train, test = _parts(labeled_dataset, SplitConfig())
        combined = _rows(train) + _rows(test)
        assert combined == _rows(labeled_dataset)

    def test_same_seed_same_split(self, labeled_dataset):
        a = _parts(labeled_dataset, SplitConfig(seed=9))
        b = _parts(labeled_dataset, SplitConfig(seed=9))
        assert a == b

    def test_different_seed_different_membership(self, labeled_dataset):
        a_train, _ = _parts(labeled_dataset, SplitConfig(seed=9))
        b_train, _ = _parts(labeled_dataset, SplitConfig(seed=10))
        assert a_train != b_train

    def test_two_rows_one_class_half(self):
        ds = _labeled({ClassLabel.LOW: 2})
        train, test = _parts(ds, SplitConfig(train_fraction=0.5))
        assert (len(train), len(test)) == (1, 1)

    def test_largest_remainder_allocation(self):
        # quotas 1.5 / 1.5 / 2.0 at fraction 0.5 -> floors 1/1/2, one leftover
        # goes to the earliest largest-remainder class (LOW)
        ds = _labeled({ClassLabel.LOW: 3, ClassLabel.MEDIUM: 3, ClassLabel.HIGH: 4})
        train, _ = _parts(ds, SplitConfig(train_fraction=0.5))
        by_class = Counter(ClassLabel(c) for c in train.labels.tolist())
        assert len(train) == 5
        assert by_class == {ClassLabel.LOW: 2, ClassLabel.MEDIUM: 1, ClassLabel.HIGH: 2}

    def test_stratification_preserves_class_shares(self, labeled_dataset):
        train, _ = _parts(labeled_dataset, SplitConfig())
        total = Counter(ClassLabel(c) for c in labeled_dataset.labels.tolist())
        in_train = Counter(ClassLabel(c) for c in train.labels.tolist())
        for lbl, n in total.items():
            assert in_train[lbl] == pytest.approx(0.35 * n, abs=1.0)

    def test_starved_class_is_an_error(self):
        ds = _labeled({ClassLabel.LOW: 1, ClassLabel.HIGH: 99})
        with pytest.raises(ValueError, match="low"):
            split(ds, SplitConfig(train_fraction=0.35))

    def test_unlabeled_rows_rejected(self):
        ds = Dataset([0] * 4, [(1.0,) * 7] * 4, loads=[1.0] * 4)
        with pytest.raises(ValueError, match="label"):
            split(ds, SplitConfig())

    def test_unstratified_mode(self, labeled_dataset):
        cfg = SplitConfig(stratified=False)
        train, test = _parts(labeled_dataset, cfg)
        assert (len(train), len(test)) == (210, 390)
        combined = _rows(train) + _rows(test)
        assert combined == _rows(labeled_dataset)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=0.0)
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=1.0)


def _feature_column(values):
    n = len(values)
    features = [(v, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5) for v in values]
    return Dataset([0] * n, features, loads=[1.0] * n, labels=[ClassLabel.LOW] * n)


class TestNormalizer:
    def test_z_scores_of_small_sample(self):
        ds = _feature_column([1.0, 2.0, 3.0])
        norm = fit_normalizer(ds)
        out = apply_normalizer(norm, ds).features[:, 0]
        # population sigma of {1,2,3} is 0.816496580927726
        assert out == pytest.approx(
            [-1.224744871391589, 0.0, 1.224744871391589], rel=1e-12
        )

    def test_constant_feature_maps_to_zero(self):
        ds = _feature_column([5.0, 5.0, 5.0])
        norm = fit_normalizer(ds)
        out = apply_normalizer(norm, ds).features
        assert np.all(out[:, 0] == 0.0)

    def test_training_set_becomes_standardized(self, default_split):
        train, _ = default_split
        norm = fit_normalizer(train)
        z = apply_normalizer(norm, train).features
        assert np.all(np.abs(z.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(z.std(axis=0) - 1.0) <= 1e-10)

    def test_test_rows_use_training_statistics(self, default_split):
        train, _ = default_split
        norm = fit_normalizer(train)
        probe = Dataset([0], [norm.means], loads=[1.0], labels=[ClassLabel.LOW])
        z = apply_normalizer(norm, probe).features
        assert np.all(np.abs(z) <= 1e-12)

    def test_not_idempotent(self, default_split):
        train, _ = default_split
        norm = fit_normalizer(train)
        once = apply_normalizer(norm, train)
        twice = apply_normalizer(norm, once)
        assert not np.allclose(once.features, twice.features)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_normalizer(Dataset(np.empty(0, dtype=np.int64), np.empty((0, 7))))

    def test_normalizer_shape_validation(self):
        with pytest.raises(ValueError):
            Normalizer((0.0,) * 6, (1.0,) * 6)
        with pytest.raises(ValueError):
            Normalizer((0.0,) * 7, (-1.0,) * 7)
