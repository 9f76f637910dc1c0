import math
import random
import re
from collections import Counter
from itertools import product

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
from envload.sampling import Xoshiro256pp
from test_sampling import reference_shuffled


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

    @pytest.mark.parametrize("field", ["low_max", "high_min"])
    def test_nan_threshold_is_not_a_number(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a number, got nan$"):
            Thresholds(**{field: math.nan})

    def test_bool_threshold_is_not_a_number(self):
        # False < True is ordered, but the echo would write false and true
        with pytest.raises(ValueError, match="^low_max must be a number, got False$"):
            Thresholds(low_max=False, high_min=True)
        with pytest.raises(ValueError, match="^high_min must be a number, got '90'$"):
            Thresholds(high_min="90")

    def test_infinite_thresholds_are_ordered_bounds(self):
        t = Thresholds(low_max=-math.inf, high_min=math.inf)
        assert _labels([0.0, 1e300], t) == [ClassLabel.MEDIUM, ClassLabel.MEDIUM]

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


def _rows(ds: Dataset, rows: np.ndarray | slice = slice(None)) -> list[tuple]:
    """The (material_index, features, load, label) rows of ds where rows
    picks them, in order."""
    return list(zip(ds.material_index[rows].tolist(), map(tuple, ds.features[rows].tolist()),
                    ds.loads[rows].tolist(), ds.labels[rows].tolist()))


def _parts(ds: Dataset, cfg: SplitConfig) -> tuple[list[tuple], list[tuple]]:
    """The rows (see _rows) of the train and the test part of the split."""
    in_train = split(ds, cfg)
    return _rows(ds, in_train), _rows(ds, ~in_train)


class TestSplit:
    def test_default_pipeline_is_210_390(self, labeled_dataset):
        train, test = _parts(labeled_dataset, SplitConfig())
        assert (len(train), len(test)) == (210, 390)

    def test_partition_no_loss_no_duplication(self, labeled_dataset):
        train, test = _parts(labeled_dataset, SplitConfig())
        assert Counter(train + test) == Counter(_rows(labeled_dataset))

    def test_same_seed_same_split(self, labeled_dataset):
        a = _parts(labeled_dataset, SplitConfig(seed=9))
        b = _parts(labeled_dataset, SplitConfig(seed=9))
        assert a == b

    def test_different_seed_different_membership(self, labeled_dataset):
        a_train, _ = _parts(labeled_dataset, SplitConfig(seed=9))
        b_train, _ = _parts(labeled_dataset, SplitConfig(seed=10))
        assert a_train != b_train

    @pytest.mark.parametrize("seed", [-1, 2**64, 4.5, False])
    def test_seed_outside_the_generator_range_rejected(self, seed):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            SplitConfig(seed=seed)

    def test_largest_seed_accepted(self, labeled_dataset):
        train, test = _parts(labeled_dataset, SplitConfig(seed=2**64 - 1))
        assert (len(train), len(test)) == (210, 390)

    def test_two_rows_one_class_half(self):
        ds = _labeled({ClassLabel.LOW: 2})
        train, test = _parts(ds, SplitConfig(train_fraction=0.5))
        assert (len(train), len(test)) == (1, 1)

    def test_largest_remainder_allocation(self):
        # quotas 1.5 / 1.5 / 2.0 at fraction 0.5 -> floors 1/1/2, one leftover
        # goes to the earliest largest-remainder class (LOW)
        ds = _labeled({ClassLabel.LOW: 3, ClassLabel.MEDIUM: 3, ClassLabel.HIGH: 4})
        train, _ = _parts(ds, SplitConfig(train_fraction=0.5))
        by_class = Counter(ClassLabel(row[-1]) for row in train)
        assert len(train) == 5
        assert by_class == {ClassLabel.LOW: 2, ClassLabel.MEDIUM: 1, ClassLabel.HIGH: 2}

    def test_stratification_preserves_class_shares(self, labeled_dataset):
        train, _ = _parts(labeled_dataset, SplitConfig())
        total = Counter(ClassLabel(c) for c in labeled_dataset.labels.tolist())
        in_train = Counter(ClassLabel(row[-1]) for row in train)
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
        assert Counter(train + test) == Counter(_rows(labeled_dataset))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=0.0)
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=1.0)

    @pytest.mark.parametrize("stratified", ["no", 0, None])
    def test_stratified_must_be_a_bool(self, stratified):
        # a truthy "no" would otherwise split stratified
        with pytest.raises(ValueError, match=f"^stratified must be a bool, got {stratified!r}$"):
            SplitConfig(stratified=stratified)

    @pytest.mark.parametrize("fraction", ["0.5", None, True, False])
    def test_train_fraction_must_be_a_number(self, fraction):
        # True, an int, would be the fraction 1
        with pytest.raises(ValueError, match=f"^train_fraction must be a number, got {fraction!r}$"):
            SplitConfig(train_fraction=fraction)

    @pytest.mark.parametrize("stratified", [True, False])
    @pytest.mark.parametrize("fraction", [0.001, 0.1, 1 / 3, 0.35, 0.5, 2 / 3, 0.9, 0.999])
    def test_split_equals_the_per_class_loop(self, fraction, stratified):
        # 0.001 and 0.999 clip n_train to 1 and n - 1 below 500 rows; 1/3 and
        # 2/3 tie the remainders of classes of equal size modulo 3
        for counts in product([0, 1, 2, 3, 4, 7], repeat=3):
            if sum(counts) < 2:
                continue
            labels = [lbl for lbl, k in zip(ClassLabel, counts) for _ in range(k)]
            random.Random(sum(counts)).shuffle(labels)
            for seed in (0, 2**64 - 1):
                cfg = SplitConfig(train_fraction=fraction, seed=seed, stratified=stratified)
                assert _mask_or_error(_labeled_as(labels), cfg) == reference_split(labels, cfg)

    def test_split_equals_the_per_class_loop_at_scale(self, labeled_dataset):
        labels = labeled_dataset.labels.tolist()
        for stratified, fraction in product([True, False], [1 / 3, 0.35, 0.999]):
            cfg = SplitConfig(train_fraction=fraction, stratified=stratified)
            assert _mask_or_error(labeled_dataset, cfg) == reference_split(labels, cfg)

    @pytest.mark.parametrize("n, fraction", [(2, 0.001), (2, 0.999), (7, 0.5), (600, 0.35)])
    def test_unstratified_mask_is_a_prefix_of_one_shuffle(self, n, fraction):
        labels = [ClassLabel(i % 3) for i in range(n)]
        n_train = min(max(math.floor(n * fraction + 0.5), 1), n - 1)
        expected = np.zeros(n, dtype=bool)
        expected[reference_shuffled(Xoshiro256pp(5), range(n))[:n_train]] = True
        cfg = SplitConfig(train_fraction=fraction, seed=5, stratified=False)
        assert np.array_equal(split(_labeled_as(labels), cfg), expected)

    @pytest.mark.parametrize("stratified", [False, True])
    def test_split_equals_shuffled_per_group_in_turn(self, stratified):
        # three classes of over 2^15 rows each: the shared blocks straddle classes
        labels = np.random.default_rng(4).permutation(np.arange(100_000) % 3)
        dataset = Dataset(np.zeros(len(labels), dtype=np.int64), np.ones((len(labels), 7)),
                          loads=np.ones(len(labels)), labels=labels)
        mask = split(dataset, SplitConfig(seed=9, stratified=stratified))
        groups = labels if stratified else np.zeros_like(labels)
        rng, expected = Xoshiro256pp(9), np.zeros(len(labels), dtype=bool)
        for group in np.unique(groups):  # each group's train rows from its own shuffled call
            pool = np.flatnonzero(groups == group)
            expected[rng.shuffled(pool.tolist())[:np.count_nonzero(mask[pool])]] = True
        assert np.array_equal(mask, expected)


def reference_split(labels: list[ClassLabel], cfg: SplitConfig) -> list[bool] | str:
    """The per-class loop that split replaced: a list of rows per class,
    largest-remainder leftovers dealt round the classes, and one shuffle of
    every row when unstratified. The train mask as a list, or the error."""
    n = len(labels)
    n_train_total = min(max(math.floor(n * cfg.train_fraction + 0.5), 1), n - 1)
    rng = Xoshiro256pp(cfg.seed)
    in_train = [False] * n
    if not cfg.stratified:
        for i in reference_shuffled(rng, range(n))[:n_train_total]:
            in_train[i] = True
        return in_train
    by_class = {lbl: [i for i, c in enumerate(labels) if c == lbl] for lbl in ClassLabel}
    present = [lbl for lbl in ClassLabel if by_class[lbl]]
    quotas = {lbl: len(by_class[lbl]) * cfg.train_fraction for lbl in present}
    counts = {lbl: math.floor(quotas[lbl]) for lbl in present}
    shortfall = n_train_total - sum(counts.values())
    order = sorted(present, key=lambda lbl: (-(quotas[lbl] - counts[lbl]), lbl))
    i = 0
    while shortfall > 0:
        counts[order[i % len(order)]] += 1
        shortfall -= 1
        i += 1
    while shortfall < 0:
        counts[order[(i - 1) % len(order)]] -= 1
        shortfall += 1
        i -= 1
    for lbl in present:
        pool, take = by_class[lbl], counts[lbl]
        if take <= 0 or take >= len(pool):
            return (f"stratified split leaves class {lbl.csv_value!r} with an empty "
                    f"train or test part ({take} of {len(pool)} rows)")
        for row in reference_shuffled(rng, pool)[:take]:
            in_train[row] = True
    return in_train


def _labeled_as(labels: list[ClassLabel]) -> Dataset:
    n = len(labels)
    return Dataset([0] * n, [(1.0,) * 7] * n, loads=[1.0] * n, labels=labels)


def _mask_or_error(ds: Dataset, cfg: SplitConfig) -> list[bool] | str:
    try:
        return split(ds, cfg).tolist()
    except ValueError as exc:
        return str(exc)


def _feature_column(values) -> np.ndarray:
    """A feature matrix whose first column holds values."""
    return np.array([(v, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5) for v in values])


class TestNormalizer:
    def test_z_scores_of_small_sample(self):
        x = _feature_column([1.0, 2.0, 3.0])
        out = apply_normalizer(fit_normalizer(x), x)[:, 0]
        # population sigma of {1,2,3} is 0.816496580927726
        assert out == pytest.approx(
            [-1.224744871391589, 0.0, 1.224744871391589], rel=1e-12
        )

    def test_constant_feature_maps_to_zero(self):
        x = _feature_column([5.0, 5.0, 5.0])
        out = apply_normalizer(fit_normalizer(x), x)
        assert np.all(out[:, 0] == 0.0)

    def test_training_set_becomes_standardized(self, default_split):
        (x, _), _ = default_split
        z = apply_normalizer(fit_normalizer(x), x)
        assert np.all(np.abs(z.mean(axis=0)) <= 1e-10)
        assert np.all(np.abs(z.std(axis=0) - 1.0) <= 1e-10)

    def test_test_rows_use_training_statistics(self, default_split):
        (x, _), _ = default_split
        norm = fit_normalizer(x)
        z = apply_normalizer(norm, [norm.means])
        assert np.all(np.abs(z) <= 1e-12)

    def test_not_idempotent(self, default_split):
        (x, _), _ = default_split
        norm = fit_normalizer(x)
        once = apply_normalizer(norm, x)
        twice = apply_normalizer(norm, once)
        assert not np.allclose(once, twice)

    def test_result_is_a_fresh_array(self, default_split):
        (x, _), _ = default_split
        before = x.copy()
        z = apply_normalizer(fit_normalizer(x), x)
        assert not np.shares_memory(z, x)
        assert np.array_equal(x, before)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="empty training set"):
            fit_normalizer(np.empty((0, 7)))

    @pytest.mark.parametrize("shape", [(5, 6), (5, 8), (7,), (5, 7, 1)])
    def test_a_matrix_that_is_not_n_by_7_rejected(self, shape):
        message = re.escape(f"expected an (n, 7) feature matrix, got shape {shape}")
        with pytest.raises(ValueError, match=message):
            fit_normalizer(np.ones(shape))
        norm = Normalizer((0.0,) * 7, (1.0,) * 7)
        with pytest.raises(ValueError, match=message):
            apply_normalizer(norm, np.ones(shape))

    def test_normalizer_shape_validation(self):
        with pytest.raises(ValueError):
            Normalizer((0.0,) * 6, (1.0,) * 6)
        with pytest.raises(ValueError):
            Normalizer((0.0,) * 7, (-1.0,) * 7)

    @pytest.mark.parametrize("mean, std_dev", [(0.0, math.nan), (math.nan, 1.0),
                                               (0.0, math.inf), (-math.inf, 1.0)])
    def test_normalizer_rejects_a_value_that_is_not_finite(self, mean, std_dev):
        means, std_devs = [0.0] * 7, [1.0] * 7
        means[2], std_devs[2] = mean, std_dev
        with pytest.raises(ValueError, match=(
                f"feature thermal_conductivity: need a finite mean and a finite std_dev "
                f">= 0, got mean {mean}, std_dev {std_dev}")):
            Normalizer(tuple(means), tuple(std_devs))
