"""Thermal-load labeling, train/test split, and feature normalization.

label_dataset labels a whole load column at once; a Dataset never holds a
non-finite load, so every load falls in exactly one class."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .dataset import FEATURE_COLUMNS, ClassLabel, Dataset, FeatureId
from .sampling import Xoshiro256pp, check_seed


@dataclass(frozen=True)
class Thresholds:
    """Class boundaries in kWh/m2: load <= low_max is LOW, >= high_min HIGH."""

    low_max: float = 75.0
    high_min: float = 90.0

    def __post_init__(self) -> None:
        for name in ("low_max", "high_min"):  # each stored as the plain float it checked
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or math.isnan(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not self.low_max < self.high_min:
            raise ValueError(
                f"low_max must be < high_min, got {self.low_max} >= {self.high_min}"
            )


def label_dataset(dataset: Dataset, thresholds: Thresholds = Thresholds()) -> Dataset:
    """Label every row from its load: HIGH iff load >= high_min, LOW iff
    load <= low_max, MEDIUM otherwise."""
    if dataset.loads is None:
        raise ValueError("cannot label: the dataset has no loads")
    q = dataset.loads
    return dataset.with_labels(
        np.where(q >= thresholds.high_min, ClassLabel.HIGH,
                 np.where(q <= thresholds.low_max, ClassLabel.LOW, ClassLabel.MEDIUM))
    )


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.35
    seed: int = 42
    stratified: bool = True

    def __post_init__(self) -> None:  # stores the plain int and float it checked
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not isinstance(self.stratified, bool):
            raise ValueError(f"stratified must be a bool, got {self.stratified!r}")
        if isinstance(self.train_fraction, bool) or not isinstance(self.train_fraction, Real):
            raise ValueError(f"train_fraction must be a number, got {self.train_fraction!r}")
        object.__setattr__(self, "train_fraction", float(self.train_fraction))
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def split(dataset: Dataset, cfg: SplitConfig) -> np.ndarray:
    """Boolean mask of the train rows; dataset.select(mask) and
    dataset.select(~mask) are the train and test parts, in row order.

    n_train = floor(n * f + 0.5) clipped to [1, n - 1], f the train fraction.
    The groups are the classes, or all rows as one group if unstratified.
    Each group gets the floor of its quota len(group) * f, and the
    n_train - sum(floors) groups with the largest remainder one row more,
    ties by class order. Each group, in class order, then takes the first
    rows of a shuffle of its row indices, seeded by cfg.seed.
    """
    labels = dataset.labels
    if labels is None:
        raise ValueError("cannot split: the dataset has no labels")
    n = len(dataset)
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    n_train = min(max(math.floor(n * cfg.train_fraction + 0.5), 1), n - 1)

    groups = labels if cfg.stratified else np.zeros_like(labels)
    sizes = np.bincount(groups)
    present = np.flatnonzero(sizes)
    quotas = sizes[present] * cfg.train_fraction
    takes = np.floor(quotas).astype(np.intp)
    # largest remainder first, ties by class order. No floor exceeds its quota
    # and the quotas sum to n * f within a few ulps, so sum(takes) <= n_train;
    # each floor is above its quota - 1, and n_train is clipped to [1, n - 1],
    # so the shortfall is at most the number of groups: one row each at most.
    takes[np.lexsort((present, takes - quotas))[:n_train - takes.sum()]] += 1

    rng = Xoshiro256pp(cfg.seed)
    in_train = np.zeros(n, dtype=bool)
    for group, take in zip(present, takes):
        pool = np.flatnonzero(groups == group)
        if not 0 < take < len(pool):
            raise ValueError(f"stratified split leaves class {ClassLabel(group).csv_value!r} "
                             f"with an empty train or test part ({take} of {len(pool)} rows)")
        in_train[rng.shuffled(pool.tolist())[:take]] = True
    return in_train


@dataclass(frozen=True)
class Normalizer:
    """Per-feature z-score context fitted on training rows.

    Uses population (1/n) standard deviation. Constant features (std 0)
    map to 0.
    """

    means: tuple[float, ...]
    std_devs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.means) != len(FeatureId) or len(self.std_devs) != len(FeatureId):
            raise ValueError(f"need exactly {len(FeatureId)} (mean, std) pairs")
        for name, m, s in zip(FEATURE_COLUMNS, self.means, self.std_devs):
            if not (math.isfinite(m) and math.isfinite(s) and s >= 0.0):
                raise ValueError(f"feature {name}: need a finite mean and a finite "
                                 f"std_dev >= 0, got mean {m}, std_dev {s}")


def fit_normalizer(train: Dataset) -> Normalizer:
    if len(train) == 0:
        raise ValueError("cannot fit normalizer on an empty training set")
    x = train.features
    means = x.mean(axis=0)
    stds = x.std(axis=0)  # population (1/n) std
    return Normalizer(tuple(float(m) for m in means), tuple(float(s) for s in stds))


def apply_normalizer(norm: Normalizer, dataset: Dataset) -> Dataset:
    """Transform every row with the fitted training statistics."""
    means = np.array(norm.means)
    stds = np.array(norm.std_devs)
    safe = np.where(stds > 0.0, stds, 1.0)
    z = dataset.features - means
    z /= safe
    z[:, stds == 0.0] = 0.0
    z.setflags(write=False)  # fresh, so the Dataset shares it rather than copies it
    return dataset.with_features(z)
