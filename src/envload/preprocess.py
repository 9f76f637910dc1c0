"""Thermal-load labeling, train/test split, and feature normalization."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ClassLabel, Dataset, FeatureId
from .sampling import Xoshiro256pp


@dataclass(frozen=True)
class Thresholds:
    """Class boundaries in kWh/m2: load <= low_max is LOW, >= high_min HIGH."""

    low_max: float = 75.0
    high_min: float = 90.0

    def __post_init__(self) -> None:
        if not self.low_max < self.high_min:
            raise ValueError(
                f"low_max must be < high_min, got {self.low_max} >= {self.high_min}"
            )


def label_load(load: float, thresholds: Thresholds = Thresholds()) -> ClassLabel:
    """HIGH iff load >= high_min, LOW iff load <= low_max, MEDIUM otherwise."""
    if not math.isfinite(load):
        raise ValueError(f"load must be finite, got {load}")
    if load >= thresholds.high_min:
        return ClassLabel.HIGH
    if load <= thresholds.low_max:
        return ClassLabel.LOW
    return ClassLabel.MEDIUM


def label_dataset(dataset: Dataset, thresholds: Thresholds = Thresholds()) -> Dataset:
    """Label every row from its load, by the rule of label_load."""
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

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(dataset: Dataset, cfg: SplitConfig) -> tuple[Dataset, Dataset]:
    """Partition into (train, test) with |train| = round(n * train_fraction).

    The stratified mode allocates per-class counts by largest remainder, so
    class proportions carry over as exactly as integer counts allow. Row
    order within each part follows the original dataset. Deterministic in
    cfg.seed.
    """
    labels = dataset.labels
    if labels is None:
        raise ValueError("cannot split: the dataset has no labels")
    n = len(dataset)
    if n < 2:
        raise ValueError(f"need at least 2 rows to split, got {n}")
    n_train_total = _round_half_up(n * cfg.train_fraction)
    n_train_total = min(max(n_train_total, 1), n - 1)

    rng = Xoshiro256pp(cfg.seed)
    in_train = np.zeros(n, dtype=bool)
    if cfg.stratified:
        _mark_stratified_train(in_train, labels, n_train_total, cfg, rng)
    else:
        in_train[rng.shuffled(list(range(n)))[:n_train_total]] = True
    return dataset.select(in_train), dataset.select(~in_train)


def _mark_stratified_train(
    in_train: np.ndarray,
    labels: np.ndarray,
    n_train_total: int,
    cfg: SplitConfig,
    rng: Xoshiro256pp,
) -> None:
    by_class = {lbl: np.flatnonzero(labels == lbl).tolist() for lbl in ClassLabel}
    present = [lbl for lbl in ClassLabel if by_class[lbl]]

    quotas = {lbl: len(by_class[lbl]) * cfg.train_fraction for lbl in present}
    counts = {lbl: int(math.floor(quotas[lbl])) for lbl in present}
    shortfall = n_train_total - sum(counts.values())
    # distribute leftovers by largest fractional remainder, ties by class order
    order = sorted(present, key=lambda lbl: (-(quotas[lbl] - counts[lbl]), lbl))
    i = 0
    while shortfall > 0:
        counts[order[i % len(order)]] += 1
        shortfall -= 1
        i += 1
    while shortfall < 0:  # floating-point dust; shave from smallest remainders
        counts[order[(i - 1) % len(order)]] -= 1
        shortfall += 1
        i -= 1

    for lbl in present:
        pool = by_class[lbl]
        take = counts[lbl]
        if take <= 0 or take >= len(pool):
            raise ValueError(
                f"stratified split leaves class {lbl.csv_value!r} with an empty "
                f"train or test part ({take} of {len(pool)} rows)"
            )
        in_train[rng.shuffled(pool)[:take]] = True


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
        if any(s < 0.0 for s in self.std_devs):
            raise ValueError("std_dev must be >= 0")


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
    z = (dataset.features - means) / safe
    z[:, stds == 0.0] = 0.0
    return dataset.with_features(z)
