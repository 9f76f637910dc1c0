#!/usr/bin/env python3
"""Calibration and verification harness for the surrogate defaults.

Sweeps q_base over a range on the default-seed pipeline and reports, for
each value: the load median, the class shares under the 75/90 thresholds,
and the minimum load (which must stay positive). Then, for the shipped
default, cross-checks the PC1 loading ranking of the resulting training
matrix with numpy's eigensolver, independently of the package's own
eigendecomposition.

Run:  python tools/calibrate_surrogate.py [q_base ...]
"""

import sys

import numpy as np

from envload.dataset import ClassLabel, FeatureId, builtin_material_library
from envload.preprocess import (
    SplitConfig,
    Thresholds,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    split,
)
from envload.sampling import SamplerConfig, generate_dataset
from envload.surrogate import SurrogateConfig, thermal_loads


def pipeline_stats(dataset, q_base):
    loads = thermal_loads(dataset.features, SurrogateConfig(q_base=q_base))
    t = Thresholds()
    low = float(np.mean(loads <= t.low_max))
    high = float(np.mean(loads >= t.high_min))
    med = 1.0 - low - high
    return {
        "q_base": q_base,
        "min": float(loads.min()),
        "median": float(np.median(loads)),
        "max": float(loads.max()),
        "low": low,
        "medium": med,
        "high": high,
    }


def pc1_ranking_numpy(dataset, q_base):
    """Independent oracle: split + normalize, then numpy eigh on the
    1/(n-1) covariance of the training matrix."""
    loads = thermal_loads(dataset.features, SurrogateConfig(q_base=q_base))
    labeled = label_dataset(dataset.with_loads(loads))
    in_train = split(labeled, SplitConfig())
    train, test = labeled.select(in_train), labeled.select(~in_train)
    norm = fit_normalizer(train)
    x = apply_normalizer(norm, train).features
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (len(train) - 1)
    w, v = np.linalg.eigh(cov)
    order = np.argsort(-w)
    w = w[order]
    v = v[:, order]
    pc1 = np.abs(v[:, 0])
    ranking = sorted(FeatureId, key=lambda f: (-pc1[f], int(f)))
    per_class = {
        lbl.csv_value: int(np.count_nonzero(train.labels == lbl)) for lbl in ClassLabel
    }
    return {
        "n_train": len(train),
        "n_test": len(test),
        "train_per_class": per_class,
        "eigenvalues": w,
        "ratios": w / w.sum(),
        "pc1_abs": pc1,
        "ranking": [f.column_name for f in ranking],
    }


def main(argv):
    dataset = generate_dataset(builtin_material_library(), SamplerConfig())
    q_values = [float(a) for a in argv[1:]] or [55.0, 20.0, 0.0, -5.0, -10.0, -12.0, -15.0, -18.0, -20.0]
    print(f"{'q_base':>8} {'min':>8} {'median':>8} {'max':>8} {'low':>7} {'med':>7} {'high':>7}")
    for q in q_values:
        s = pipeline_stats(dataset, q)
        print(
            f"{s['q_base']:8.1f} {s['min']:8.2f} {s['median']:8.2f} {s['max']:8.2f} "
            f"{s['low']:7.3f} {s['medium']:7.3f} {s['high']:7.3f}"
        )
    from envload.surrogate import DEFAULT_Q_BASE

    print(f"\nPC1 check at shipped default q_base={DEFAULT_Q_BASE}:")
    info = pc1_ranking_numpy(dataset, DEFAULT_Q_BASE)
    print(f"  split: {info['n_train']}/{info['n_test']}  per-class {info['train_per_class']}")
    print(f"  explained-variance ratios: {np.round(info['ratios'], 4)}")
    print(f"  |PC1| loadings by feature:")
    for f in FeatureId:
        print(f"    {f.column_name:24s} {info['pc1_abs'][f]:.4f}")
    print(f"  ranking: {info['ranking']}")


if __name__ == "__main__":
    main(sys.argv)
