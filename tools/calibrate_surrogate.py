#!/usr/bin/env python3
"""Calibration and verification harness for the surrogate defaults.

Sweeps q_base >= 0 (SurrogateConfig rejects a negative one) on the features
of a default `envload run`, every other constant at its default, and
reports for each value: the load range and median and the class shares
under the 75/90 thresholds. Then cross-checks that run's PC1 loading
ranking with numpy's eigensolver, independently of the package's own
eigendecomposition.

Run:  python tools/calibrate_surrogate.py [q_base ...]
"""

import sys

import numpy as np

from envload.cli import configs, run
from envload.dataset import ClassLabel, FeatureId
from envload.pca import top_features
from envload.preprocess import Thresholds, apply_normalizer
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


def pc1_ranking_numpy(result):
    """Independent oracle of a run's PC1 ranking: numpy eigh on the 1/(n-1)
    covariance of its normalized training rows, beside the ranking of the
    package's PCA, top_features(result.pca, 7)."""
    train = result.dataset.select(result.in_train)
    x = apply_normalizer(result.norm, train).features
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
        "n_test": len(result.dataset) - len(train),
        "train_per_class": per_class,
        "eigenvalues": w,
        "ratios": w / w.sum(),
        "pc1_abs": pc1,
        "ranking": [f.column_name for f in ranking],
        "package_ranking": [f.column_name for f in top_features(result.pca, 7)],
    }


def main(argv):
    result = run(configs())
    q_values = [float(a) for a in argv[1:]] or [0.0, 2.0, 5.0, 10.0, 20.0]
    print(f"{'q_base':>8} {'min':>8} {'median':>8} {'max':>8} {'low':>7} {'med':>7} {'high':>7}")
    for q in q_values:
        s = pipeline_stats(result.dataset, q)
        print(
            f"{s['q_base']:8.1f} {s['min']:8.2f} {s['median']:8.2f} {s['max']:8.2f} "
            f"{s['low']:7.3f} {s['medium']:7.3f} {s['high']:7.3f}"
        )
    print("\nPC1 check at the default SurrogateConfig():")
    info = pc1_ranking_numpy(result)
    print(f"  split: {info['n_train']}/{info['n_test']}  per-class {info['train_per_class']}")
    print(f"  explained-variance ratios: {np.round(info['ratios'], 4)}")
    print(f"  |PC1| loadings by feature:")
    for f in FeatureId:
        print(f"    {f.column_name:24s} {info['pc1_abs'][f]:.4f}")
    print(f"  ranking: {info['ranking']}")
    agree = "agrees" if info["ranking"] == info["package_ranking"] else "DISAGREES"
    print(f"  package ranking {agree}: {info['package_ranking']}")


if __name__ == "__main__":
    main(sys.argv)
