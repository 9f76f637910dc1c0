"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured runtime (run with -s to see them).
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from envload.cli import main
from envload.dataset import ClassLabel, FeatureId, builtin_material_library
from envload.efs import run_efs
from envload.lda import accuracy, fit_lda, predict_many
from envload.numerics import SymMatrix, jacobi_eigen
from envload.pca import fit_pca, project, top_features
from envload.preprocess import (
    SplitConfig,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    label_load,
    split,
)
from envload.sampling import SamplerConfig, generate_dataset
from envload.surrogate import SurrogateConfig, simulate_dataset

from test_efs import make_single_informative

# Frozen before the PCA module was built: the |PC1 loading| ranking of the
# default-seed 210-row training matrix, computed with numpy's eigensolver
# (tools/calibrate_surrogate.py).
EXPECTED_TOP3 = {
    FeatureId.DENSITY,
    FeatureId.THERMAL_CONDUCTIVITY,
    FeatureId.SPECIFIC_HEAT_CAPACITY,
}


def _report(criterion: str, elapsed: float, budget: float) -> None:
    print(f"PASS: {criterion} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_dataset_shape():
    start = time.perf_counter()
    dataset = generate_dataset(builtin_material_library(), SamplerConfig())
    labeled = label_dataset(simulate_dataset(dataset, SurrogateConfig()))
    train, test = split(labeled, SplitConfig())
    assert len(dataset) == 600
    assert (len(train), len(test)) == (210, 390)
    _report("criterion 1 - 600 rows, 210/390 stratified split",
            time.perf_counter() - start, 1.0)


def test_criterion_2_labeling_boundaries():
    start = time.perf_counter()
    assert label_load(90.0) is ClassLabel.HIGH
    assert label_load(75.0) is ClassLabel.LOW
    assert label_load(82.5) is ClassLabel.MEDIUM
    _report("criterion 2 - labeling boundaries 75/90",
            time.perf_counter() - start, 1.0)


def test_criterion_3_pca_structural_suite(normalized_train):
    start = time.perf_counter()
    model = fit_pca(normalized_train)
    assert abs(model.explained_variance_ratio.sum() - 1.0) <= 1e-10
    assert np.all(np.diff(model.cumulative_ratio) >= -1e-15)
    gram = model.loadings.T @ model.loadings
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-10
    scores = project(model, normalized_train, list(range(1, 8)))
    rebuilt = scores @ model.loadings.T
    assert np.max(np.abs(rebuilt - normalized_train.features)) <= 1e-8
    x = normalized_train.features
    xc = x - x.mean(axis=0)
    trace = float(np.trace(xc.T @ xc / (len(x) - 1)))
    assert abs(model.eigenvalues.sum() - trace) <= 1e-8 * max(1.0, abs(trace))
    _report("criterion 3 - PCA structural suite", time.perf_counter() - start, 1.0)


def test_criterion_4_pca_top3_matches_fixture(normalized_train):
    start = time.perf_counter()
    model = fit_pca(normalized_train)
    assert set(top_features(model, 3)) == EXPECTED_TOP3
    assert EXPECTED_TOP3 <= set(top_features(model, 4))
    # independent eigensolver on the identical matrix must agree
    x = normalized_train.features
    xc = x - x.mean(axis=0)
    w, v = np.linalg.eigh(xc.T @ xc / (len(x) - 1))
    pc1 = np.abs(v[:, np.argmax(w)])
    oracle_top3 = {FeatureId(int(i)) for i in np.argsort(-pc1)[:3]}
    assert oracle_top3 == EXPECTED_TOP3
    _report("criterion 4 - top-3 PC1 features match frozen fixture",
            time.perf_counter() - start, 5.0)


def test_criterion_5_eigensolver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = rng.normal(size=(7, 7)) * rng.uniform(0.1, 10.0)
        sym = SymMatrix.from_full((m + m.T) / 2.0)
        eig = jacobi_eigen(sym)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.max(np.abs(rebuilt - sym.to_full())) <= 1e-8
        gram = eig.eigenvectors.T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(7))) <= 1e-10
        tr = sym.trace()
        assert abs(eig.eigenvalues.sum() - tr) <= 1e-8 * max(1.0, abs(tr))
    _report("criterion 5 - eigensolver on 100 random symmetric matrices",
            time.perf_counter() - start, 5.0)


def test_criterion_6_lda_correctness_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(314)
    low, med, high = ClassLabel.LOW, ClassLabel.MEDIUM, ClassLabel.HIGH

    # (a) separable three-class toy
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    x = np.vstack([rng.normal(size=(30, 2)) * 0.2 + c for c in centers])
    y = [low] * 30 + [med] * 30 + [high] * 30
    assert accuracy(fit_lda(x, y), x, y) == 1.0

    # (b) identity pooled covariance + equal priors = nearest centroid
    a = np.sqrt(1.5)
    residuals = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
    xb = np.vstack([c + residuals for c in centers])
    yb = [low] * 4 + [med] * 4 + [high] * 4
    model_b = fit_lda(xb, yb)
    probes = rng.uniform(-2.0, 8.0, size=(1000, 2))
    nearest = [
        model_b.classes[int(np.argmin(np.sum((centers - p) ** 2, axis=1)))]
        for p in probes
    ]
    assert predict_many(model_b, probes).tolist() == nearest

    # (c) affine invariance of decisions
    base = fit_lda(x, y)
    points = rng.uniform(-2.0, 8.0, size=(200, 2))
    m = np.array([[1.3, -0.7], [0.4, 2.1]])
    shift = np.array([5.0, -3.0])
    transformed = fit_lda(x @ m.T + shift, y)
    assert (predict_many(transformed, points @ m.T + shift).tolist()
            == predict_many(base, points).tolist())

    # (d) training accuracy never loses to majority voting
    for _ in range(25):
        n_per = int(rng.integers(4, 50))
        spread = float(rng.uniform(0.2, 5.0))
        xd = np.vstack([rng.normal(size=(n_per, 2)) * spread + c for c in centers])
        yd = [low] * n_per + [med] * n_per + [high] * n_per
        model_d = fit_lda(xd, yd)
        majority = max(yd.count(c) for c in (low, med, high)) / len(yd)
        assert accuracy(model_d, xd, yd) >= majority
    _report("criterion 6 - LDA correctness suite", time.perf_counter() - start, 5.0)


def test_criterion_7_efs_exactness(normalized_train):
    start = time.perf_counter()
    report = run_efs(normalized_train)  # the real 210-row training sweep
    assert len(report.all_results) == 127
    assert len({r.subset for r in report.all_results}) == 127
    for size, best in report.best_per_size.items():
        pool = [r.metric_value for r in report.all_results if r.size == size]
        assert best.metric_value == max(pool)

    synthetic = make_single_informative()
    synth_report = run_efs(synthetic)
    best1 = synth_report.best_per_size[1]
    assert best1.subset == (FeatureId.SPECIFIC_HEAT_CAPACITY,)
    assert best1.metric_value == 1.0

    parallel = run_efs(normalized_train, n_jobs=4)
    assert parallel.all_results == report.all_results
    rows_seq = [(r.subset_names(), r.size, repr(r.metric_value)) for r in report.all_results]
    rows_par = [(r.subset_names(), r.size, repr(r.metric_value)) for r in parallel.all_results]
    assert rows_seq == rows_par
    _report("criterion 7 - EFS exactness and parallel determinism",
            time.perf_counter() - start, 30.0)


def test_criterion_8_end_to_end_sanity(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "run"
    assert main(["run", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start

    summary = json.loads((out / "summary.json").read_text())
    counts = summary["counts"]
    total = counts["total"]
    for lbl in ("low", "medium", "high"):
        assert counts["per_class"][lbl] >= 0.10 * total, lbl

    test_counts = counts["test"]["per_class"]
    baseline = max(test_counts.values()) / counts["test"]["total"]
    for key in ("pca_selected", "efs_selected"):
        test_acc = summary["lda"][key]["test_accuracy"]
        assert test_acc >= baseline + 0.10, (key, test_acc, baseline)
    _report("criterion 8 - end-to-end class balance and model lift", elapsed, 60.0)


def test_criterion_9_run_all_determinism(tmp_path):
    start = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--out", str(a)]) == 0
    assert main(["run", "--out", str(b)]) == 0
    names_a = sorted(p.name for p in a.iterdir())
    assert names_a == sorted(p.name for p in b.iterdir())
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _report("criterion 9 - byte-identical repeated runs",
            time.perf_counter() - start, 120.0)
