"""The scripts under tools/ run against the current library."""

import importlib.util
from pathlib import Path

import pytest

from envload.pca import fit_pca, top_features
from envload.preprocess import (
    SplitConfig,
    apply_normalizer,
    fit_normalizer,
    label_dataset,
    split,
)
from envload.surrogate import DEFAULT_Q_BASE, SurrogateConfig, simulate_dataset

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location(
        "calibrate_surrogate", TOOLS / "calibrate_surrogate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_stats_at_default(calibrate, default_dataset):
    stats = calibrate.pipeline_stats(default_dataset, DEFAULT_Q_BASE)
    loads = simulate_dataset(default_dataset, SurrogateConfig()).loads
    assert stats["min"] == loads.min() > 0.0
    assert stats["max"] == loads.max()
    assert stats["low"] + stats["medium"] + stats["high"] == pytest.approx(1.0)
    assert min(stats["low"], stats["medium"], stats["high"]) >= 0.10


def test_numpy_pc1_ranking_matches_package_pca(calibrate, default_dataset):
    info = calibrate.pc1_ranking_numpy(default_dataset, DEFAULT_Q_BASE)
    labeled = label_dataset(simulate_dataset(default_dataset, SurrogateConfig()))
    train, test = split(labeled, SplitConfig())
    model = fit_pca(apply_normalizer(fit_normalizer(train), train))
    assert (info["n_train"], info["n_test"]) == (len(train), len(test))
    assert info["ranking"] == [f.column_name for f in top_features(model, 7)]
