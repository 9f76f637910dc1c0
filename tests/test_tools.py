"""The scripts under tools/ run against the current library."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from envload.cli import configs, run
from envload.pca import top_features
from envload.surrogate import SurrogateConfig, simulate_dataset

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src"
TINY_RUN = ["--n-per-material", "10", "--grid-resolution", "3"]


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location(
        "calibrate_surrogate", TOOLS / "calibrate_surrogate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_stats_at_default(calibrate, default_dataset):
    stats = calibrate.pipeline_stats(default_dataset, SurrogateConfig().q_base)
    loads = simulate_dataset(default_dataset, SurrogateConfig()).loads
    assert stats["min"] == loads.min() > 0.0
    assert stats["max"] == loads.max()
    assert stats["low"] + stats["medium"] + stats["high"] == pytest.approx(1.0)
    assert min(stats["low"], stats["medium"], stats["high"]) >= 0.10


def test_numpy_pc1_ranking_matches_package_pca(calibrate):
    result = run(configs())
    info = calibrate.pc1_ranking_numpy(result)
    assert (info["n_train"], info["n_test"]) == (210, 390)
    assert info["ranking"] == [f.column_name for f in top_features(result.pca, 7)]
    assert info["package_ranking"] == info["ranking"]


def _ab_runs(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / "ab_runs.py"), str(a), str(b), "--pairs", "2",
         "--", *TINY_RUN],
        capture_output=True, text=True, timeout=120,
    )


def test_ab_runs_of_the_checkout_against_itself():
    proc = _ab_runs(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    assert "B faster in" in proc.stdout and "of 2 pairs" in proc.stdout


def test_ab_runs_fails_when_outputs_differ(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "envload" / "cli.py"
    text = cli.read_text()
    assert "GRID_MARGIN = 0.05" in text
    cli.write_text(text.replace("GRID_MARGIN = 0.05", "GRID_MARGIN = 0.06"))
    proc = _ab_runs(SRC, changed)
    assert proc.returncode == 1
    assert "outputs differ: decision_grid_" in proc.stderr


def _peak_rss(a: Path, b: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / "peak_rss.py"), str(a), str(b), "--procs", "2",
         "--runs", "1", "--", *TINY_RUN],
        capture_output=True, text=True, timeout=120,
    )


def test_peak_rss_of_the_checkout_against_itself():
    proc = _peak_rss(SRC, SRC)
    assert proc.returncode == 0, proc.stderr
    assert "MiB (quartiles" in proc.stdout and "of 2 processes, 1 runs each" in proc.stdout


def test_peak_rss_fails_when_outputs_differ(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = changed / "envload" / "cli.py"
    cli.write_text(cli.read_text().replace("GRID_MARGIN = 0.05", "GRID_MARGIN = 0.06"))
    proc = _peak_rss(SRC, changed)
    assert proc.returncode == 1
    assert "outputs differ: decision_grid_" in proc.stderr
