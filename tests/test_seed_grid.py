"""Byte identity beyond the default seed: the EFS table and the summary of
`envload run` on a grid of seeds, sizes and metrics, against pinned sha256
digests. A flipped prediction anywhere in the sweep or the final models
changes one of these files. A smaller grid pins `--no-stratify`, the split
of all rows as one class. And a wider grid of seeds and sizes on which a
run with the default surrogate must finish.

Regenerate the pins (only for a deliberate output change) with

    PYTHONPATH=src python3 tests/test_seed_grid.py
"""

import hashlib
import json
from itertools import product
from pathlib import Path

import pytest

from envload.cli import main

PINNED = Path(__file__).parent / "data" / "efs_grid_sha256.json"
FILES = ("efs_accuracy.csv", "summary.json")
CONFIGS = list(product(range(10), (30, 100), ("train", "cv5")))
UNSTRATIFIED_CONFIGS = list(product(range(3), (30, 100), ("train", "cv5")))


def _key(seed: int, n_per_material: int, metric: str, stratified: bool = True) -> str:
    key = f"seed={seed} n_per_material={n_per_material} metric={metric}"
    return key if stratified else f"{key} no-stratify"


def _digests(out: Path, seed: int, n_per_material: int, metric: str,
             stratified: bool = True) -> dict[str, str]:
    argv = ["run", "--out", str(out), "--seed", str(seed), "--split-seed", str(seed),
            "--cv-seed", str(seed), "--n-per-material", str(n_per_material),
            "--efs-metric", metric, "--grid-resolution", "2"]
    assert main(argv if stratified else [*argv, "--no-stratify"]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


@pytest.mark.parametrize("seed,n_per_material,metric", CONFIGS)
def test_outputs_match_pinned_digests(tmp_path, seed, n_per_material, metric):
    pinned = json.loads(PINNED.read_text())[_key(seed, n_per_material, metric)]
    assert _digests(tmp_path, seed, n_per_material, metric) == pinned


@pytest.mark.parametrize("seed,n_per_material,metric", UNSTRATIFIED_CONFIGS)
def test_unstratified_outputs_match_pinned_digests(tmp_path, seed, n_per_material, metric):
    pinned = json.loads(PINNED.read_text())[_key(seed, n_per_material, metric, False)]
    assert _digests(tmp_path, seed, n_per_material, metric, False) == pinned


@pytest.mark.parametrize("n_per_material", [100, 1000])
@pytest.mark.parametrize("seed", range(20))
def test_default_surrogate_runs_at_every_seed_and_size(tmp_path, seed, n_per_material):
    # the default surrogate has no negative load to abort on, at any seed
    assert main(["run", "--out", str(tmp_path), "--seed", str(seed), "--split-seed", str(seed),
                 "--cv-seed", str(seed), "--n-per-material", str(n_per_material),
                 "--grid-resolution", "2"]) == 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        configs = [*CONFIGS, *((*c, False) for c in UNSTRATIFIED_CONFIGS)]
        pins = {_key(*c): _digests(Path(tmp) / _key(*c).replace(" ", "_"), *c)
                for c in configs}
    PINNED.write_text(json.dumps(pins, indent=2) + "\n")
