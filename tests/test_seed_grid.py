"""Byte identity beyond the default seed: the EFS table and the summary of
`envload run` on a grid of seeds, sizes and metrics, against pinned sha256
digests. A flipped prediction anywhere in the sweep or the final models
changes one of these files.

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
# all surrogate constants, with q_base = 0: the default surrogate aborts on
# negative loads for some of these seeds
SURROGATE = Path(__file__).resolve().parents[1] / "bench" / "surrogate.json"
FILES = ("efs_accuracy.csv", "summary.json")
CONFIGS = list(product(range(10), (30, 100), ("train", "cv5")))


def _key(seed: int, n_per_material: int, metric: str) -> str:
    return f"seed={seed} n_per_material={n_per_material} metric={metric}"


def _digests(out: Path, seed: int, n_per_material: int, metric: str) -> dict[str, str]:
    argv = ["run", "--out", str(out), "--seed", str(seed), "--split-seed", str(seed),
            "--cv-seed", str(seed), "--n-per-material", str(n_per_material),
            "--efs-metric", metric, "--grid-resolution", "2",
            "--surrogate-config", str(SURROGATE)]
    assert main(argv) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}


@pytest.mark.parametrize("seed,n_per_material,metric", CONFIGS)
def test_outputs_match_pinned_digests(tmp_path, seed, n_per_material, metric):
    pinned = json.loads(PINNED.read_text())[_key(seed, n_per_material, metric)]
    assert _digests(tmp_path, seed, n_per_material, metric) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {_key(*c): _digests(Path(tmp) / _key(*c).replace(" ", "_"), *c)
                for c in CONFIGS}
    PINNED.write_text(json.dumps(pins, indent=2) + "\n")
