"""Smoke test of the benchmark: every workload at 20 rows per material, in
both modes, through the same code path as a measured run.

    python3 -m pytest bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as harness  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_workload_inputs_cover_benchmark_json():
    argv = json.loads((BENCH / "workloads.json").read_text())
    pinned = json.loads(harness.REFERENCES.read_text())
    assert sorted(argv) == sorted(pinned) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    result = harness.measure(
        workload, harness.DEFAULT_SEED, seconds=0, trace=bool(trace), n_per_material=20
    )
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in named)
    for metric in named:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
