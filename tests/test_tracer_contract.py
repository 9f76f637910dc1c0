"""The benchmark's span tracer (bench/spans.py) wraps package names where
their callers look them up. A rename or a removed import in the package
would break `bench/run.py --trace 1`; this test catches it in the suite."""

import runpy
from pathlib import Path

import pytest

from envload import lda, sampling

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _sites():
    traced_names = runpy.run_path(str(SPANS), run_name="bench_spans")["_traced_names"]
    traced = [(owner, attr) for owner, attr, _, _ in traced_names()]
    return traced + [(sampling.Xoshiro256pp, "next_gaussian"), (lda, "CholeskyFactor")]


@pytest.mark.parametrize("owner, attr", _sites(),
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
