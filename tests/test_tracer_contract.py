"""The benchmark's span tracer (bench/spans.py) wraps package names where
their callers look them up. A rename or a removed import in the package
would break `bench/run.py --trace 1`, and a stage that stops calling a name
through cli would leave its metrics at 0; these tests catch both in the
suite."""

import runpy
from pathlib import Path

import pytest

from envload import lda, sampling
from envload.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _sites():
    traced_names = runpy.run_path(str(SPANS), run_name="bench_spans")["_traced_names"]
    traced = [(owner, attr) for owner, attr, _, _ in traced_names()]
    return traced + [(sampling.Xoshiro256pp, "next_gaussian"), (lda, "CholeskyFactor")]


@pytest.mark.parametrize("owner, attr", _sites(),
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_every_traced_site_fires_in_a_run(tmp_path):
    # a refactor that bypasses the names that cli looks up runs fine, but
    # leaves the per-layer metrics of those sites reading 0
    spans = runpy.run_path(str(SPANS), run_name="bench_spans")
    tracer = spans["Tracer"]()
    with tracer.run(0) as counts:
        assert main(["run", "--out", str(tmp_path / "out"), "--n-per-material", "10",
                     "--grid-resolution", "3"]) == 0
    fired = {span.name for span in tracer.spans[0]}
    # `envload run` reads no file back, so read_dataset is wrapped but never called
    expected = {name for _, _, name, _ in spans["_traced_names"]()} - {"dataset.read_dataset"}
    assert sorted(expected - fired) == []
    assert counts["efs.subsets"] == 127
    assert counts["dataset.bytes_written"] > 0
