"""What four stages hold beyond their result stays flat as the rows grow:
thermal_loads fills its load column a block of rows at a time,
simulate_dataset keeps that column without a copy, shuffled draws its swaps
in blocks of at most sampling._BLOCK, and ingest_external_loads collects the
loads in a float64 column and a seen-mask. Each one's tracemalloc peak less
its result, with numpy 2.4 on x86-64, in MiB at 60 000 and 240 000 rows:
thermal_loads 2.75 and 10.99 when it worked on all the rows at once, 1.00
and 1.00 now; simulate_dataset 1.00 and 1.84 when the Dataset copied the
column, 1.00 and 1.00 now; shuffled 3.51 and 13.11 when its draws were one
block, 2.79 and 2.94 now; the ingest path 2.30 and 9.17 when it collected a
list of Python floats, 0.29 and 0.47 now."""

import sys
import tracemalloc

import numpy as np
import pytest

from envload.dataset import Dataset
from envload.sampling import Xoshiro256pp
from envload.surrogate import (SurrogateConfig, ingest_external_loads, simulate_dataset,
                               thermal_loads)


def thermal_loads_call(dataset, tmp_path):
    return lambda: thermal_loads(dataset.features, SurrogateConfig()), lambda q: q.nbytes


def simulate_call(dataset, tmp_path):
    return lambda: simulate_dataset(dataset, SurrogateConfig()), lambda ds: ds.loads.nbytes


def shuffled_call(dataset, tmp_path):
    items = list(range(len(dataset)))  # the caller's list; the copy is the result
    return lambda: Xoshiro256pp(7).shuffled(items), sys.getsizeof


def ingest_call(dataset, tmp_path):
    path = tmp_path / "loads.csv"
    path.write_text("row_index,load\n" + "".join(f"{i},{i % 97}.25\n" for i in range(len(dataset))))
    return lambda: ingest_external_loads(dataset, path), lambda ds: ds.loads.nbytes


@pytest.mark.parametrize("make_call, bound_mib", [(thermal_loads_call, 1.5), (simulate_call, 1.5),
                                                  (shuffled_call, 3.5), (ingest_call, 1.0)],
                         ids=["thermal_loads", "simulate_dataset", "shuffled", "ingest"])
def test_transient_memory_does_not_grow_with_n(default_dataset, tmp_path, make_call, bound_mib):
    beyond = []
    for n in (60_000, 240_000):
        features = np.tile(default_dataset.features, (n // len(default_dataset), 1))
        call, size = make_call(Dataset(np.zeros(n, dtype=np.int64), features), tmp_path)
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beyond.append(peak - size(result))
    assert max(beyond) <= bound_mib * 2**20 and beyond[1] - beyond[0] <= 2**20, beyond
