import csv
import io
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from envload import dataset as dataset_mod
from envload.dataset import (
    CSV_HEADER,
    ClassLabel,
    Dataset,
    SYSTEM_CONSTANTS,
    FeatureId,
    MaterialLibrary,
    builtin_material_library,
    read_dataset,
    write_dataset,
)

DATA_DIR = Path(__file__).parent / "data"


class TestBuiltinLibrary:
    def test_six_materials_with_unique_names(self):
        lib = builtin_material_library()
        assert len(lib) == 6
        assert len(set(lib.names)) == 6
        assert lib.means.shape == lib.std_devs.shape == (6, 7)

    def test_concrete_conductivity(self):
        lib = builtin_material_library()
        assert lib.names[2] == "concrete"
        f = FeatureId.THERMAL_CONDUCTIVITY
        assert (lib.means[2, f], lib.std_devs[2, f]) == (1.13, 0.1)

    def test_aluminum_density(self):
        lib = builtin_material_library()
        assert lib.names[4] == "aluminum"
        f = FeatureId.DENSITY
        assert (lib.means[4, f], lib.std_devs[4, f]) == (6278.0, 2876.0)

    def test_all_absorptances_identical(self):
        lib = builtin_material_library()
        absorptances = [FeatureId.SOLAR_ABSORPTANCE, FeatureId.VISUAL_ABSORPTANCE,
                        FeatureId.THERMAL_ABSORPTANCE]
        assert np.all(lib.means[:, absorptances] == 0.5)
        assert np.all(lib.std_devs[:, absorptances] == 0.05)

    def test_matches_checked_in_constants_file(self):
        # every mean and std_dev, against the frozen copy
        frozen = json.loads((DATA_DIR / "builtin_library.json").read_text())["materials"]
        lib = builtin_material_library()
        assert lib.names == tuple(entry["name"] for entry in frozen)
        for key, got in (("mean", lib.means), ("std_dev", lib.std_devs)):
            expected = [[entry["distributions"][f.column_name][key] for f in FeatureId]
                        for entry in frozen]
            assert got.tolist() == expected
            assert not got.flags.writeable


class TestSystemConstants:
    def test_values(self):
        assert SYSTEM_CONSTANTS == {
            "equipment_load": 10.98,
            "infiltration_rate": 0.0003,
            "lighting_density": 9.36,
            "people_density": 0.25,
            "ventilation_per_area": 0.0006,
            "ventilation_per_person": 0.005,
            "glazing_u_value": 0.6,
        }

    def test_matches_checked_in_constants_file(self):
        expected = (DATA_DIR / "system_constants.json").read_text()
        assert json.dumps(SYSTEM_CONSTANTS, indent=2, sort_keys=True) + "\n" == expected


class TestFeatureOrder:
    def test_canonical_indices(self):
        assert [int(f) for f in FeatureId] == [0, 1, 2, 3, 4, 5, 6]
        assert [f.column_name for f in FeatureId] == [
            "thickness",
            "density",
            "thermal_conductivity",
            "specific_heat_capacity",
            "solar_absorptance",
            "visual_absorptance",
            "thermal_absorptance",
        ]

    def test_csv_header_follows_canonical_order(self):
        assert CSV_HEADER == (
            "material_index",
            *[f.column_name for f in FeatureId],
            "load",
            "label",
        )

    def test_class_label_total_order(self):
        assert ClassLabel.LOW < ClassLabel.MEDIUM < ClassLabel.HIGH


class TestDomainTypes:
    def test_distribution_rejects_negative_std(self):
        for std in (-0.1, math.nan, math.inf):
            stds = np.full((2, 7), 0.1)
            stds[1, FeatureId.DENSITY] = std
            with pytest.raises(ValueError, match=(
                    f"^material 'b', feature density: need a finite mean and a finite "
                    f"std_dev >= 0, got mean 1.0, std_dev {std}$")):
                MaterialLibrary(("a", "b"), np.ones((2, 7)), stds)

    def test_distribution_rejects_non_finite_mean(self):
        for mean in (math.nan, math.inf):
            means = np.ones((2, 7))
            means[0, FeatureId.THERMAL_ABSORPTANCE] = mean
            means[1, FeatureId.THICKNESS] = mean  # not the first bad value
            with pytest.raises(ValueError, match="^material 'a', feature thermal_absorptance: "):
                MaterialLibrary(("a", "b"), means, np.full((2, 7), 0.1))

    def test_material_needs_all_seven_features(self):
        for attr, shape in (("means", (1, 6)), ("std_devs", (2, 7))):
            arrays = {"means": np.ones((1, 7)), "std_devs": np.ones((1, 7)), attr: np.ones(shape)}
            with pytest.raises(ValueError, match=rf"^{attr}: expected shape \(1, 7\), got"):
                MaterialLibrary(("one",), **arrays)

    def test_library_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            MaterialLibrary(("dup", "dup"), np.ones((2, 7)), np.ones((2, 7)))

    def test_library_copies_and_freezes_its_arrays(self):
        means = np.ones((1, 7))
        lib = MaterialLibrary(["one"], means, np.zeros((1, 7)))
        means[0, 0] = 2.0
        assert lib.names == ("one",) and lib.means[0, 0] == 1.0
        with pytest.raises(ValueError):
            lib.std_devs[0, 0] = 1.0

    def test_row_needs_seven_features(self):
        with pytest.raises(ValueError):
            Dataset([0], [(1.0,) * 6])

    def test_row_rejects_nan_feature(self):
        with pytest.raises(ValueError):
            Dataset([0], [(1.0, 2.0, math.nan, 4.0, 0.5, 0.5, 0.5)])

    def test_row_rejects_negative_load(self):
        with pytest.raises(ValueError):
            Dataset([0], [(1.0,) * 7], loads=[-1.0])

    @pytest.mark.parametrize("load", [math.nan, math.inf, -math.inf])
    def test_row_rejects_non_finite_load(self, load):
        with pytest.raises(ValueError, match="^row 0, column load: must be finite and >= 0"):
            Dataset([0], [(1.0,) * 7], loads=[load])

    def test_with_loads_length_check(self):
        ds = Dataset([0], [(1.0,) * 7])
        with pytest.raises(ValueError):
            ds.with_loads([1.0, 2.0])

    @pytest.mark.parametrize("column, bad, message", [
        ("features", math.nan, "row 3, column thermal_conductivity: not finite"),
        ("loads", -1.0, "row 3, column load: must be finite and >= 0"),
        ("labels", 3, "row 3, column label: not a class code"),
        ("material_index", -1, "row 3, column material_index: must be >= 0"),
    ])
    def test_first_bad_row_and_column_named(self, column, bad, message):
        columns = {
            "material_index": np.zeros(10, dtype=np.int64),
            "features": np.ones((10, 7)),
            "loads": np.ones(10),
            "labels": np.zeros(10, dtype=np.int8),
        }
        for row in (7, 3):
            if column == "features":
                columns[column][row, FeatureId.THERMAL_CONDUCTIVITY] = bad
            else:
                columns[column][row] = bad
        with pytest.raises(ValueError, match=message):
            Dataset(**columns)

    @pytest.mark.parametrize("column, values", [
        ("labels", np.array([256])),
        ("material_index", [1.5]),
        ("loads", [None]),
    ])
    def test_values_that_do_not_fit_the_column_dtype_rejected(self, column, values):
        columns = {"material_index": [0], "features": [(1.0,) * 7], column: values}
        with pytest.raises(ValueError, match="do not fit"):
            Dataset(**columns)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e30])
    def test_float_that_does_not_fit_an_integer_column_rejected(self, value):
        # a ValueError, not numpy's cast RuntimeWarning first (an error under -W error)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^column material_index: values do not fit int64$"):
                Dataset(np.array([value]), np.zeros((1, 7)))

    def test_narrower_float_column_checked_by_value(self):
        features = np.ones((4, 7), dtype=np.float32)
        features[2, FeatureId.DENSITY] = np.nan
        with pytest.raises(ValueError, match="row 2, column density: not finite"):
            Dataset(np.zeros(4, dtype=np.int64), features)

    def test_columns_are_read_only(self):
        features = np.ones((2, 7))
        ds = Dataset([0, 1], features, loads=[1.0, 2.0], labels=[ClassLabel.LOW] * 2)
        features[0, 0] = 5.0  # the caller's array was copied, not frozen
        assert ds.features[0, 0] == 1.0
        for column in (ds.material_index, ds.features, ds.loads, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        assert ds.with_loads([3.0, 4.0]).features is ds.features


    def test_select_holds_each_column_once(self):
        ds = _synthetic_dataset(30_000)
        rows = np.arange(30_000) % 3 != 0
        tracemalloc.start()
        try:
            part = ds.select(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(c.nbytes for c in part._columns())
        assert peak <= 1.25 * size, (peak, size)
        assert part == ds.select(np.flatnonzero(rows))
        assert not any(c.flags.writeable for c in part._columns())

def _synthetic_dataset(n=600, labels=True):
    i = np.arange(n)
    features = np.column_stack([
        0.01 + i * 1e-5,
        545.0 + i,
        0.135 * (1 + i * 1e-3),
        1740.0 / (1 + i * 1e-4),
        np.full(n, 0.5),
        np.full(n, 0.25 + 1e-9),
        np.full(n, 1.0 / 3.0),
    ])
    return Dataset(i % 6, features, loads=75.0 + i * 0.01,
                   labels=(i % 3) if labels else None)


class TestCsvRoundTrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = _synthetic_dataset()
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        assert read_dataset(path) == ds

    def test_roundtrip_without_labels(self, tmp_path):
        ds = _synthetic_dataset(labels=False)
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        assert read_dataset(path) == ds
        assert path.read_text().splitlines()[1].endswith(",75.0,")

    def test_load_on_some_rows_only_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(header + "\n0,0.1,500,0.2,800,0.5,0.5,0.5,80.0,high\n"
                        "0,0.1,500,0.2,800,0.5,0.5,0.5,,high\n")
        with pytest.raises(ValueError, match="row 2, column load"):
            read_dataset(path)

    def test_roundtrip_of_generated_dataset(self, tmp_path, default_dataset):
        path = tmp_path / "gen.csv"
        write_dataset(default_dataset, path)
        assert read_dataset(path) == default_dataset

    def test_features_only_header_accepted(self, tmp_path):
        path = tmp_path / "bare.csv"
        header = ",".join(CSV_HEADER[:8])
        path.write_text(header + "\n0,0.1,500,0.2,800,0.5,0.5,0.5\n")
        ds = read_dataset(path)
        assert len(ds) == 1
        assert ds.loads is None and ds.labels is None

    def test_wrong_feature_count(self, tmp_path):
        ds = _synthetic_dataset(3)
        path = tmp_path / "bad.csv"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        del cells[3]  # drop one feature cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 2: expected 7 features"):
            read_dataset(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "label.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(header + "\n0,0.1,500,0.2,800,0.5,0.5,0.5,80.0,extreme\n")
        with pytest.raises(ValueError, match="row 1.*label"):
            read_dataset(path)

    def test_nan_feature_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(header + "\n0,0.1,nan,0.2,800,0.5,0.5,0.5,,\n")
        with pytest.raises(ValueError, match="row 1.*density"):
            read_dataset(path)

    def test_non_numeric_feature_names_column(self, tmp_path):
        path = tmp_path / "text.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(header + "\n0,0.1,heavy,0.2,800,0.5,0.5,0.5,,\n")
        with pytest.raises(ValueError, match="density"):
            read_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_dataset(path)


def _row_line(ds: Dataset, i: int) -> str:
    """Row i as csv.writer writes it, from per-element Python values."""
    load = "" if ds.loads is None else repr(float(ds.loads[i]))
    label = "" if ds.labels is None else ClassLabel(int(ds.labels[i])).csv_value
    buf = io.StringIO()
    csv.writer(buf).writerow(
        [int(ds.material_index[i]), *(repr(float(v)) for v in ds.features[i]), load, label]
    )
    return buf.getvalue()


def _text(path: Path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


class TestFormatRows:
    @pytest.mark.parametrize("columns", ["features", "loads", "labels"])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_equals_per_row_formula_at_chunk_edges(self, tmp_path, edge, columns):
        ds = _synthetic_dataset(dataset_mod._FORMAT_CHUNK + edge, labels=columns == "labels")
        if columns == "features":
            ds = Dataset(ds.material_index, ds.features)
        expected = [_row_line(ds, i) for i in range(len(ds))]
        every = np.ones(len(ds), dtype=bool)
        parts = {tmp_path / "all.csv": every, tmp_path / "none.csv": ~every,
                 tmp_path / "third.csv": np.arange(len(ds)) % 3 == 0}
        path = tmp_path / "ds.csv"
        write_dataset(ds, path, parts)
        header = ",".join(CSV_HEADER) + "\r\n"
        assert _text(path) == header + "".join(expected)
        for part, mask in parts.items():
            kept = [line for line, keep in zip(expected, mask) if keep]
            assert _text(part) == header + "".join(kept), part.name

    def test_peak_memory_is_bounded_by_a_chunk(self, tmp_path):
        # the writer holds one chunk's text, so 8x the rows must not raise
        # its allocation peak beyond noise
        peaks = []
        for n in (3000, 24000):
            ds = _synthetic_dataset(n)
            third = np.arange(n) % 3
            parts = {tmp_path / f"part{k}.csv": third == k for k in range(3)}
            tracemalloc.start()
            try:
                write_dataset(ds, tmp_path / "ds.csv", parts)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks
