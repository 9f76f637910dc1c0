import json
import math
from pathlib import Path

import numpy as np
import pytest

from envload.dataset import (
    CSV_HEADER,
    ClassLabel,
    Dataset,
    FeatureId,
    MaterialLibrary,
    MaterialSpec,
    PropertyDistribution,
    SystemConstants,
    builtin_material_library,
    builtin_system_constants,
    constants_from_json,
    constants_to_json,
    library_from_json,
    library_to_json,
    read_dataset,
    write_dataset,
)

DATA_DIR = Path(__file__).parent / "data"


class TestBuiltinLibrary:
    def test_six_materials_with_unique_names(self):
        lib = builtin_material_library()
        assert len(lib) == 6
        assert len(set(lib.names)) == 6

    def test_concrete_conductivity(self):
        lib = builtin_material_library()
        concrete = lib[2]
        assert concrete.name == "concrete"
        d = concrete.dist[FeatureId.THERMAL_CONDUCTIVITY]
        assert (d.mean, d.std_dev) == (1.13, 0.1)

    def test_aluminum_density(self):
        lib = builtin_material_library()
        aluminum = lib[4]
        assert aluminum.name == "aluminum"
        d = aluminum.dist[FeatureId.DENSITY]
        assert (d.mean, d.std_dev) == (6278.0, 2876.0)

    def test_all_absorptances_identical(self):
        for m in builtin_material_library():
            for f in (
                FeatureId.SOLAR_ABSORPTANCE,
                FeatureId.VISUAL_ABSORPTANCE,
                FeatureId.THERMAL_ABSORPTANCE,
            ):
                assert (m.dist[f].mean, m.dist[f].std_dev) == (0.5, 0.05)

    def test_matches_checked_in_constants_file(self):
        # string comparison against the frozen export
        expected = (DATA_DIR / "builtin_library.json").read_text()
        got = json.dumps(library_to_json(builtin_material_library()),
                         indent=2, sort_keys=True) + "\n"
        assert got == expected


class TestSystemConstants:
    def test_values(self):
        c = builtin_system_constants()
        assert c.equipment_load == 10.98
        assert c.infiltration_rate == 0.0003
        assert c.lighting_density == 9.36
        assert c.people_density == 0.25
        assert c.ventilation_per_area == 0.0006
        assert c.ventilation_per_person == 0.005
        assert c.glazing_u_value == 0.6

    def test_matches_checked_in_constants_file(self):
        expected = (DATA_DIR / "system_constants.json").read_text()
        got = json.dumps(constants_to_json(builtin_system_constants()),
                         indent=2, sort_keys=True) + "\n"
        assert got == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SystemConstants(equipment_load=-1.0)


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
        with pytest.raises(ValueError):
            PropertyDistribution(1.0, -0.1)

    def test_distribution_rejects_non_finite_mean(self):
        with pytest.raises(ValueError):
            PropertyDistribution(math.inf, 0.1)

    def test_material_needs_all_seven_features(self):
        dist = {f: PropertyDistribution(1.0, 0.1) for f in FeatureId}
        del dist[FeatureId.DENSITY]
        with pytest.raises(ValueError, match="density"):
            MaterialSpec("incomplete", dist)

    def test_library_rejects_duplicate_names(self):
        dist = {f: PropertyDistribution(1.0, 0.1) for f in FeatureId}
        m = MaterialSpec("dup", dist)
        with pytest.raises(ValueError):
            MaterialLibrary((m, m))

    def test_row_needs_seven_features(self):
        with pytest.raises(ValueError):
            Dataset([0], [(1.0,) * 6])

    def test_row_rejects_nan_feature(self):
        with pytest.raises(ValueError):
            Dataset([0], [(1.0, 2.0, math.nan, 4.0, 0.5, 0.5, 0.5)])

    def test_row_rejects_negative_load(self):
        with pytest.raises(ValueError):
            Dataset([0], [(1.0,) * 7], loads=[-1.0])

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


class TestJsonExport:
    def test_library_roundtrip(self):
        lib = builtin_material_library()
        assert library_from_json(library_to_json(lib)) == lib

    def test_constants_roundtrip(self):
        c = builtin_system_constants()
        assert constants_from_json(constants_to_json(c)) == c

    def test_constants_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="boiler"):
            constants_from_json({"boiler_efficiency": 0.9})
