import csv
import dataclasses
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
    LABEL_NAMES,
    ClassLabel,
    Dataset,
    SYSTEM_CONSTANTS,
    FeatureId,
    MaterialLibrary,
    builtin_material_library,
    csv_text,
    float_cells,
    read_dataset,
    text_cells,
    write_csvs,
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
        # a None or text cell, which the dtype cannot hold at all
        ("labels", [None]),
        ("labels", ["low"]),
        ("loads", ["a"]),
        ("material_index", ["x"]),
        ("material_index", [None]),
    ])
    def test_values_that_do_not_fit_the_column_dtype_rejected(self, column, values):
        columns = {"material_index": [0], "features": [(1.0,) * 7], column: values}
        name = {"labels": "label", "loads": "load"}.get(column, column)
        with pytest.raises(ValueError, match=f"^column {name}: values do not fit"):
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


def _synthetic_dataset(n=600):
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
    return Dataset(i % 6, features, loads=75.0 + i * 0.01, labels=i % 3)


class TestCsvRoundTrip:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = _synthetic_dataset()
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        assert read_dataset(path) == ds

    @pytest.mark.parametrize("column", ["loads", "labels"])
    def test_dataset_without_loads_or_labels_not_written(self, tmp_path, column):
        ds = dataclasses.replace(_synthetic_dataset(3), **{column: None})
        path = tmp_path / "ds.csv"
        with pytest.raises(ValueError, match=f"without {column}"):
            write_dataset(ds, path, {tmp_path / "part.csv": np.ones(3, dtype=bool)})
        assert list(tmp_path.iterdir()) == []

    def test_load_on_some_rows_only_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(header + "\n0,0.1,500,0.2,800,0.5,0.5,0.5,80.0,high\n"
                        "0,0.1,500,0.2,800,0.5,0.5,0.5,,high\n")
        with pytest.raises(ValueError, match="row 2, column load"):
            read_dataset(path)

    def test_roundtrip_of_generated_dataset(self, tmp_path, labeled_dataset):
        path = tmp_path / "gen.csv"
        write_dataset(labeled_dataset, path)
        assert read_dataset(path) == labeled_dataset

    @pytest.mark.parametrize("width", [8, 9])
    def test_partial_header_rejected(self, tmp_path, width):
        path = tmp_path / "partial.csv"
        path.write_text(",".join(CSV_HEADER[:width]) + "\n0,0.1,500,0.2,800,0.5,0.5,0.5\n")
        with pytest.raises(ValueError, match="bad header"):
            read_dataset(path)

    def test_label_on_some_rows_only_rejected(self, tmp_path):
        path = tmp_path / "partial.csv"
        header = ",".join(CSV_HEADER)
        path.write_text(header + "\n0,0.1,500,0.2,800,0.5,0.5,0.5,80.0,high\n"
                        "0,0.1,500,0.2,800,0.5,0.5,0.5,80.0,\n")
        with pytest.raises(ValueError, match="row 2, column label: expected one of"):
            read_dataset(path)

    def test_wrong_feature_count(self, tmp_path):
        ds = _synthetic_dataset(3)
        path = tmp_path / "bad.csv"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        del cells[3]  # drop one feature cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 2: expected 10 cells, got 9"):
            read_dataset(path)

    @pytest.mark.parametrize("row, count", [("0,0.1", 2), ("0," + "0.5," * 9 + "low", 11)])
    def test_row_of_the_wrong_length_names_its_cell_count(self, tmp_path, row, count):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + row + "\n")
        with pytest.raises(ValueError, match=f"^row 1: expected 10 cells, got {count}$"):
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
    buf = io.StringIO()
    csv.writer(buf).writerow(
        [int(ds.material_index[i]), *(repr(float(v)) for v in ds.features[i]),
         repr(float(ds.loads[i])), ClassLabel(int(ds.labels[i])).csv_value]
    )
    return buf.getvalue()


# values that repr writes itself, outside float_cells' fast domain, and
# the largest integer and exponent forms around it
_EDGE_VALUES = (0.0, 5e-324, 1e-7, 1e16, 1e17, 2.0**54, 1.7976931348623157e308)


def _with_edges(ds: Dataset, column: str) -> Dataset:
    """ds with one column changed: a float column holds _EDGE_VALUES on every
    other row, and the label column one class on every row."""
    every_other = np.arange(len(ds)) % 2 == 0
    edges = np.resize(_EDGE_VALUES, np.count_nonzero(every_other))
    if column == "features":
        features = ds.features.copy()
        features[every_other, 1] = edges
        return Dataset(ds.material_index, features, ds.loads, ds.labels)
    if column == "loads":
        loads = ds.loads.copy()
        loads[every_other] = edges
        return ds.with_loads(loads)
    return ds.with_labels(np.full(len(ds), ClassLabel.HIGH))


def _text(path: Path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


# rows per write_dataset chunk: the byte budget holds 512 dataset lines
_DATASET_CHUNK_ROWS = dataset_mod._CHUNK_BYTES // dataset_mod._DATASET_LINE


class TestFormatRows:
    @pytest.mark.parametrize("columns", ["features", "loads", "labels"])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_equals_per_row_formula_at_chunk_edges(self, tmp_path, edge, columns):
        ds = _with_edges(_synthetic_dataset(_DATASET_CHUNK_ROWS + edge), columns)
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


def old_csv_text(blocks, row_masks=()):
    """csv_text as it was: the blocks side by side, then a "\r\n" column,
    then each part without its NULs."""
    n = len(blocks[0])
    line_ends = np.repeat(np.frombuffer(b"\r\n", dtype=np.uint8).reshape(1, 2), n, axis=0)
    lines = np.concatenate([b.reshape(n, -1) for b in blocks] + [line_ends], axis=1)
    lines[:, 0] = 0
    return [part[part != 0] for part in [lines, *(lines[m] for m in row_masks)]]


def _random_cells(rng, shape):
    """Random text bytes, a third of them NUL."""
    return np.where(rng.random(shape) < 1 / 3, 0, rng.integers(1, 256, shape)).astype(np.uint8)


class TestCsvAssembly:
    @pytest.mark.parametrize("n", [1, 2, 7, 600])
    def test_equals_the_concatenated_blocks_without_nuls(self, n):
        rng = np.random.default_rng(n)
        nul_column = _random_cells(rng, (n, 2, 5))
        nul_column[:, 1] = 0  # an all-NUL cell column
        blocks = [_random_cells(rng, (n, 3, 9)), nul_column, _random_cells(rng, (n,)),
                  _random_cells(rng, (n, 4))]
        masks = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool), rng.random(n) < 0.5]
        got = list(csv_text(blocks, masks))
        assert all(part.dtype == np.uint8 for part in got)
        assert [part.tobytes() for part in got] == [
            part.tobytes() for part in old_csv_text(blocks, masks)]

    def test_the_dataset_keeps_its_512_line_chunks(self):
        assert _DATASET_CHUNK_ROWS == 512

    def test_a_grid_table_reads_the_same_in_byte_chunks_as_in_one(self, tmp_path, monkeypatch):
        xs, ys = float_cells(np.linspace(-1.0, 2.0, 90)), float_cells(np.linspace(5.0, 7.5, 80))
        codes = np.arange(len(xs) * len(ys)) % 3
        blocks = [np.tile(xs, (len(ys), 1)), np.repeat(ys, len(xs), axis=0),
                  text_cells(LABEL_NAMES, codes)]
        line_bytes = sum(b[0].size for b in blocks) + 2
        assert dataset_mod._CHUNK_BYTES // line_bytes < len(codes)  # more than one chunk
        texts = []
        for whole in (False, True):
            if whole:  # one chunk holds every row
                monkeypatch.setattr(dataset_mod, "_CHUNK_BYTES", len(codes) * line_bytes)
            path = tmp_path / f"grid_{whole}.csv"
            write_csvs([(path, ["x", "y", "label"])], len(codes), line_bytes,
                       lambda rows: csv_text([b[rows] for b in blocks]))
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
        assert texts[0].count(b"\r\n") == len(codes) + 1

    @pytest.mark.parametrize("edge", [-1, 1])
    def test_a_dataset_reads_the_same_in_byte_chunks_as_in_one(self, tmp_path, monkeypatch,
                                                                edge):
        ds = _synthetic_dataset(_DATASET_CHUNK_ROWS + edge)
        texts = []
        for whole in (False, True):
            if whole:
                monkeypatch.setattr(dataset_mod, "_CHUNK_BYTES",
                                    len(ds) * dataset_mod._DATASET_LINE)
            paths = [tmp_path / f"{name}_{whole}.csv" for name in ("ds", "train", "test")]
            third = np.arange(len(ds)) % 3 == 0
            write_dataset(ds, paths[0], {paths[1]: third, paths[2]: ~third})
            texts.append([p.read_bytes() for p in paths])
        assert texts[0] == texts[1]
