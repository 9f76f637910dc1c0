"""Every stage checks its rows by the Dataset's rules: the same bad cell
fails each of them with the same message, naming its row and column. The
two CSV readers only parse text, so a value that parses but breaks a rule
is named alike whether it was read or passed in."""

import re

import numpy as np
import pytest

from envload import dataset as dataset_mod
from envload.dataset import CSV_HEADER, LABEL_NAMES, Dataset, FeatureId, read_dataset
from envload.efs import run_efs
from envload.lda import accuracy, class_stats, fit_lda, predict_many
from envload.pca import fit_pca
from envload.surrogate import SurrogateConfig, ingest_external_loads, thermal_loads

# valid rows: every cell in (0.1, 0.9), and three classes of four rows each
_X = np.random.default_rng(31).uniform(0.1, 0.9, size=(12, 7))
_Y = np.tile(np.arange(3, dtype=np.int8), 4)
_MODEL = fit_lda(class_stats(_X, _Y), [list(range(7))])

CALLS = {
    "Dataset": lambda x, y: Dataset(np.zeros(len(x), dtype=np.int64), x, labels=y),
    "class_stats": class_stats,
    "accuracy": lambda x, y: accuracy(_MODEL, x, y),
    "predict_many": lambda x, y: predict_many(_MODEL, x),
    "run_efs": run_efs,
    "fit_pca": lambda x, y: fit_pca(x),
    "thermal_loads": lambda x, y: thermal_loads(x, SurrogateConfig()),
}

# each bad cell: where it goes (a feature, or None for the label), its value,
# the message and the calls whose input rule it breaks
CASES = {
    "nan": (FeatureId.DENSITY, np.nan, "row 4, column density: not finite, got nan",
            list(CALLS)),
    "inf": (FeatureId.SOLAR_ABSORPTANCE, np.inf,
            "row 4, column solar_absorptance: not finite, got inf", list(CALLS)),
    "label-3": (None, 3, "row 4, column label: not a class code, got 3",
                ["Dataset", "class_stats", "accuracy", "run_efs"]),
    "thickness-0": (FeatureId.THICKNESS, 0.0, "row 4, column thickness: must be > 0, got 0.0",
                    ["thermal_loads"]),
    "thickness-negative": (FeatureId.THICKNESS, -0.5,
                           "row 4, column thickness: must be > 0, got -0.5", ["thermal_loads"]),
}


@pytest.mark.parametrize("case, call", [(case, call) for case, (*_, calls) in CASES.items()
                                        for call in calls])
def test_the_first_bad_cell_is_named_alike_by_every_stage(case, call):
    feature, value, message, _ = CASES[case]
    x, y = _X.copy(), _Y.copy()
    for row in (9, 4):  # the first of two bad rows is the one named
        if feature is None:
            y[row] = value
        else:
            x[row, feature] = value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CALLS[call](x, y)


@pytest.mark.parametrize("call", list(CALLS))
def test_the_valid_rows_pass_every_stage(call):
    CALLS[call](_X, _Y)


@pytest.mark.parametrize("call", ["Dataset", "class_stats", "accuracy", "run_efs"])
@pytest.mark.parametrize("label", [None, "low"])
def test_a_label_that_is_not_a_number_names_the_label_column(call, label):
    y = _Y.tolist()
    y[4] = label
    with pytest.raises(ValueError, match="^column label: values do not fit int8$"):
        CALLS[call](_X, y)


ROW = dataset_mod._CHECK_ROWS + 5  # in the second block of rows checked
N = 3 * dataset_mod._CHECK_ROWS


def _past_the_first_block(shape, column, value):
    """Ones of shape, with value at row ROW (in column, in a matrix) and at ROW + 1."""
    a = np.ones(shape)
    a[(ROW, column)[:a.ndim]] = a[(ROW + 1, 0)[:a.ndim]] = value
    return a


@pytest.mark.parametrize("call, message", [
    (lambda: Dataset(np.zeros(N, dtype=np.int64), np.ones((N, 7)),
                     loads=_past_the_first_block((N,), 0, -1.0)),
     "column load: must be finite and >= 0, got -1.0"),
    (lambda: Dataset(np.zeros(N, dtype=np.int64), _past_the_first_block((N, 7), 3, np.nan)),
     "column specific_heat_capacity: not finite, got nan"),
    # a column past the seventh is named by its index
    (lambda: predict_many(_MODEL, _past_the_first_block((N, 9), 8, np.nan)),
     "column 8: not finite, got nan"),
], ids=["loads", "features", "ninth-column"])
def test_a_cell_past_the_first_block_is_named_by_its_row(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(f'row {ROW}, {message}')}$"):
        call()


def _columns(column=None, value=None):
    """The Dataset columns of _X and _Y with loads of 80.0, and value at rows
    9 and 4 of column (in the density, for the features)."""
    columns = {"material_index": np.zeros(len(_X), dtype=np.int64), "features": _X.copy(),
               "loads": np.full(len(_X), 80.0), "labels": _Y}
    if column is not None:
        at = (slice(None), FeatureId.DENSITY) if column == "features" else slice(None)
        columns[column][at][[9, 4]] = value
    return columns


def _dataset_lines(columns):
    """The lines of a dataset file of columns, each float written by repr."""
    return [",".join(CSV_HEADER)] + [
        ",".join([str(index), *map(repr, x.tolist()), repr(load.item()), LABEL_NAMES[label]])
        for index, x, load, label in zip(*columns.values())]


def _read(columns, tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("\n".join(_dataset_lines(columns)) + "\n")
    return read_dataset(path)


def _ingest(columns, tmp_path):
    path = tmp_path / "loads.csv"  # a line for every row
    path.write_text("row_index,load\n" + "".join(
        f"{i},{load!r}\n" for i, load in enumerate(columns["loads"].tolist())))
    return ingest_external_loads(Dataset(**{**columns, "loads": None}), path)


READERS = {"Dataset": lambda columns, tmp_path: Dataset(**columns),
           "read_dataset": _read, "ingest_external_loads": _ingest}

# each bad value: its column, the value and the message, the same from each reader
RULE_CASES = {
    "negative-load": ("loads", -1.0, "row 4, column load: must be finite and >= 0, got -1.0"),
    "nan-feature": ("features", np.nan, "row 4, column density: not finite, got nan"),
    "negative-material-index": ("material_index", -1,
                                "row 4, column material_index: must be >= 0, got -1"),
    "inf-load": ("loads", np.inf, "row 4, column load: must be finite and >= 0, got inf"),
}


@pytest.mark.parametrize("case, reader", [
    (case, reader) for case, (column, *_) in RULE_CASES.items() for reader in READERS
    if column == "loads" or reader != "ingest_external_loads"])
def test_a_value_that_breaks_a_rule_has_one_message_from_every_reader(tmp_path, case, reader):
    column, value, message = RULE_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        READERS[reader](_columns(column, value), tmp_path)


@pytest.mark.parametrize("reader", list(READERS))
def test_the_valid_columns_read_alike_by_every_reader(tmp_path, reader):
    assert READERS[reader](_columns(), tmp_path) == Dataset(**_columns())


def test_blank_lines_are_skipped_and_counted_as_lines(tmp_path):
    header, *rows = _dataset_lines(_columns())
    path = tmp_path / "blank.csv"
    path.write_text("\n".join([header, "", rows[0], "", "", *rows[1:], ""]) + "\n")
    assert read_dataset(path) == _read(_columns(), tmp_path)
    # a cell that does not parse is named by its physical line, a rule by its row
    cells = rows[1].split(",")
    for load, message in (("abc", f"{path}, line 6, column load: expected a number, got 'abc'"),
                          ("-1.0", "row 1, column load: must be finite and >= 0, got -1.0")):
        cells[-2] = load
        path.write_text("\n".join([header, "", rows[0], "", "", ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_dataset(path)
