"""Domain types, the built-in material library, and tabular file I/O.

The canonical feature order (thickness, density, thermal conductivity,
specific heat capacity, solar/visual/thermal absorptance) is fixed here and
used everywhere: dataset columns, PCA loading rows, LDA coefficients.

A Dataset holds one read-only numpy column per field: material index, the
(n, 7) feature matrix, loads and int8 ClassLabel codes. Each pipeline stage
works on whole columns and returns a new Dataset that shares the columns it
did not change.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from enum import IntEnum
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np


class FeatureId(IntEnum):
    """The seven material properties, in canonical column order."""

    THICKNESS = 0               # m
    DENSITY = 1                 # kg/m3
    THERMAL_CONDUCTIVITY = 2    # W/mK
    SPECIFIC_HEAT_CAPACITY = 3  # J/(kg K)
    SOLAR_ABSORPTANCE = 4       # dimensionless, in (0, 1)
    VISUAL_ABSORPTANCE = 5      # dimensionless, in (0, 1)
    THERMAL_ABSORPTANCE = 6     # dimensionless, in (0, 1)

    @property
    def column_name(self) -> str:
        return self.name.lower()


N_FEATURES = len(FeatureId)

# Features that are > 0 in any physical wall; the rest are absorptances in (0, 1).
POSITIVE_FEATURES = (
    FeatureId.THICKNESS,
    FeatureId.DENSITY,
    FeatureId.THERMAL_CONDUCTIVITY,
    FeatureId.SPECIFIC_HEAT_CAPACITY,
)

FEATURE_COLUMNS = tuple(f.column_name for f in FeatureId)

FEATURE_UNITS = {
    FeatureId.THICKNESS: "m",
    FeatureId.DENSITY: "kg/m3",
    FeatureId.THERMAL_CONDUCTIVITY: "W/mK",
    FeatureId.SPECIFIC_HEAT_CAPACITY: "J/kgK",
    FeatureId.SOLAR_ABSORPTANCE: "-",
    FeatureId.VISUAL_ABSORPTANCE: "-",
    FeatureId.THERMAL_ABSORPTANCE: "-",
}


class ClassLabel(IntEnum):
    """Thermal-load class, totally ordered LOW < MEDIUM < HIGH."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def csv_value(self) -> str:
        return self.name.lower()


# The CSV cell of each ClassLabel code, indexed by the code.
LABEL_NAMES = tuple(lbl.csv_value for lbl in ClassLabel)


@dataclass(frozen=True)
class PropertyDistribution:
    """Normal distribution N(mean, std_dev^2) of one material property."""

    mean: float
    std_dev: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.std_dev) and self.std_dev >= 0.0):
            raise ValueError(f"std_dev must be finite and >= 0, got {self.std_dev}")


@dataclass(frozen=True)
class MaterialSpec:
    """A named material with one distribution per feature (all seven)."""

    name: str
    dist: Mapping[FeatureId, PropertyDistribution]

    def __post_init__(self) -> None:
        missing = [f.column_name for f in FeatureId if f not in self.dist]
        if missing or len(self.dist) != N_FEATURES:
            raise ValueError(
                f"material {self.name!r}: need exactly one distribution per "
                f"feature, missing {missing}"
            )
        object.__setattr__(self, "dist", dict(self.dist))

    def mean_vector(self) -> tuple[float, ...]:
        return tuple(self.dist[f].mean for f in FeatureId)


@dataclass(frozen=True)
class MaterialLibrary:
    """Ordered collection of materials with unique names."""

    materials: tuple[MaterialSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "materials", tuple(self.materials))
        names = [m.name for m in self.materials]
        if len(set(names)) != len(names):
            raise ValueError(f"material names must be unique, got {names}")

    def __len__(self) -> int:
        return len(self.materials)

    def __iter__(self) -> Iterator[MaterialSpec]:
        return iter(self.materials)

    def __getitem__(self, index: int) -> MaterialSpec:
        return self.materials[index]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.materials)


@dataclass(frozen=True)
class SystemConstants:
    """Fixed system design assumptions (not varied by the sampler)."""

    equipment_load: float = 10.98          # W/m2
    infiltration_rate: float = 0.0003      # m3/s m2
    lighting_density: float = 9.36         # W/m2
    people_density: float = 0.25           # ppl/m2
    ventilation_per_area: float = 0.0006   # m3/s m2
    ventilation_per_person: float = 0.005  # m3/s person
    glazing_u_value: float = 0.6           # W/m2K

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


# Each Dataset column: its dtype, its name in errors and CSV files, the test
# for a bad value and the rule that value breaks.
_COLUMN_RULES = {
    "material_index": (np.int64, "material_index", lambda c: c < 0, "must be >= 0"),
    "features": (np.float64, "features", lambda c: ~np.isfinite(c), "not finite"),
    "loads": (np.float64, "load", lambda c: ~(np.isfinite(c) & (c >= 0.0)),
              "must be finite and >= 0"),
    "labels": (np.int8, "label", lambda c: (c < 0) | (c >= len(ClassLabel)),
               "not a class code"),
}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Table of design alternatives held as read-only numpy columns:

    * material_index: int64, shape (n,), index into the material library;
    * features: float64, shape (n, 7), C-contiguous, canonical column order;
    * loads: float64, shape (n,), or None until loads are attached;
    * labels: int8 ClassLabel codes, shape (n,), or None until labelled.

    Construction validates every column and names the first bad row and
    column. A writable input array is copied before it is frozen; a
    read-only one is shared, so replacing one column copies no other.
    """

    material_index: np.ndarray
    features: np.ndarray
    loads: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.material_index)
        for attr, (dtype, column, bad, rule) in _COLUMN_RULES.items():
            if getattr(self, attr) is not None:
                shape = (n, N_FEATURES) if attr == "features" else (n,)
                array = _column(getattr(self, attr), dtype, shape, column, bad, rule)
                object.__setattr__(self, attr, array)

    def __len__(self) -> int:
        return len(self.material_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(
            a is b if a is None or b is None else np.array_equal(a, b)
            for a, b in zip(self._columns(), other._columns())
        )

    def _columns(self) -> tuple[np.ndarray | None, ...]:
        return (self.material_index, self.features, self.loads, self.labels)

    def with_loads(self, loads: np.ndarray | Sequence[float]) -> "Dataset":
        return replace(self, loads=loads)

    def with_labels(self, labels: np.ndarray | Sequence[ClassLabel]) -> "Dataset":
        return replace(self, labels=labels)

    def with_features(self, features: np.ndarray) -> "Dataset":
        return replace(self, features=features)

    def select(self, rows: np.ndarray | Sequence[int]) -> "Dataset":
        """The rows at the given indices, or where a boolean mask is true."""
        rows = np.asarray(rows)
        if rows.dtype != np.bool_:
            rows = rows.astype(np.intp)
        return Dataset(*(None if c is None else c[rows] for c in self._columns()))


def _column(values, dtype, shape: tuple, column: str, bad, rule: str) -> np.ndarray:
    """values as a frozen C-contiguous array, copied unless it already is
    one. Raises ValueError for a wrong shape or a value that dtype cannot
    hold, or naming the first row (and, in the features matrix, the first
    feature of that row) where bad holds."""
    given = np.asarray(values)
    array = given.astype(dtype, copy=False)
    if array.shape != shape:
        raise ValueError(f"column {column}: expected shape {shape}, got {array.shape}")
    if not np.can_cast(given.dtype, dtype) and not np.array_equal(array, given):
        raise ValueError(f"column {column}: values do not fit {array.dtype}")
    hits = np.argwhere(bad(array))
    if len(hits):
        at = tuple(hits[0])
        name = FEATURE_COLUMNS[at[1]] if array.ndim == 2 else column
        raise ValueError(f"row {at[0]}, column {name}: {rule}, got {array[at].item()}")
    if array.flags.writeable or not array.flags.c_contiguous:
        array = np.array(array, order="C")
        array.setflags(write=False)
    return array


# Built-in library: the six wall materials and their Gaussian property
# distributions (mean, std dev), in canonical feature order per material.
_ABSORPTANCE = (0.5, 0.05)

_BUILTIN_MATERIALS: tuple[tuple[str, tuple[tuple[float, float], ...]], ...] = (
    # name, ((mean, std) for thickness, density, conductivity, specific heat,
    #        solar, visual, thermal absorptance)
    ("timber_insulated_panel_osb",
     ((0.01, 0.001), (545.0, 20.0), (0.135, 0.0075), (1740.0, 442.5),
      _ABSORPTANCE, _ABSORPTANCE, _ABSORPTANCE)),
    ("timber_insulated_panel_insulation",
     ((0.09, 0.009), (11.0, 1.0), (0.0465, 0.005), (805.0, 17.5),
      _ABSORPTANCE, _ABSORPTANCE, _ABSORPTANCE)),
    ("concrete",
     ((0.21, 0.021), (2000.0, 30.0), (1.13, 0.1), (1000.0, 106.0),
      _ABSORPTANCE, _ABSORPTANCE, _ABSORPTANCE)),
    ("brick",
     ((0.16, 0.016), (1700.0, 297.5), (0.84, 0.27), (800.0, 86.0),
      _ABSORPTANCE, _ABSORPTANCE, _ABSORPTANCE)),
    ("aluminum",
     ((0.14, 0.014), (6278.0, 2876.0), (244.0, 107.0), (544.0, 233.0),
      _ABSORPTANCE, _ABSORPTANCE, _ABSORPTANCE)),
    ("glass",
     ((0.31, 0.031), (2509.0, 105.0), (1.294, 0.69), (820.0, 50.0),
      _ABSORPTANCE, _ABSORPTANCE, _ABSORPTANCE)),
)


def builtin_material_library() -> MaterialLibrary:
    """The six built-in wall materials with their property distributions."""
    materials = []
    for name, dists in _BUILTIN_MATERIALS:
        dist = {
            f: PropertyDistribution(mean, std)
            for f, (mean, std) in zip(FeatureId, dists)
        }
        materials.append(MaterialSpec(name, dist))
    return MaterialLibrary(tuple(materials))


def builtin_system_constants() -> SystemConstants:
    """The fixed system design assumptions."""
    return SystemConstants()


# ---------------------------------------------------------------------------
# CSV I/O
#
# Layout: header row, then per row
#   material_index, <7 features in canonical order>, load, label
# load and label cells are empty when unset. '.' decimal separator, no
# locale dependence. Floats are written with repr() so read(write(d)) == d
# bit-exactly.

CSV_HEADER = ("material_index",) + FEATURE_COLUMNS + ("load", "label")


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV; see module docs for the layout."""
    n = len(dataset)
    loads = [""] * n if dataset.loads is None else map(repr, dataset.loads.tolist())
    labels = ([""] * n if dataset.labels is None
              else [LABEL_NAMES[c] for c in dataset.labels.tolist()])
    # no cell needs quoting, so each line is its cells joined by commas,
    # as csv.writer would write it
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(
            ",".join([str(m), *map(repr, feats), load, label]) + "\r\n"
            for m, feats, load, label in zip(
                dataset.material_index.tolist(), dataset.features.tolist(), loads, labels
            )
        )


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV. Raises ValueError naming row and column on bad
    input; a load or label column must be filled on every row or on none."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: missing header row") from None
        _check_header(header)
        rows = [
            _parse_row(rownum, cells, len(header))
            for rownum, cells in enumerate(reader, start=1)
            if cells
        ]
    return Dataset(
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.float64).reshape(-1, N_FEATURES),
        _all_or_none(rows, 3, "load"),
        _all_or_none(rows, 4, "label"),
    )


def _all_or_none(rows: list[tuple], at: int, column: str) -> list | None:
    empty = [r[0] for r in rows if r[at] is None]
    if len(empty) == len(rows):
        return None
    if empty:
        raise ValueError(
            f"row {empty[0]}, column {column}: empty, but other rows have a {column}"
        )
    return [r[at] for r in rows]


def _check_header(header: list[str]) -> None:
    expected = list(CSV_HEADER[: 1 + N_FEATURES])
    got = [h.strip() for h in header[: 1 + N_FEATURES]]
    if got != expected:
        raise ValueError(
            f"bad header: expected columns {expected}, got {got}"
        )
    tail = [h.strip() for h in header[1 + N_FEATURES :]]
    if tail not in ([], ["load"], ["load", "label"]):
        raise ValueError(f"bad header tail: expected [load[, label]], got {tail}")


def _parse_row(rownum: int, cells: list[str], width: int) -> tuple:
    """(rownum, material_index, features, load or None, label code or None)."""
    if len(cells) != width:
        got = len(cells) - width + N_FEATURES
        raise ValueError(f"row {rownum}: expected {N_FEATURES} features, got {got}")
    *cells, load, label = cells + [""] * (len(CSV_HEADER) - width)
    return (
        rownum,
        _cell(rownum, "material_index", cells[0], int, "an integer >= 0",
              lambda v: v >= 0),
        [_cell(rownum, name, text, float, "a finite number", math.isfinite)
         for name, text in zip(FEATURE_COLUMNS, cells[1:])],
        None if load == "" else _cell(rownum, "load", load, float,
                                      "a finite number >= 0",
                                      lambda v: math.isfinite(v) and v >= 0.0),
        None if label == "" else _cell(rownum, "label", label.strip().lower(),
                                       LABEL_NAMES.index,
                                       "one of " + ", ".join(LABEL_NAMES)),
    )


def _cell(rownum: int, column: str, text: str, parse, expected: str,
          valid=lambda v: True):
    """parse(text), or a ValueError naming the row and column when it fails
    or its value is not valid."""
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not valid(value):
        raise ValueError(
            f"row {rownum}, column {column}: expected {expected}, got {text!r}"
        )
    return value


# ---------------------------------------------------------------------------
# JSON export/import, used for config overrides.

def library_to_json(library: MaterialLibrary) -> dict:
    return {
        "materials": [
            {
                "name": m.name,
                "distributions": {
                    f.column_name: {
                        "mean": m.dist[f].mean,
                        "std_dev": m.dist[f].std_dev,
                    }
                    for f in FeatureId
                },
            }
            for m in library
        ]
    }


def library_from_json(data: Mapping) -> MaterialLibrary:
    materials = []
    for entry in data["materials"]:
        dist = {}
        for f in FeatureId:
            d = entry["distributions"][f.column_name]
            dist[f] = PropertyDistribution(float(d["mean"]), float(d["std_dev"]))
        materials.append(MaterialSpec(str(entry["name"]), dist))
    return MaterialLibrary(tuple(materials))


def constants_to_json(constants: SystemConstants) -> dict:
    return dict(constants.__dict__)


def constants_from_json(data: Mapping) -> SystemConstants:
    known = set(SystemConstants().__dict__)
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown system constant fields: {sorted(unknown)}")
    return SystemConstants(**{k: float(v) for k, v in data.items()})


def save_json(data: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
