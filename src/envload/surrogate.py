"""Annual thermal load surrogate and external-result ingestion.

A deliberately simple, fully configurable stand-in for a whole-building
simulation: steady-state conduction scaled by degree-days, damped by envelope
thermal mass, plus absorptance-weighted terms. Every constant lives in
SurrogateConfig; nothing here claims to be building physics. Externally
computed loads can be attached instead via ingest_external_loads.

thermal_loads is the one load function: for each row of an (n, 7) feature
matrix (thickness t, density rho, conductivity k, specific heat c,
absorptances a_s, a_v, a_t) it computes

    U  = 1 / (r_si + t/k + r_so)
    C  = rho * c * t
    d  = 1 - d_max * (1 - exp(-C / c_ref))
    Q  = d * (U * r_wall * 24 * (hdd + cdd) / 1000 + q_base)
         + w_solar * a_s + w_thermal * a_t + w_visual * a_v

SurrogateConfig rejects a negative q_base or weight. With d > 0, U > 0,
r_wall > 0, degree-days >= 0 and sampled absorptances in (0, 1), every load
is then >= 0 by construction. The defaults equal bench/surrogate.json; the
75/90 kWh/m2 label thresholds split their loads into three usable classes
(tools/calibrate_surrogate.py).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path

import numpy as np

from .dataset import POSITIVE_FEATURES, Dataset, _cell, check_cells, check_features, feature_matrix
from .numerics import libm

_BLOCK_ROWS = 1 << 14  # thermal_loads' rows per block: about 1 MiB of temporaries


@dataclass(frozen=True)
class SurrogateConfig:
    r_si: float = 0.13         # inside surface film resistance [m2K/W]
    r_so: float = 0.04         # outside surface film resistance [m2K/W]
    hdd: float = 700.0         # heating degree-days, base 18 C [K day]
    cdd: float = 600.0         # cooling degree-days, base 18 C [K day]
    r_wall: float = 1.0        # wall-area-to-floor-area ratio [-]
    q_base: float = 0.0        # balance-of-system load [kWh/m2]
    c_ref: float = 3.0e5       # mass damping reference areal capacity [J/m2K]
    d_max: float = 0.25        # maximum mass damping fraction [-]
    w_solar: float = 6.0       # load per unit solar absorptance [kWh/m2]
    w_thermal: float = 3.0     # load per unit thermal absorptance [kWh/m2]
    w_visual: float = 0.0      # load per unit visual absorptance [kWh/m2]

    def __post_init__(self) -> None:
        for f in fields(self):  # each stored as the plain float it checked
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            value = float(value)
            object.__setattr__(self, f.name, value)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not (self.r_si > 0.0 and self.r_so > 0.0):
            raise ValueError("surface film resistances must be > 0")
        if not (0.0 <= self.d_max < 1.0):
            raise ValueError(f"d_max must be in [0, 1), got {self.d_max}")
        if self.hdd < 0.0 or self.cdd < 0.0:
            raise ValueError("degree-days must be >= 0")
        if not (self.r_wall > 0.0 and self.c_ref > 0.0):
            raise ValueError("r_wall and c_ref must be > 0")
        for name in ("q_base", "w_solar", "w_thermal", "w_visual"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


def thermal_loads(x: np.ndarray, cfg: SurrogateConfig) -> np.ndarray:
    """Annual heating + cooling load per floor area [kWh/m2] of every row of
    an (n, 7) feature matrix, by the formula in the module docstring, filled
    _BLOCK_ROWS rows at a time. Raises ValueError for any other shape, or
    naming the first cell that is not finite or, in a thickness, density,
    conductivity or specific heat, not > 0."""
    x = feature_matrix(x)
    check_features(x)
    positive = np.array([f in POSITIVE_FEATURES for f in range(x.shape[1])])
    check_cells(x, "features", lambda c: (c <= 0.0) & positive, "must be > 0")
    loads = np.empty(len(x))
    for start in range(0, len(x), _BLOCK_ROWS):  # each load depends on its own row alone
        t, rho, k, c, a_solar, a_visual, a_thermal = x[start:start + _BLOCK_ROWS].T
        u = 1.0 / (cfg.r_si + t / k + cfg.r_so)
        (decay,) = libm(-(rho * c * t) / cfg.c_ref, math.exp)
        loads[start:start + _BLOCK_ROWS] = (
            (1.0 - cfg.d_max * (1.0 - decay))
            * (u * cfg.r_wall * 24.0 * (cfg.hdd + cfg.cdd) / 1000.0 + cfg.q_base)
            + cfg.w_solar * a_solar
            + cfg.w_thermal * a_thermal
            + cfg.w_visual * a_visual
        )
    return loads


def simulate_dataset(dataset: Dataset, cfg: SurrogateConfig) -> Dataset:
    """Attach a surrogate load to every row; other columns untouched."""
    loads = thermal_loads(dataset.features, cfg)
    loads.setflags(write=False)  # the Dataset keeps this column, not a copy
    return dataset.with_loads(loads)


def ingest_external_loads(dataset: Dataset, path: str | Path) -> Dataset:
    """Attach externally computed loads from a (row_index, load) CSV.

    The file must cover every dataset row exactly once. Errors name the
    file, the physical line (the header is line 1) and the column.
    """
    n = len(dataset)
    loads, seen = np.empty(n), np.zeros(n, dtype=bool)
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["row_index", "load"]:
            raise ValueError(f"{path}, line 1: expected header 'row_index,load'")
        for cells in reader:
            if not cells:
                continue
            where = f"{path}, line {reader.line_num}"
            if len(cells) != 2:
                raise ValueError(f"{where}: expected 2 cells, got {len(cells)}")
            idx = _cell(where, "row_index", cells[0], int, "an integer")
            if not 0 <= idx < n:
                raise ValueError(f"{where}, column row_index: {idx} out of range 0..{n - 1}")
            if seen[idx]:
                raise ValueError(f"{where}, column row_index: duplicate row index {idx}")
            seen[idx] = True
            loads[idx] = _cell(where, "load", cells[1], float, "a finite number >= 0",
                               lambda v: math.isfinite(v) and v >= 0.0)
    if not seen.all():
        raise ValueError(f"{path}: row {seen.argmin()} missing")
    loads.setflags(write=False)  # the Dataset keeps this column, not a copy
    return dataset.with_loads(loads)


def config_from_json(data: object) -> SurrogateConfig:
    """A SurrogateConfig from a parsed JSON object that overrides any subset
    of its fields; every value must be a JSON number."""
    if not isinstance(data, dict):
        raise ValueError(f"surrogate config must be a JSON object, got {type(data).__name__}")
    known = {f.name for f in fields(SurrogateConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown surrogate config fields: {sorted(unknown)}")
    for name, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
    return SurrogateConfig(**{k: float(v) for k, v in data.items()})


def load_config(path: str | Path) -> SurrogateConfig:
    """Read a JSON file overriding any subset of SurrogateConfig fields.
    Integers are read as floats, so one too large for a float is inf."""
    return config_from_json(json.loads(Path(path).read_text(), parse_int=float))
