"""Annual thermal load surrogate and external-result ingestion.

A deliberately simple, fully configurable stand-in for a whole-building
simulation: steady-state conduction scaled by degree-days, damped by envelope
thermal mass, plus absorptance-weighted terms. Every constant lives in
SurrogateConfig; nothing here claims to be building physics. Externally
computed loads can be attached instead via ingest_external_loads.

The load model for a 7-feature vector (thickness t, density rho,
conductivity k, specific heat c, absorptances a_s, a_v, a_t):

    U  = 1 / (r_si + t/k + r_so)
    C  = rho * c * t
    d  = 1 - d_max * (1 - exp(-C / c_ref))
    Q  = d * (U * r_wall * 24 * (hdd + cdd) / 1000 + q_base)
         + w_solar * a_s + w_thermal * a_t + w_visual * a_v
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dataset import POSITIVE_FEATURES, Dataset, FeatureId

# Default q_base is calibrated against the default-seed pipeline so that the
# 75/90 kWh/m2 label thresholds partition the outputs into three usable
# classes; see tools/calibrate_surrogate.py.
DEFAULT_Q_BASE = -12.0


@dataclass(frozen=True)
class SurrogateConfig:
    r_si: float = 0.13         # inside surface film resistance [m2K/W]
    r_so: float = 0.04         # outside surface film resistance [m2K/W]
    hdd: float = 700.0         # heating degree-days, base 18 C [K day]
    cdd: float = 600.0         # cooling degree-days, base 18 C [K day]
    r_wall: float = 1.4        # wall-area-to-floor-area ratio [-]
    q_base: float = DEFAULT_Q_BASE  # balance-of-system load [kWh/m2]
    c_ref: float = 3.0e5       # mass damping reference areal capacity [J/m2K]
    d_max: float = 0.25        # maximum mass damping fraction [-]
    w_solar: float = 6.0       # load per unit solar absorptance [kWh/m2]
    w_thermal: float = 3.0     # load per unit thermal absorptance [kWh/m2]
    w_visual: float = 0.0      # load per unit visual absorptance [kWh/m2]

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (self.r_si > 0.0 and self.r_so > 0.0):
            raise ValueError("surface film resistances must be > 0")
        if not (0.0 <= self.d_max < 1.0):
            raise ValueError(f"d_max must be in [0, 1), got {self.d_max}")
        if self.hdd < 0.0 or self.cdd < 0.0:
            raise ValueError("degree-days must be >= 0")
        if not (self.r_wall > 0.0 and self.c_ref > 0.0):
            raise ValueError("r_wall and c_ref must be > 0")


def _require_positive(**values: float | np.ndarray) -> None:
    for name, value in values.items():
        if np.any(np.asarray(value) <= 0.0):
            raise ValueError(f"{name} must be > 0, got {np.min(value)}")


def wall_u_value(thickness, conductivity, cfg: SurrogateConfig):
    """Steady-state U-value of the wall layer plus surface films [W/m2K].
    Takes floats or arrays, as do the next two functions."""
    _require_positive(thickness=thickness, conductivity=conductivity)
    return 1.0 / (cfg.r_si + thickness / conductivity + cfg.r_so)


def areal_heat_capacity(thickness, density, specific_heat):
    """Heat capacity per wall area, rho * c * t [J/m2K]."""
    _require_positive(thickness=thickness, density=density, specific_heat=specific_heat)
    return density * specific_heat * thickness


def damping_factor(capacity, cfg: SurrogateConfig):
    """Thermal-mass damping multiplier, decreasing from 1 to 1 - d_max.

    exp is math.exp, element by element: np.exp differs from it in the last
    ulp on some inputs, and the loads are written out with repr.
    """
    exponent = -np.asarray(capacity, dtype=np.float64) / cfg.c_ref
    decay = np.fromiter(map(math.exp, exponent.ravel().tolist()), np.float64, exponent.size)
    return 1.0 - cfg.d_max * (1.0 - decay.reshape(exponent.shape))


def thermal_loads(x: np.ndarray, cfg: SurrogateConfig) -> np.ndarray:
    """Annual heating + cooling load per floor area [kWh/m2] of every row of
    an (n, 7) feature matrix. Raises ValueError naming the first row and
    column whose thickness, density, conductivity or specific heat is not > 0."""
    x = np.asarray(x, dtype=np.float64)
    bad = np.argwhere(x[:, POSITIVE_FEATURES] <= 0.0)
    if len(bad):
        row, f = bad[0][0], POSITIVE_FEATURES[bad[0][1]]
        raise ValueError(f"row {row}, column {f.column_name}: must be > 0, got {x[row, f]}")
    t, rho, k, c, a_solar, a_visual, a_thermal = x.T
    conduction = wall_u_value(t, k, cfg) * cfg.r_wall * 24.0 * (cfg.hdd + cfg.cdd) / 1000.0
    return (
        damping_factor(areal_heat_capacity(t, rho, c), cfg) * (conduction + cfg.q_base)
        + cfg.w_solar * a_solar
        + cfg.w_thermal * a_thermal
        + cfg.w_visual * a_visual
    )


def annual_thermal_load(features: Sequence[float], cfg: SurrogateConfig) -> float:
    """Annual heating + cooling load per floor area [kWh/m2] of one design."""
    if len(features) != len(FeatureId):
        raise ValueError(f"expected {len(FeatureId)} features, got {len(features)}")
    return float(thermal_loads(np.array([features], dtype=np.float64), cfg)[0])


def simulate_dataset(dataset: Dataset, cfg: SurrogateConfig) -> Dataset:
    """Attach a surrogate load to every row; other columns untouched."""
    return dataset.with_loads(thermal_loads(dataset.features, cfg))


def ingest_external_loads(dataset: Dataset, path: str | Path) -> Dataset:
    """Attach externally computed loads from a (row_index, load) CSV.

    The file must cover every dataset row exactly once.
    """
    n = len(dataset)
    loads: list[float | None] = [None] * n
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["row_index", "load"]:
            raise ValueError("expected header 'row_index,load'")
        for lineno, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if len(cells) < 2:
                raise ValueError(f"line {lineno}: expected 2 columns")
            try:
                idx = int(cells[0])
                load = float(cells[1])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed row {cells!r}") from None
            if not 0 <= idx < n:
                raise ValueError(f"line {lineno}: row index {idx} out of range 0..{n - 1}")
            if loads[idx] is not None:
                raise ValueError(f"line {lineno}: duplicate row index {idx}")
            if not math.isfinite(load) or load < 0.0:
                raise ValueError(f"line {lineno}: load must be finite and >= 0, got {load}")
            loads[idx] = load
    for idx, q in enumerate(loads):
        if q is None:
            raise ValueError(f"row {idx} missing")
    return dataset.with_loads(loads)


def config_to_json(cfg: SurrogateConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(SurrogateConfig)}


def config_from_json(data: Mapping) -> SurrogateConfig:
    known = {f.name for f in fields(SurrogateConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown surrogate config fields: {sorted(unknown)}")
    return SurrogateConfig(**{k: float(v) for k, v in data.items()})


def load_config(path: str | Path) -> SurrogateConfig:
    """Read a JSON file overriding any subset of SurrogateConfig fields."""
    return config_from_json(json.loads(Path(path).read_text()))
