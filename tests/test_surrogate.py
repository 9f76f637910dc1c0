import dataclasses
import json
import math
import re

import numpy as np
import pytest

from envload.dataset import Dataset, FeatureId
from envload.surrogate import (
    SurrogateConfig,
    config_from_json,
    ingest_external_loads,
    load_config,
    simulate_dataset,
    thermal_loads,
)

DEFAULTS = SurrogateConfig()

# frozen oracle values: single-formula evaluations done in an independent
# script before this module was written
U_CONCRETE_MEAN = 2.8102462074110917          # 1/(0.13 + 0.21/1.13 + 0.04)
DAMPING_CONCRETE = 0.8116492409854016         # 1 - 0.25*(1 - exp(-1.4))
Q_CONCRETE_DEFAULTS = 75.66514707829225       # q_base = 0, r_wall = 1.0
Q_CONCRETE_QBASE_55 = 120.30585533248933
CONCRETE_MEAN_VECTOR = (0.21, 2000.0, 1.13, 1000.0, 0.5, 0.5, 0.5)

# With damping, q_base and the absorptance terms off, a load is the
# conduction term U * r_wall * 24 * (hdd + cdd) / 1000.
CONDUCTION_ONLY = SurrogateConfig(d_max=0.0, q_base=0.0, w_solar=0.0, w_thermal=0.0)
# With no degree-days, q_base 1 and the absorptance terms off, a load is the
# damping factor d = 1 - d_max * (1 - exp(-C / c_ref)).
DAMPING_ONLY = SurrogateConfig(hdd=0.0, cdd=0.0, q_base=1.0, w_solar=0.0, w_thermal=0.0)


def load(features, cfg: SurrogateConfig = DEFAULTS) -> float:
    """thermal_loads of one design, as a one-row matrix."""
    [q] = thermal_loads(np.array([features], dtype=np.float64), cfg).tolist()
    return q


def u_value(t: float, k: float) -> float:
    cfg = CONDUCTION_ONLY
    q = load((t, 2000.0, k, 1000.0, 0.5, 0.5, 0.5), cfg)
    return q / (cfg.r_wall * 24.0 * (cfg.hdd + cfg.cdd) / 1000.0)


def damping(t: float, rho: float, c: float) -> float:
    return load((t, rho, 1.0, c, 0.5, 0.5, 0.5), DAMPING_ONLY)


def capacity(t: float, rho: float, c: float) -> float:
    """C recovered from the damping factor by inverting d."""
    cfg = DAMPING_ONLY
    return -cfg.c_ref * math.log(1.0 - (1.0 - damping(t, rho, c)) / cfg.d_max)


class TestWallUValue:
    def test_concrete_mean(self):
        assert u_value(0.21, 1.13) == pytest.approx(U_CONCRETE_MEAN, rel=1e-12)

    def test_huge_conductivity_limit(self):
        # conduction resistance vanishes, films alone remain
        assert u_value(0.21, 1e9) == pytest.approx(1.0 / 0.17, rel=1e-6)
        assert u_value(0.21, 1e9) < 1.0 / 0.17

    def test_doubling_thickness_strictly_decreases_u(self):
        for t in (0.01, 0.1, 0.3, 1.0):
            assert u_value(2 * t, 0.8) < u_value(t, 0.8)

    @pytest.mark.parametrize("t,k", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_non_positive_inputs_rejected(self, t, k):
        column = "thickness" if t <= 0.0 else "thermal_conductivity"
        with pytest.raises(ValueError, match=f"^row 0, column {column}: must be > 0"):
            u_value(t, k)


class TestArealHeatCapacity:
    def test_product(self):
        assert capacity(0.21, 2000.0, 1000.0) == pytest.approx(420000.0, rel=1e-12)

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)])
    def test_zero_input_rejected(self, args):
        column = ("thickness", "density", "specific_heat_capacity")[args.index(0.0)]
        with pytest.raises(ValueError, match=f"^row 0, column {column}: must be > 0"):
            capacity(*args)

    def test_linear_in_each_argument(self):
        base = capacity(0.2, 1500.0, 900.0)
        assert capacity(0.4, 1500.0, 900.0) == pytest.approx(2 * base)
        assert capacity(0.2, 3000.0, 900.0) == pytest.approx(2 * base)
        assert capacity(0.2, 1500.0, 1800.0) == pytest.approx(2 * base)


class TestAnnualThermalLoad:
    def test_disabled_damping_and_offsets(self):
        cfg = SurrogateConfig(d_max=0.0, q_base=0.0, w_solar=0.0, w_thermal=0.0)
        feats = (0.2, 1800.0, 1.0, 950.0, 0.4, 0.6, 0.5)
        u = 1.0 / (cfg.r_si + 0.2 / 1.0 + cfg.r_so)
        expected = u * cfg.r_wall * 24.0 * (cfg.hdd + cfg.cdd) / 1000.0
        assert load(feats, cfg) == pytest.approx(expected, rel=1e-12)

    def test_damping_limit_for_huge_capacity(self):
        assert damping(1.0, 1e6, 1e6) == pytest.approx(0.75, abs=1e-12)
        assert damping(0.21, 2000.0, 1000.0) == pytest.approx(DAMPING_CONCRETE, rel=1e-12)

    def test_concrete_mean_vector_frozen_values(self):
        assert load(CONCRETE_MEAN_VECTOR) == pytest.approx(Q_CONCRETE_DEFAULTS, rel=1e-12)
        cfg_55 = SurrogateConfig(q_base=55.0)
        assert load(CONCRETE_MEAN_VECTOR, cfg_55) == pytest.approx(
            Q_CONCRETE_QBASE_55, rel=1e-12
        )

    def test_monotone_in_conductivity(self):
        feats = list(CONCRETE_MEAN_VECTOR)
        prev = -math.inf
        for k in (0.2, 0.5, 1.0, 2.0, 10.0, 100.0):
            feats[FeatureId.THERMAL_CONDUCTIVITY] = k
            q = load(feats)
            assert q > prev
            prev = q

    def test_monotone_decreasing_in_thickness(self):
        cfg = SurrogateConfig(d_max=0.0)  # isolate the conduction path
        feats = list(CONCRETE_MEAN_VECTOR)
        prev = math.inf
        for t in (0.05, 0.1, 0.2, 0.4, 0.8):
            feats[FeatureId.THICKNESS] = t
            q = load(feats, cfg)
            assert q < prev
            prev = q

    def test_more_capacity_never_increases_load(self):
        feats = list(CONCRETE_MEAN_VECTOR)
        prev = math.inf
        for rho in (500.0, 1000.0, 2000.0, 4000.0, 8000.0):
            feats[FeatureId.DENSITY] = rho
            # conduction unchanged (t, k fixed); only C = rho*c*t grows
            q = load(feats)
            assert q <= prev
            prev = q

    def test_visual_absorptance_has_no_effect_by_default(self):
        feats = list(CONCRETE_MEAN_VECTOR)
        feats[FeatureId.VISUAL_ABSORPTANCE] = 0.01
        low = load(feats)
        feats[FeatureId.VISUAL_ABSORPTANCE] = 0.99
        high = load(feats)
        assert low == high

    def test_deterministic(self):
        assert load(CONCRETE_MEAN_VECTOR) == load(CONCRETE_MEAN_VECTOR)

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match=re.escape("got shape (1, 2)")):
            load((1.0, 2.0))

    @pytest.mark.parametrize("shape", [(2, 3), (7,), (2, 9), (1, 7, 1)])
    def test_not_an_n_by_7_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected an (n, 7) feature matrix, got shape {shape}")):
            thermal_loads(np.ones(shape), DEFAULTS)


class TestSimulateDataset:
    def test_default_run_all_loads_positive(self, default_dataset):
        out = simulate_dataset(default_dataset, DEFAULTS)
        loads = out.loads
        assert len(loads) == 600
        assert all(q is not None and math.isfinite(q) and q > 0.0 for q in loads)

    def test_other_fields_untouched(self, default_dataset):
        out = simulate_dataset(default_dataset, DEFAULTS)
        assert out.features.tolist() == default_dataset.features.tolist()
        assert list(out.material_index) == list(default_dataset.material_index)

    def test_commutes_with_row_permutation(self, default_dataset):
        perm = np.arange(len(default_dataset))[::-1]
        a = simulate_dataset(Dataset(default_dataset.material_index[perm],
                                     default_dataset.features[perm]), DEFAULTS)
        b = simulate_dataset(default_dataset, DEFAULTS)
        for column in ("material_index", "features", "loads"):
            assert np.array_equal(getattr(a, column), getattr(b, column)[perm]), column

    @pytest.mark.parametrize("cfg", [DEFAULTS,
                                     SurrogateConfig(q_base=20.0, r_wall=1.4, w_visual=2.0)])
    def test_matches_per_row_formula_bit_for_bit(self, default_dataset, cfg):
        # the scalar formula, one row at a time in Python floats and math.exp:
        # the column version must give the same bits, since loads go out with repr
        def load(t, rho, k, c, a_solar, a_visual, a_thermal):
            u = 1.0 / (cfg.r_si + t / k + cfg.r_so)
            conduction = u * cfg.r_wall * 24.0 * (cfg.hdd + cfg.cdd) / 1000.0
            damping = 1.0 - cfg.d_max * (1.0 - math.exp(-(rho * c * t) / cfg.c_ref))
            return (damping * (conduction + cfg.q_base) + cfg.w_solar * a_solar
                    + cfg.w_thermal * a_thermal + cfg.w_visual * a_visual)

        expected = [load(*row) for row in default_dataset.features.tolist()]
        assert simulate_dataset(default_dataset, cfg).loads.tolist() == expected

    def test_negative_load_aborts_with_row_index(self, default_dataset):
        # no accepted config gives a negative load, but hdd + cdd can overflow
        bad = SurrogateConfig(hdd=1e308, cdd=1e308)
        with pytest.raises(ValueError, match=re.escape(
                "row 0, column load: must be finite and >= 0, got inf")):
            simulate_dataset(default_dataset, bad)


class TestIngest:
    def _write_loads(self, path, pairs):
        path.write_text("row_index,load\n" + "".join(f"{i},{q}\n" for i, q in pairs))

    def test_full_cover_attaches(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        self._write_loads(path, [(i, 60.0 + (i % 50)) for i in range(600)])
        out = ingest_external_loads(default_dataset, path)
        assert out.loads[0] == 60.0
        assert out.loads[599] == 60.0 + (599 % 50)

    def test_missing_row_named(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        self._write_loads(path, [(i, 80.0) for i in range(599)])
        with pytest.raises(ValueError, match="row 599 missing"):
            ingest_external_loads(default_dataset, path)

    def test_duplicate_row_rejected(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        self._write_loads(path, [(0, 80.0), (0, 81.0)])
        with pytest.raises(ValueError, match="duplicate"):
            ingest_external_loads(default_dataset, path)

    def test_negative_load_rejected(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        self._write_loads(path, [(i, 80.0) for i in range(599)] + [(599, -1.0)])
        with pytest.raises(ValueError, match=">= 0"):
            ingest_external_loads(default_dataset, path)

    def test_out_of_range_index_rejected(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        self._write_loads(path, [(600, 80.0)])
        with pytest.raises(ValueError, match="out of range"):
            ingest_external_loads(default_dataset, path)

    @pytest.mark.parametrize("second_line", ["0,80.0\n", "\n"], ids=["row", "blank"])
    def test_error_names_the_physical_line(self, tmp_path, default_dataset, second_line):
        path = tmp_path / "loads.csv"
        path.write_text("row_index,load\n" + second_line + "1,abc\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 3, column load: expected a number, got 'abc'")):
            ingest_external_loads(default_dataset, path)

    @pytest.mark.parametrize("row, message", [
        ("0,80.0,junk", "{path}, line 2: expected 2 cells, got 3"),
        ("0", "{path}, line 2: expected 2 cells, got 1"),
        ("x,80.0", "{path}, line 2, column row_index: expected an integer, got 'x'"),
        # a load that parses is checked by the Dataset's rule, named by its row index
        ("0,nan", "row 0, column load: must be finite and >= 0, got nan"),
    ], ids=["three-cells", "one-cell", "bad-index", "nan-load"])
    def test_bad_row_names_file_line_and_column(self, tmp_path, default_dataset, row, message):
        path = tmp_path / "loads.csv"  # row is line 2; the lines after it cover every other row
        path.write_text(f"row_index,load\n{row}\n" + "".join(f"{i},80.0\n" for i in range(1, 600)))
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
            ingest_external_loads(default_dataset, path)

    def test_bad_header_rejected(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        path.write_text("index,value\n0,80\n")
        with pytest.raises(ValueError, match="header"):
            ingest_external_loads(default_dataset, path)

    def test_header_with_an_extra_column_rejected(self, tmp_path, default_dataset):
        # the header check must not pass a file whose every row it then rejects
        path = tmp_path / "loads.csv"
        path.write_text("row_index,load,extra\n0,80,1\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 1: expected header 'row_index,load'")):
            ingest_external_loads(default_dataset, path)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = SurrogateConfig(q_base=12.0, hdd=900.0)
        assert config_from_json(dataclasses.asdict(cfg)) == cfg

    def test_integers_read_as_floats(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"hdd": 900, "q_base": 9007199254740993}')
        cfg = load_config(path)
        assert cfg.hdd == 900.0 and cfg.q_base == float(9007199254740993)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="window_area"):
            config_from_json({"window_area": 12.0})

    def test_partial_override_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"q_base": 3.5, "d_max": 0.1}))
        cfg = load_config(path)
        assert cfg.q_base == 3.5
        assert cfg.d_max == 0.1
        assert cfg.r_si == 0.13  # untouched default

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"r_si": 0.0},
            {"r_so": -0.1},
            {"d_max": 1.0},
            {"hdd": -1.0},
            {"c_ref": 0.0},
            {"w_solar": math.inf},
            {"hdd": math.nan},
            {"cdd": math.nan},
            {"r_wall": math.inf},
            {"r_si": math.inf},
            {"c_ref": math.inf},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SurrogateConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("q_base", -0.1), ("w_solar", -1.0), ("w_thermal", -1e-300), ("w_visual", -2.0),
    ])
    def test_negative_offset_or_weight_rejected(self, name, value):
        # every offset and weight >= 0 is what keeps every load >= 0
        message = f"{name} must be >= 0, got {value}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SurrogateConfig(**{name: value})

    @pytest.mark.parametrize("value", [True, False, "5", None])
    def test_non_number_rejected(self, value):
        # a bool is an int to Python, but would be echoed as true or false
        message = f"hdd must be a number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SurrogateConfig(hdd=value)
