import json
import math

import pytest

from envload.dataset import FeatureId
from envload.surrogate import (
    SurrogateConfig,
    annual_thermal_load,
    areal_heat_capacity,
    config_from_json,
    config_to_json,
    damping_factor,
    ingest_external_loads,
    load_config,
    simulate_dataset,
    wall_u_value,
)

DEFAULTS = SurrogateConfig()

# frozen oracle values: single-formula evaluations done in an independent
# script before this module was written
U_CONCRETE_MEAN = 2.8102462074110917          # 1/(0.13 + 0.21/1.13 + 0.04)
DAMPING_CONCRETE = 0.8116492409854016         # 1 - 0.25*(1 - exp(-1.4))
Q_CONCRETE_DEFAULTS = 94.39141501778434       # shipped q_base = -12
Q_CONCRETE_QBASE_55 = 148.77191416380626
CONCRETE_MEAN_VECTOR = (0.21, 2000.0, 1.13, 1000.0, 0.5, 0.5, 0.5)


class TestWallUValue:
    def test_concrete_mean(self):
        assert wall_u_value(0.21, 1.13, DEFAULTS) == pytest.approx(
            U_CONCRETE_MEAN, rel=1e-12
        )

    def test_huge_conductivity_limit(self):
        # conduction resistance vanishes, films alone remain
        assert wall_u_value(0.21, 1e9, DEFAULTS) == pytest.approx(1.0 / 0.17, rel=1e-6)
        assert wall_u_value(0.21, 1e9, DEFAULTS) < 1.0 / 0.17

    def test_doubling_thickness_strictly_decreases_u(self):
        for t in (0.01, 0.1, 0.3, 1.0):
            assert wall_u_value(2 * t, 0.8, DEFAULTS) < wall_u_value(t, 0.8, DEFAULTS)

    @pytest.mark.parametrize("t,k", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_non_positive_inputs_rejected(self, t, k):
        with pytest.raises(ValueError):
            wall_u_value(t, k, DEFAULTS)


class TestArealHeatCapacity:
    def test_product(self):
        assert areal_heat_capacity(0.21, 2000.0, 1000.0) == pytest.approx(
            420000.0, rel=1e-12
        )

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)])
    def test_zero_input_rejected(self, args):
        with pytest.raises(ValueError):
            areal_heat_capacity(*args)

    def test_linear_in_each_argument(self):
        base = areal_heat_capacity(0.2, 1500.0, 900.0)
        assert areal_heat_capacity(0.4, 1500.0, 900.0) == pytest.approx(2 * base)
        assert areal_heat_capacity(0.2, 3000.0, 900.0) == pytest.approx(2 * base)
        assert areal_heat_capacity(0.2, 1500.0, 1800.0) == pytest.approx(2 * base)


class TestAnnualThermalLoad:
    def test_disabled_damping_and_offsets(self):
        cfg = SurrogateConfig(d_max=0.0, q_base=0.0, w_solar=0.0, w_thermal=0.0)
        feats = (0.2, 1800.0, 1.0, 950.0, 0.4, 0.6, 0.5)
        u = wall_u_value(0.2, 1.0, cfg)
        expected = u * cfg.r_wall * 24.0 * (cfg.hdd + cfg.cdd) / 1000.0
        assert annual_thermal_load(feats, cfg) == pytest.approx(expected, rel=1e-12)

    def test_damping_limit_for_huge_capacity(self):
        assert damping_factor(1e12, DEFAULTS) == pytest.approx(0.75, abs=1e-12)
        assert damping_factor(420000.0, DEFAULTS) == pytest.approx(
            DAMPING_CONCRETE, rel=1e-12
        )

    def test_concrete_mean_vector_frozen_values(self):
        assert annual_thermal_load(CONCRETE_MEAN_VECTOR, DEFAULTS) == pytest.approx(
            Q_CONCRETE_DEFAULTS, rel=1e-12
        )
        cfg_55 = SurrogateConfig(q_base=55.0)
        assert annual_thermal_load(CONCRETE_MEAN_VECTOR, cfg_55) == pytest.approx(
            Q_CONCRETE_QBASE_55, rel=1e-12
        )

    def test_monotone_in_conductivity(self):
        feats = list(CONCRETE_MEAN_VECTOR)
        prev = -math.inf
        for k in (0.2, 0.5, 1.0, 2.0, 10.0, 100.0):
            feats[FeatureId.THERMAL_CONDUCTIVITY] = k
            q = annual_thermal_load(feats, DEFAULTS)
            assert q > prev
            prev = q

    def test_monotone_decreasing_in_thickness(self):
        cfg = SurrogateConfig(d_max=0.0)  # isolate the conduction path
        feats = list(CONCRETE_MEAN_VECTOR)
        prev = math.inf
        for t in (0.05, 0.1, 0.2, 0.4, 0.8):
            feats[FeatureId.THICKNESS] = t
            q = annual_thermal_load(feats, cfg)
            assert q < prev
            prev = q

    def test_more_capacity_never_increases_load(self):
        feats = list(CONCRETE_MEAN_VECTOR)
        prev = math.inf
        for rho in (500.0, 1000.0, 2000.0, 4000.0, 8000.0):
            feats[FeatureId.DENSITY] = rho
            # conduction unchanged (t, k fixed); only C = rho*c*t grows
            q = annual_thermal_load(feats, DEFAULTS)
            assert q <= prev
            prev = q

    def test_visual_absorptance_has_no_effect_by_default(self):
        feats = list(CONCRETE_MEAN_VECTOR)
        feats[FeatureId.VISUAL_ABSORPTANCE] = 0.01
        low = annual_thermal_load(feats, DEFAULTS)
        feats[FeatureId.VISUAL_ABSORPTANCE] = 0.99
        high = annual_thermal_load(feats, DEFAULTS)
        assert low == high

    def test_deterministic(self):
        a = annual_thermal_load(CONCRETE_MEAN_VECTOR, DEFAULTS)
        b = annual_thermal_load(CONCRETE_MEAN_VECTOR, DEFAULTS)
        assert a == b

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            annual_thermal_load((1.0, 2.0), DEFAULTS)


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
        perm = list(range(len(default_dataset)))[::-1]
        a = simulate_dataset(default_dataset.select(perm), DEFAULTS)
        b = simulate_dataset(default_dataset, DEFAULTS).select(perm)
        assert a == b

    @pytest.mark.parametrize("cfg", [DEFAULTS, SurrogateConfig(q_base=0.0, r_wall=1.0)])
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
        bad = SurrogateConfig(q_base=-1000.0)
        with pytest.raises(ValueError, match="row 0"):
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

    def test_bad_header_rejected(self, tmp_path, default_dataset):
        path = tmp_path / "loads.csv"
        path.write_text("index,value\n0,80\n")
        with pytest.raises(ValueError, match="header"):
            ingest_external_loads(default_dataset, path)


class TestConfig:
    def test_json_roundtrip(self):
        cfg = SurrogateConfig(q_base=12.0, hdd=900.0)
        assert config_from_json(config_to_json(cfg)) == cfg

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
