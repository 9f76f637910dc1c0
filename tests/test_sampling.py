import math

import numpy as np
import pytest

from envload.dataset import FeatureId, MaterialSpec, PropertyDistribution
from envload.sampling import (
    SamplerConfig,
    SplitMix64,
    Xoshiro256pp,
    generate_dataset,
    material_stream,
    sample_material,
)


def _spec(name="toy", means=None, stds=None):
    means = means or [0.1, 500.0, 0.5, 900.0, 0.5, 0.5, 0.5]
    stds = stds if stds is not None else [0.01, 10.0, 0.05, 20.0, 0.05, 0.05, 0.05]
    return MaterialSpec(
        name,
        {f: PropertyDistribution(means[f], stds[f]) for f in FeatureId},
    )


class TestPrng:
    def test_splitmix_deterministic(self):
        a = SplitMix64(12345)
        b = SplitMix64(12345)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_xoshiro_uniform_range(self):
        rng = Xoshiro256pp(7)
        values = [rng.next_f53() for _ in range(10000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert abs(np.mean(values) - 0.5) < 0.02

    def test_gaussian_pairs_consumed_in_order(self):
        # the gaussian stream must be the Box-Muller pair sequence over
        # consecutive 53-bit uniforms, cos term first
        draws = Xoshiro256pp(99)
        raw = Xoshiro256pp(99)
        for _ in range(50):
            z0 = draws.next_gaussian()
            z1 = draws.next_gaussian()
            u1 = raw.next_f53()
            u2 = raw.next_f53()
            r = math.sqrt(-2.0 * math.log(1.0 - u1))
            assert z0 == r * math.cos(2.0 * math.pi * u2)
            assert z1 == r * math.sin(2.0 * math.pi * u2)

    def test_next_below_bounds(self):
        rng = Xoshiro256pp(3)
        assert all(0 <= rng.next_below(7) < 7 for _ in range(1000))
        with pytest.raises(ValueError):
            rng.next_below(0)

    def test_shuffle_is_permutation_and_deterministic(self):
        items = list(range(50))
        a = Xoshiro256pp(11).shuffled(items)
        b = Xoshiro256pp(11).shuffled(items)
        assert a == b
        assert sorted(a) == items
        assert a != items  # astronomically unlikely to be identity


class TestReferenceVectors:
    """The streams pinned to fixed values, not only to themselves."""

    def test_splitmix64_matches_published_outputs(self):
        # splitmix64 seeded with 0: Blackman & Vigna, "Scrambled linear
        # pseudorandom number generators", ACM TOMS 2021
        sm = SplitMix64(0)
        assert [sm.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]

    def test_xoshiro256pp_first_outputs(self):
        rng = Xoshiro256pp(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0x53175D61490B23DF, 0x61DA6F3DC380D507, 0x5C0FDF91EC9A7BFC, 0x02EEBF8C3BBE5E1A,
        ]

    def test_gaussian_first_outputs_exact(self):
        rng = Xoshiro256pp(42)
        assert [rng.next_gaussian() for _ in range(3)] == [
            -0.7689930538210061, 1.6661184587142, -0.8684461074702454,
        ]


class TestSampleMaterial:
    def test_sigma_zero_gives_mean_vector(self):
        spec = _spec(stds=[0.0] * 7)
        out = sample_material(spec, 5, Xoshiro256pp(1))
        expected = np.array([spec.mean_vector()] * 5)
        assert np.array_equal(out, expected)

    def test_same_seed_bit_identical(self):
        spec = _spec()
        a = sample_material(spec, 100, material_stream(42, 0))
        b = sample_material(spec, 100, material_stream(42, 0))
        assert np.array_equal(a, b)

    def test_concrete_sample_mean(self, default_library):
        # sample mean of conductivity within mu +/- 3 sigma/sqrt(n)
        concrete = default_library[2]
        out = sample_material(concrete, 10000, material_stream(42, 2))
        mean_k = out[:, FeatureId.THERMAL_CONDUCTIVITY].mean()
        assert abs(mean_k - 1.13) < 3.0 * 0.1 / math.sqrt(10000)

    def test_marginal_mean_and_std_100k(self):
        # unconstrained feature: rejection never triggers for N(0.5, 0.05)
        spec = _spec()
        n = 100_000
        out = sample_material(spec, n, Xoshiro256pp(5))
        col = out[:, FeatureId.SOLAR_ABSORPTANCE]
        assert abs(col.mean() - 0.5) < 4.0 * 0.05 / math.sqrt(n)
        assert abs(col.std() - 0.05) < 0.05 * 0.05

    def test_validity_bounds_enforced(self, default_library):
        # aluminum density has mu - 2.18 sigma < 0, so rejection is active
        aluminum = default_library[4]
        out = sample_material(aluminum, 5000, material_stream(0, 4))
        for f in (FeatureId.THICKNESS, FeatureId.DENSITY,
                  FeatureId.THERMAL_CONDUCTIVITY, FeatureId.SPECIFIC_HEAT_CAPACITY):
            assert np.all(out[:, f] > 0.0)
        for f in (FeatureId.SOLAR_ABSORPTANCE, FeatureId.VISUAL_ABSORPTANCE,
                  FeatureId.THERMAL_ABSORPTANCE):
            assert np.all((out[:, f] > 0.0) & (out[:, f] < 1.0))

    def test_rejection_exhaustion_names_material_and_feature(self):
        means = [0.1, -5.0, 0.5, 900.0, 0.5, 0.5, 0.5]  # density can never be valid
        spec = _spec("leadfoam", means=means, stds=[0.0] * 7)
        with pytest.raises(ValueError, match="leadfoam.*density"):
            sample_material(spec, 1, Xoshiro256pp(1), max_rejections_per_draw=10)


class TestGenerateDataset:
    def test_default_is_600_rows(self, default_dataset):
        assert len(default_dataset) == 600

    def test_rows_grouped_by_material(self, default_dataset):
        indices = default_dataset.material_index
        expected = np.repeat(np.arange(6), 100)
        assert np.array_equal(indices, expected)

    def test_loads_and_labels_unset(self, default_dataset):
        assert default_dataset.loads is None and default_dataset.labels is None

    def test_one_per_material(self, default_library):
        ds = generate_dataset(default_library, SamplerConfig(n_per_material=1))
        assert len(ds) == 6
        assert list(ds.material_index) == [0, 1, 2, 3, 4, 5]

    def test_adjacent_seeds_differ(self, default_library):
        a = generate_dataset(default_library, SamplerConfig(seed=42, n_per_material=5))
        b = generate_dataset(default_library, SamplerConfig(seed=43, n_per_material=5))
        assert not np.array_equal(a.features, b.features)

    def test_repeat_run_bit_identical(self, default_library, default_dataset):
        again = generate_dataset(default_library, SamplerConfig())
        assert np.array_equal(again.features, default_dataset.features)

    def test_material_blocks_independent(self, default_library):
        # each material's block depends only on (seed, material_index)
        full = generate_dataset(default_library, SamplerConfig(seed=8, n_per_material=20))
        block = full.features[40:60]  # concrete
        alone = sample_material(default_library[2], 20, material_stream(8, 2))
        assert np.array_equal(block, alone)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_per_material=0)
