import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from envload import sampling
from envload.dataset import POSITIVE_FEATURES, FeatureId, MaterialLibrary
from envload.sampling import (
    MAX_REJECTIONS_PER_DRAW,
    SamplerConfig,
    SplitMix64,
    Xoshiro256pp,
    generate_dataset,
    material_stream,
    sample_material,
)


def _library(name="toy", means=None, stds=None):
    """A one-material library."""
    means = means or [0.1, 500.0, 0.5, 900.0, 0.5, 0.5, 0.5]
    stds = stds if stds is not None else [0.01, 10.0, 0.05, 20.0, 0.05, 0.05, 0.05]
    return MaterialLibrary((name,), [means], [stds])


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
        library = _library(stds=[0.0] * 7)
        out = sample_material(library, 0, 5, 1)
        assert np.array_equal(out, np.repeat(library.means, 5, axis=0))

    @pytest.mark.parametrize("index", [-1, 6])
    def test_index_outside_the_library_rejected(self, default_library, index):
        with pytest.raises(ValueError, match=f"material index {index} is outside 0..5"):
            sample_material(default_library, index, 3, 42)

    def test_same_seed_bit_identical(self):
        library = _library()
        a = sample_material(library, 0, 100, 42)
        b = sample_material(library, 0, 100, 42)
        assert np.array_equal(a, b)

    def test_concrete_sample_mean(self, default_library):
        # sample mean of conductivity within mu +/- 3 sigma/sqrt(n)
        assert default_library.names[2] == "concrete"
        out = sample_material(default_library, 2, 10000, 42)
        mean_k = out[:, FeatureId.THERMAL_CONDUCTIVITY].mean()
        assert abs(mean_k - 1.13) < 3.0 * 0.1 / math.sqrt(10000)

    def test_marginal_mean_and_std_100k(self):
        # unconstrained feature: rejection never triggers for N(0.5, 0.05)
        n = 100_000
        out = sample_material(_library(), 0, n, 5)
        col = out[:, FeatureId.SOLAR_ABSORPTANCE]
        assert abs(col.mean() - 0.5) < 4.0 * 0.05 / math.sqrt(n)
        assert abs(col.std() - 0.05) < 0.05 * 0.05

    def test_validity_bounds_enforced(self, default_library):
        # aluminum density has mu - 2.18 sigma < 0, so rejection is active
        assert default_library.names[4] == "aluminum"
        out = sample_material(default_library, 4, 5000, 0)
        for f in (FeatureId.THICKNESS, FeatureId.DENSITY,
                  FeatureId.THERMAL_CONDUCTIVITY, FeatureId.SPECIFIC_HEAT_CAPACITY):
            assert np.all(out[:, f] > 0.0)
        for f in (FeatureId.SOLAR_ABSORPTANCE, FeatureId.VISUAL_ABSORPTANCE,
                  FeatureId.THERMAL_ABSORPTANCE):
            assert np.all((out[:, f] > 0.0) & (out[:, f] < 1.0))

    @pytest.mark.parametrize("seed", [-1, 2**64, 4.5])
    def test_seed_outside_the_generator_range_rejected(self, default_library, seed):
        # -1 would alias 2**64 - 1
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, 2**64), got {seed!r}")):
            sample_material(default_library, 0, 3, seed)

    def test_non_integer_n_rejected(self, default_library):
        with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
            sample_material(default_library, 0, 2.5, 42)

    def test_rejection_exhaustion_names_material_and_feature(self):
        means = [0.1, -5.0, 0.5, 900.0, 0.5, 0.5, 0.5]  # density can never be valid
        library = _library("leadfoam", means=means, stds=[0.0] * 7)
        with pytest.raises(ValueError, match="leadfoam.*density.*in 1000 attempts"):
            sample_material(library, 0, 1, 1)


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
        alone = sample_material(default_library, 2, 20, 8)
        assert np.array_equal(block, alone)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_per_material=0)
        with pytest.raises(ValueError, match="n_per_material must be an integer, got 2.5"):
            SamplerConfig(n_per_material=2.5)
        with pytest.raises(ValueError, match="n_per_material must be an integer, got True"):
            SamplerConfig(n_per_material=True)  # a bool is an int, but no count

    @pytest.mark.parametrize("seed", [-1, 2**64, 4.5, True])
    def test_seed_outside_the_generator_range_rejected(self, seed):
        # a seed taken modulo 2**64 would alias another: -1 that of 2**64 - 1;
        # True, an int, would be seed 1
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be an integer in [0, 2**64), got {seed!r}")):
            SamplerConfig(seed=seed)

    def test_largest_seed_accepted(self, default_library):
        ds = generate_dataset(default_library, SamplerConfig(seed=2**64 - 1, n_per_material=2))
        assert len(ds) == 12

    def test_transient_memory_does_not_grow_with_n(self, default_library):
        # the rows are written into the one matrix the Dataset keeps, and the
        # sampler draws at most sampling._BLOCK gaussians at once, so what it
        # holds beyond its result stays flat. tracemalloc peak minus result
        # with numpy 2.4 on x86-64 was 3.7 MiB at 5 000 rows per material and
        # 13.8 MiB at 20 000 (a second and a third copy of the rows, and one
        # block of 7n gaussians per material) against 2.0 and 2.6 MiB now
        beyond = []
        for n in (5_000, 20_000):
            tracemalloc.start()
            try:
                ds = generate_dataset(default_library, SamplerConfig(n_per_material=n))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            beyond.append(peak - ds.features.nbytes - ds.material_index.nbytes)
        assert max(beyond) <= 4 * 2**20 and beyond[1] - beyond[0] <= 2**20, beyond


def reference_sample(library, index, n, seed):
    """The per-draw loop: one next_gaussian call per attempt, in draw order,
    from material_stream(seed, index)."""
    stream = material_stream(seed, index)
    limit = sampling.MAX_REJECTIONS_PER_DRAW
    columns = np.empty((len(FeatureId), n))
    for f in FeatureId:
        mean, std_dev = library.means[index, f], library.std_devs[index, f]
        upper = math.inf if f in POSITIVE_FEATURES else 1.0
        values = []
        for _ in range(n):
            for _attempt in range(limit):
                value = mean + std_dev * stream.next_gaussian()
                if 0.0 < value < upper:
                    values.append(value)
                    break
            else:
                raise ValueError(
                    f"material {library.names[index]!r}, feature {f.column_name!r}: "
                    f"no valid draw in {limit} attempts"
                )
        columns[f] = values
    return columns.T.copy()


def next_below(rng, bound):
    """Uniform integer in [0, bound) by modulo of one next_u64 draw."""
    return rng.next_u64() % bound


def reference_shuffled(rng, items):
    """Fisher-Yates with one next_below call per swap."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = next_below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_streams_continue_alike(a, b):
    assert [a.next_gaussian() for _ in range(3)] == [b.next_gaussian() for _ in range(3)]
    assert [a.next_u64() for _ in range(3)] == [b.next_u64() for _ in range(3)]


def assert_same_outcome(library, n, seed):
    """sample_material and the reference return the same bits or raise the
    same error."""
    try:
        expected = reference_sample(library, 0, n, seed)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            sample_material(library, 0, n, seed)
        assert str(got.value) == str(exc)
        return False
    assert_same_bits(sample_material(library, 0, n, seed), expected)
    return True


def assert_same_dataset_outcome(library, n, seed):
    """generate_dataset and the reference, material by material in library
    order, return the same bits in each material's rows or raise the same
    error; the first material to fail names itself."""
    cfg = SamplerConfig(seed=seed, n_per_material=n)
    try:
        expected = [reference_sample(library, i, n, seed) for i in range(len(library))]
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            generate_dataset(library, cfg)
        assert str(got.value) == str(exc)
        return False
    features = generate_dataset(library, cfg).features
    for i, block in enumerate(expected):
        assert_same_bits(features[i * n:(i + 1) * n], block)
    return True


class TestBlockSamplingMatchesPerDrawLoop:
    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    @pytest.mark.parametrize("seed", range(20))
    def test_builtin_materials(self, default_library, seed, n):
        for index in range(len(default_library)):
            assert_same_bits(sample_material(default_library, index, n, seed),
                             reference_sample(default_library, index, n, seed))

    @pytest.mark.parametrize("seed, n", [(0, 1), (5, 37), (42, 700)])
    def test_materials_written_at_their_row_offsets(self, default_library, seed, n):
        # generate_dataset writes material i straight into rows i * n onwards
        assert assert_same_dataset_outcome(default_library, n, seed)

    @pytest.mark.parametrize("block, n", [(64, 1), (64, 300), (64, 2000), (None, 5000)])
    def test_windows_that_grow_and_cross_blocks(self, monkeypatch, block, n):
        # density N(0.01, 10): about half the draws are rejected, so the
        # first density window falls short and the next is sized twice over.
        # Blocks of 64 gaussians cut most windows short; at the default
        # block, 5 000 rows need two blocks, so some window ends at the edge
        if block is not None:
            monkeypatch.setattr(sampling, "_BLOCK", block)
        library = _library("half", means=[0.1, 0.01, 0.5, 900.0, 0.5, 0.5, 0.5])
        assert assert_same_outcome(library, n, n)

    @pytest.mark.parametrize("means, blocks_needed", [
        ([0.1, 0.0, 0.5, 900.0, 0.5, 0.5, 0.5], 2),  # density N(0, 10): half are <= 0
        ([0.1, -10.0, -0.05, -20.0, 0.5, 0.5, 0.5], 3),  # three features valid 16% of the time
    ])
    def test_rejections_extend_the_block(self, monkeypatch, means, blocks_needed):
        library = _library("thin", means=means)
        blocks = []
        real_block = sampling._u64_block

        def counted(state, count):
            blocks.append(count)
            return real_block(state, count)

        monkeypatch.setattr(sampling, "_u64_block", counted)
        most = 0
        for n in (1, 50, 1000):
            blocks.clear()
            assert assert_same_outcome(library, n, n)
            most = max(most, len(blocks))
        assert most >= blocks_needed

    @pytest.mark.parametrize("limit", [1, 10])
    def test_exhaustion_raises_on_the_same_draw(self, monkeypatch, limit):
        # a smaller limit, read by both samplers, makes exhaustion common
        monkeypatch.setattr(sampling, "MAX_REJECTIONS_PER_DRAW", limit)
        means = [0.1, -1.0, 0.5, 900.0, 0.5, 0.5, 0.5]  # density N(-1, 1): valid 16% of the time
        library = _library("sparse", means=means, stds=[0.01, 1.0, 0.05, 20.0, 0.05, 0.05, 0.05])
        outcomes = {assert_same_outcome(library, n, seed) for seed in range(5) for n in (1, 200)}
        assert False in outcomes

    @pytest.mark.parametrize("block", [8, 64])
    def test_exhaustion_across_block_edges(self, monkeypatch, block):
        # 10 misses in a row fail a draw. Blocks of 8 gaussians end every
        # window within 8, so every failing run crosses a window and block
        # edge; at 64, some do. The first material never fails, the second's
        # density (N(-1, 1), valid 16% of the time) often does, and the
        # error must name that material and feature
        monkeypatch.setattr(sampling, "MAX_REJECTIONS_PER_DRAW", 10)
        monkeypatch.setattr(sampling, "_BLOCK", block)
        stds = [0.01, 1.0, 0.05, 20.0, 0.05, 0.05, 0.05]
        library = MaterialLibrary(("dense", "sparse"),
                                  [[0.1, 5.0, 0.5, 900.0, 0.5, 0.5, 0.5],
                                   [0.1, -1.0, 0.5, 900.0, 0.5, 0.5, 0.5]], [stds, stds])
        outcomes = [assert_same_dataset_outcome(library, n, seed)
                    for seed in range(6) for n in (1, 3, 200)]
        assert True in outcomes and False in outcomes
        with pytest.raises(ValueError, match="'sparse', feature 'density'"):
            generate_dataset(library, SamplerConfig(seed=0, n_per_material=200))

    def test_exhaustion_at_the_default_limit(self):
        assert MAX_REJECTIONS_PER_DRAW == 1000
        means = [0.1, -3.0, 0.5, 900.0, 0.5, 0.5, 0.5]  # density N(-3, 1): valid 0.13% of the time
        library = _library("scarce", means=means, stds=[0.01, 1.0, 0.05, 20.0, 0.05, 0.05, 0.05])
        outcomes = [assert_same_outcome(library, 3, seed) for seed in range(8)]
        assert True in outcomes and False in outcomes


class TestBlockGenerator:
    @pytest.mark.parametrize("k", [0, 1, 5, 12])
    def test_jump_by_power_of_two_matches_scalar_steps(self, k):
        rng = Xoshiro256pp(17)
        start = np.array([rng._s], dtype=np.uint64)
        for _ in range(2 ** k):
            rng.next_u64()
        jumped = sampling._apply(sampling._jump_tables(k), start)
        assert jumped[0].tolist() == rng._s

    @pytest.mark.parametrize("count", [1, 2, 3, 255, 4097, 70_001])
    def test_block_equals_scalar_calls(self, count):
        block, scalar = Xoshiro256pp(count), Xoshiro256pp(count)
        out = block.next_u64_block(count)
        assert out.dtype == np.uint64
        assert out.tolist() == [scalar.next_u64() for _ in range(count)]
        assert_streams_continue_alike(block, scalar)

    def test_block_rejects_empty_count(self):
        with pytest.raises(ValueError):
            Xoshiro256pp(1).next_u64_block(0)

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 2100, 60_001])
    def test_shuffled_equals_fisher_yates(self, length):
        items = [f"row{i}" for i in range(length)]
        block, scalar = Xoshiro256pp(length), Xoshiro256pp(length)
        assert block.shuffled(items) == reference_shuffled(scalar, items)
        assert_streams_continue_alike(block, scalar)

    @pytest.mark.parametrize("lengths", [[0], [1], [2], [0, 1, 2], [32_768, 32_769], [70_000],
                                         [3, 0, 2100, 1, 5]])
    def test_shuffled_each_equals_shuffled_in_turn(self, lengths, monkeypatch):
        # 32 767 + 32 768 swaps: the second list's first swap ends the first block
        lists = [[f"list{k} row{i}" for i in range(n)] for k, n in enumerate(lengths)]
        shared, in_turn = Xoshiro256pp(len(lengths)), Xoshiro256pp(len(lengths))
        expected = [in_turn.shuffled(items) for items in lists]
        blocks = []
        draw = Xoshiro256pp.next_u64_block
        monkeypatch.setattr(Xoshiro256pp, "next_u64_block",
                            lambda rng, count: blocks.append(count) or draw(rng, count))
        assert list(shared.shuffled_each([list(items) for items in lists], lengths)) == expected
        swaps = sum(max(n - 1, 0) for n in lengths)
        assert len(blocks) == -(-swaps // sampling._BLOCK) and sum(blocks) == swaps
        assert_streams_continue_alike(shared, in_turn)

    def test_shuffled_each_takes_a_list_when_its_turn_comes(self):
        built = []

        def lists():
            for n in (4, 3):
                built.append(n)
                yield list(range(n))

        shuffles = Xoshiro256pp(3).shuffled_each(lists(), [4, 3])
        next(shuffles)
        assert built == [4]
        next(shuffles)
        assert built == [4, 3]

    def test_shuffled_each_rejects_a_list_of_another_length(self):
        with pytest.raises(ValueError, match="^expected a list of 3 items, got 2$"):
            list(Xoshiro256pp(3).shuffled_each([[1, 2]], [3]))

    def test_jump_powers_are_lazy_and_small(self):
        code = (
            "from envload import sampling\n"
            "assert sampling._jump_tables.cache_info().currsize == 0\n"
            "sampling.Xoshiro256pp(1).next_u64_block(80_000)\n"
            "powers = [sampling._jump_tables(k) for k in range(sampling._jump_tables.cache_info().currsize)]\n"
            "print(sum(m.nbytes for m in powers))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(sampling.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env=env)
        assert 0 < int(result.stdout) <= 1_500_000
