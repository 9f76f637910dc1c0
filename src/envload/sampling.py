"""Seed-reproducible Monte Carlo sampling of material properties.

The generator is fully specified so that results are bit-identical across
runs and implementations:

* splitmix64 expands a 64-bit seed into generator state,
* xoshiro256++ produces the uniform stream,
* 53-bit uniforms u = (next_u64() >> 11) * 2^-53,
* Box-Muller on two consecutive uniforms:
      r  = sqrt(-2 ln(1 - u1))        (1 - u1 in (0, 1], so log is safe)
      z0 = r cos(2 pi u2),  z1 = r sin(2 pi u2)
  both outputs are consumed, z0 first.

Draw order is feature-major in canonical order, sample-minor: all n draws of
thickness, then all n of density, and so on. Physically invalid draws
(non-positive thickness/density/conductivity/specific heat, absorptance
outside (0, 1)) are rejected and redrawn from the same stream.

Each material gets its own stream derived from (seed, material_index), so
materials can be sampled independently and in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    N_FEATURES,
    POSITIVE_FEATURES,
    Dataset,
    FeatureId,
    MaterialLibrary,
    MaterialSpec,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: seed expander and per-material sub-seed derivation."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256pp:
    """xoshiro256++ with splitmix64 state initialization."""

    def __init__(self, seed: int) -> None:
        sm = SplitMix64(seed)
        self._s = [sm.next_u64() for _ in range(4)]
        if not any(self._s):  # all-zero state is invalid for xoshiro
            self._s[0] = 1
        self._pending_gauss: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[0] + s[3]) & _MASK64, 23) + s[0]) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def next_f53(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by modulo. The bias is at most
        bound / 2**64 per draw: below 4e-15 for a 60 000-row shuffle."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def next_gaussian(self) -> float:
        """Standard normal deviate; Box-Muller pairs consumed in order."""
        if self._pending_gauss is not None:
            z = self._pending_gauss
            self._pending_gauss = None
            return z
        u1 = self.next_f53()
        u2 = self.next_f53()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        theta = 2.0 * math.pi * u2
        self._pending_gauss = r * math.sin(theta)
        return r * math.cos(theta)

    def shuffled(self, items: list) -> list:
        """Fisher-Yates shuffle (copy), consuming one draw per swap."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.next_below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def material_stream(seed: int, material_index: int) -> Xoshiro256pp:
    """Independent stream for one material: sub-seed is the
    (material_index + 1)-th splitmix64 output of the run seed."""
    if material_index < 0:
        raise ValueError(f"material_index must be >= 0, got {material_index}")
    sm = SplitMix64(seed)
    sub_seed = 0
    for _ in range(material_index + 1):
        sub_seed = sm.next_u64()
    return Xoshiro256pp(sub_seed)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 42
    n_per_material: int = 100
    max_rejections_per_draw: int = 1000

    def __post_init__(self) -> None:
        if self.n_per_material < 1:
            raise ValueError(f"n_per_material must be >= 1, got {self.n_per_material}")
        if self.max_rejections_per_draw < 1:
            raise ValueError("max_rejections_per_draw must be >= 1")


def sample_material(
    spec: MaterialSpec,
    n: int,
    stream: Xoshiro256pp,
    max_rejections_per_draw: int = 1000,
) -> np.ndarray:
    """Draw n feature vectors for one material; returns an (n, 7) array.

    Raises ValueError when a component stays invalid for
    max_rejections_per_draw consecutive draws.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    columns = np.empty((len(FeatureId), n), dtype=np.float64)
    for f in FeatureId:
        mean, std_dev = spec.dist[f].mean, spec.dist[f].std_dev
        upper = math.inf if f in POSITIVE_FEATURES else 1.0
        values = []
        for _ in range(n):
            for _attempt in range(max_rejections_per_draw):
                value = mean + std_dev * stream.next_gaussian()
                if 0.0 < value < upper:
                    values.append(value)
                    break
            else:
                raise ValueError(
                    f"material {spec.name!r}, feature {f.column_name!r}: "
                    f"no valid draw in {max_rejections_per_draw} attempts"
                )
        columns[f] = values
    return columns.T.copy()


def generate_dataset(library: MaterialLibrary, cfg: SamplerConfig) -> Dataset:
    """Sample cfg.n_per_material rows per material, grouped in library order."""
    blocks = [
        sample_material(
            spec, cfg.n_per_material, material_stream(cfg.seed, index),
            cfg.max_rejections_per_draw,
        )
        for index, spec in enumerate(library)
    ]
    return Dataset(
        np.repeat(np.arange(len(library)), cfg.n_per_material),
        np.concatenate([np.empty((0, N_FEATURES)), *blocks]),
    )
