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
materials can be sampled independently and in any order. The sampler owns
that stream: sample_material makes it, draws from it in blocks and drops
it, so no draw is shared with another caller.

Blocks of outputs. `Xoshiro256pp.next_u64` is the scalar reference; the
samplers draw the same stream in blocks. The xoshiro256++ state transition
is linear over GF(2), a 256x256 bit matrix T, and the ++ scrambler only
reads the state, so the state after k outputs is s_k = T^k s_0 (Haramoto
et al., "Efficient jump ahead for F2-linear random number generators",
INFORMS J. Computing 20(3), 2008; Blackman & Vigna, "Scrambled linear
pseudorandom number generators", ACM TOMS 47(4), 2021).

* A block of count outputs is L lanes of M = 2^m steps, m =
  max(floor(log2(count) / 2) - 2, 0): a step is a fixed cost, a lane a
  share of a bit-matrix product, and a step costs about 25 lanes. Lane j
  starts at s_(jM): from lane 0 alone, each T^(2^k), k = m, m+1, ...,
  doubles the lanes. All lanes then step M times together as numpy uint64
  rows; read lane by lane, their outputs are the serial stream, and the
  stream continues from the state of the lane that made the last output.
* T is built on first use by stepping the 256 basis states as lanes, and
  T^(2^(k+1)) is T^(2^k) applied to its own rows. Each power is kept for
  the life of the process as lookup tables (64 groups of 4 state bits, 16
  XOR combinations each: 32 KiB), which turn a product into 64 lookups
  per state. Nothing is computed at import.
* Box-Muller runs on whole blocks with the formulas above, its log, cos
  and sin through `numerics.libm`.
* A material's stream is drawn in blocks of at most _BLOCK outputs, each
  sized to what the features left can need, so the sampler's transient
  does not grow with n. Each feature scans windows of the current block,
  each sized to the feature's remaining draws and a few rejections, times
  2^k after k windows fell short (not counting those cut by the block's
  end). A window's valid values, up to the feature's n-th, are written
  straight into the output column, and the count of invalid draws since
  the last valid one carries across window and block edges, so a draw
  fails after MAX_REJECTIONS_PER_DRAW misses wherever they fall. The next
  feature starts after the n-th valid draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataset import (
    N_FEATURES,
    POSITIVE_FEATURES,
    Dataset,
    FeatureId,
    MaterialLibrary,
)
from .numerics import libm

# A draw fails after this many consecutive invalid values.
MAX_REJECTIONS_PER_DRAW = 1000

# The most raw outputs, and so gaussians, the sampler draws at once: its
# lane states and Box-Muller temporaries stay a few MiB whatever the n.
# 2^16 sampled 60 000 rows about 4% faster, but held 1.2 MiB more beyond
# its result (2.8 MiB more at 600 000 rows).
_BLOCK = 1 << 15

_MASK64 = (1 << 64) - 1
_U64 = np.uint64


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


def _run_lanes(lanes: np.ndarray, steps: int) -> np.ndarray:
    """Step every lane (a row of 4 state words) `steps` times together.

    Returns the states as (4, steps + 1, L): [:, i, j] is lane j after i steps.
    """
    states = np.empty((4, steps + 1, len(lanes)), dtype=_U64)
    states[:, 0] = lanes.T
    t = np.empty(len(lanes), dtype=_U64)
    u = np.empty_like(t)
    k17, k45, k19 = _U64(17), _U64(45), _U64(19)
    xor = np.bitwise_xor
    w0, w1, w2, w3 = states
    for a0, a1, a2, a3, b0, b1, b2, b3 in zip(w0, w1, w2, w3, w0[1:], w1[1:], w2[1:], w3[1:]):
        np.left_shift(a1, k17, out=t)   # t = s1 << 17
        xor(a2, a0, out=b2)             # s2 ^= s0
        xor(a3, a1, out=u)              # s3 ^= s1
        xor(a1, b2, out=b1)             # s1 ^= s2
        xor(a0, u, out=b0)              # s0 ^= s3
        xor(b2, t, out=b2)              # s2 ^= t
        np.left_shift(u, k45, out=t)    # s3 = rotl(s3, 45)
        np.right_shift(u, k19, out=u)
        np.bitwise_or(u, t, out=b3)
    return states


def _scrambled(s0: np.ndarray, s3: np.ndarray) -> np.ndarray:
    """The ++ output rotl(s0 + s3, 23) + s0, elementwise in uint64."""
    x = s0 + s3
    out = x << _U64(23)
    x >>= _U64(41)
    out |= x
    out += s0
    return out


# Bit-matrix products by table lookup (the "method of four Russians"): the
# 256 state bits form 64 groups of 4, and a power of T is kept as, for each
# group, the XOR of its rows for each of the 16 values of the group's bits.
def _tables(rows: np.ndarray) -> np.ndarray:
    """(64, 16, 4) lookup tables of a bit matrix given as (256, 4) uint64 rows,
    row c the image of state bit c (bit c % 64 of word c // 64)."""
    rows = rows.reshape(64, 1, 4, 4)  # group, -, bit in the group, word
    bits_of_value = (np.arange(16)[:, None] >> np.arange(4) & 1).astype(bool)
    return np.bitwise_xor.reduce(np.where(bits_of_value[:, :, None], rows, _U64(0)), axis=2)


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The (L, 4) states times the bit matrix of tables over GF(2)."""
    octets = states.astype("<u8", copy=False).view(np.uint8).T  # bit c is in byte c // 8
    rows = np.empty((64, len(states)), dtype=np.intp)  # group g's row of tables.reshape(1024, 4)
    rows[0::2] = octets & 15
    rows[1::2] = octets >> 4
    rows += np.arange(0, 1024, 16)[:, None]
    return np.bitwise_xor.reduce(np.take(tables.reshape(1024, 4), rows, axis=0), axis=0)


@functools.cache
def _jump_tables(k: int) -> np.ndarray:
    """T^(2^k) as read-only lookup tables (see _tables), 32 KiB each."""
    if k == 0:
        basis = np.zeros((256, 4), dtype=_U64)
        basis[np.arange(256), np.arange(256) // 64] = _U64(1) << (np.arange(256) % 64).astype(_U64)
        rows = np.ascontiguousarray(_run_lanes(basis, 1)[:, 1].T)
    else:
        half = _jump_tables(k - 1)
        rows = _apply(half, half[:, [1, 2, 4, 8]].reshape(256, 4))  # row 4g + i is half[g, 2^i]
    tables = _tables(rows)
    tables.flags.writeable = False
    return tables


def _u64_block(state: list[int], count: int) -> tuple[np.ndarray, list[int]]:
    """The next count outputs from state, as uint64, and the state after them.

    Lanes of 2^m steps with m = max(floor(log2(count) / 2) - 2, 0): a step
    costs about 25 times a lane's share of a bit-matrix product, so the
    cheapest block has about sqrt(count) / 5 steps and 5 sqrt(count) lanes.
    """
    steps = 1 << max((count.bit_length() - 1) // 2 - 2, 0)
    n_lanes = -(-count // steps)
    lanes = np.array([state], dtype=_U64)
    k = steps.bit_length() - 1
    while len(lanes) < n_lanes:  # lane j starts at s_(j * steps)
        lanes = np.concatenate([lanes, _apply(_jump_tables(k), lanes[: n_lanes - len(lanes)])])
        k += 1
    states = _run_lanes(lanes, steps)
    out = _scrambled(states[0, :-1], states[3, :-1])
    lane, step = divmod(count - 1, steps)  # where the last output was made
    return out.T.ravel()[:count], states[:, step + 1, lane].tolist()


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

    def next_u64_block(self, count: int) -> np.ndarray:
        """The next count next_u64 outputs as a uint64 array, drawn in one block."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        out, self._s = _u64_block(self._s, count)
        return out

    def shuffled(self, items: Iterable) -> list:
        """Fisher-Yates shuffle (copy): shuffled_each of one list."""
        out = list(items)
        return next(self.shuffled_each([out], [len(out)]))

    def shuffled_each(self, lists: Iterable[list], lengths: Sequence[int]) -> Iterator[list]:
        """Fisher-Yates shuffle each of lists in place, in turn, taking it only
        when its turn comes, and yield it; lengths gives their lengths. The
        swap with an index below i + 1 takes one next_u64 draw modulo i + 1,
        whose bias is at most (i + 1) / 2**64: below 4e-15 for 60 000 rows. All
        the swaps draw from one run of blocks of at most _BLOCK, pieces of the
        serial stream, so each list is shuffled as by shuffled in turn."""
        left = sum(max(n - 1, 0) for n in lengths)  # swaps of the lists not yet drawn
        block = np.empty(0, dtype=_U64)  # the current block's draws not yet used
        lists = iter(lists)
        for n in lengths:
            out = next(lists)
            if len(out) != n:
                raise ValueError(f"expected a list of {n} items, got {len(out)}")
            top = n - 1  # the swaps of i = top down to 1
            while top > 0:
                if not len(block):
                    block = self.next_u64_block(min(left, _BLOCK))
                    left -= len(block)
                count = min(top, len(block))
                bounds = np.arange(top + 1, top + 1 - count, -1, dtype=_U64)
                for i, j in zip(range(top, top - count, -1), (block[:count] % bounds).tolist()):
                    out[i], out[j] = out[j], out[i]
                block, top = block[count:], top - count
            yield out
            del out  # the caller's now: the next list is built only after this one is dropped


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


def _check_count(n: int, name: str) -> int:
    """n as an int, if it is an integer (not a bool) >= 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    return int(n)


def check_seed(seed: int, name: str = "seed") -> int:
    """seed as an int, if it is an integer (not a bool) in [0, 2**64): the
    generators take a seed modulo 2**64, so one outside would alias another."""
    is_int = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (is_int and 0 <= int(seed) < 2**64):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 42
    n_per_material: int = 100

    def __post_init__(self) -> None:  # stores the plain ints it checked, as the echo shows
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "n_per_material",
                           _check_count(self.n_per_material, "n_per_material"))


def sample_material(library: MaterialLibrary, index: int, n: int, seed: int) -> np.ndarray:
    """Draw n feature vectors of material `index` from its own stream,
    material_stream(seed, index); returns a fresh (n, 7) array, written as
    generate_dataset writes the material's rows of its matrix.

    Raises ValueError for a seed outside [0, 2**64), an n that is not an
    integer >= 1, or when a component stays invalid for
    MAX_REJECTIONS_PER_DRAW consecutive draws.
    """
    check_seed(seed)
    n = _check_count(n, "n")
    if not 0 <= index < len(library):
        raise ValueError(f"material index {index} is outside 0..{len(library) - 1}")
    out = np.empty((n, N_FEATURES))
    _draw_into(out, library, index, seed)
    return out


def _draw_into(out: np.ndarray, library: MaterialLibrary, index: int, seed: int) -> None:
    """Write the len(out) draws of material index into out, an (n, 7) array
    or a row slot of a larger one, one feature column after another."""
    stream = material_stream(seed, index)
    n = len(out)
    means, std_devs = library.means[index], library.std_devs[index]
    gauss, used = np.empty(0), 0  # the current block of gaussians, and how many are consumed
    for f in FeatureId:
        upper = math.inf if f in POSITIVE_FEATURES else 1.0
        row = run = 0  # rows written, and invalid draws since the last valid one
        grow = 1  # doubles after each window not cut by the block's end that falls short
        while row < n:
            if used == len(gauss):  # room for the features left and a few rejections
                count = (N_FEATURES - f) * n - row + n // 16 + 16
                gauss, used = _box_muller(stream.next_u64_block(min(count + count % 2, _BLOCK))), 0
            want = grow * (n - row + (n - row) // 16 + 16)
            values = means[f] + std_devs[f] * gauss[used:used + want]
            kept = np.flatnonzero((0.0 < values) & (values < upper))[:n - row]
            # a draw ends at its valid value, or unfinished at the end of the window
            ends = kept if row + len(kept) == n else np.append(kept, len(values))
            misses = ends.copy()  # the draws between a valid value and the one before
            misses[1:] -= ends[:-1] + 1
            misses[0] += run
            if misses.max() >= MAX_REJECTIONS_PER_DRAW:
                raise ValueError(
                    f"material {library.names[index]!r}, feature {f.column_name!r}: "
                    f"no valid draw in {MAX_REJECTIONS_PER_DRAW} attempts"
                )
            out[row:row + len(kept), f] = values[kept]
            row += len(kept)
            run = int(misses[-1])
            used += int(ends[-1]) + (row == n)
            grow *= 1 + (len(values) == want)


def _box_muller(raw: np.ndarray) -> np.ndarray:
    """z0, z1 of each pair of raw outputs, interleaved, as next_gaussian
    computes them."""
    u = (raw >> _U64(11)).astype(np.float64) * (2.0 ** -53)
    r = np.sqrt(-2.0 * libm(1.0 - u[0::2], math.log)[0])
    cos, sin = libm(2.0 * math.pi * u[1::2], math.cos, math.sin)
    return np.column_stack((r * cos, r * sin)).ravel()


def generate_dataset(library: MaterialLibrary, cfg: SamplerConfig) -> Dataset:
    """Sample cfg.n_per_material rows per material, grouped in library order.

    Each material's draws are written straight into its rows of one
    preallocated (M * n, 7) matrix, which is frozen and shared by the
    Dataset, so the rows are held once."""
    n = cfg.n_per_material
    material_index = np.repeat(np.arange(len(library), dtype=np.int64), n)
    features = np.empty((len(library) * n, N_FEATURES))
    for index in range(len(library)):
        _draw_into(features[index * n:(index + 1) * n], library, index, cfg.seed)
    for column in (material_index, features):
        column.setflags(write=False)
    return Dataset(material_index, features)
