"""Domain types, the built-in material library, and tabular file I/O.

The canonical feature order (thickness, density, thermal conductivity,
specific heat capacity, solar/visual/thermal absorptance) is fixed here and
used everywhere: dataset columns, PCA loading rows, LDA coefficients, and
the material library.

A MaterialLibrary is a tuple of names and two read-only (M, 7) arrays, the
mean and the std dev of each material's feature distributions. The paper's
fixed system design assumptions are the SYSTEM_CONSTANTS dict, which only
the config echo reads.

A Dataset holds one read-only numpy column per field: material index, the
(n, 7) feature matrix, loads and int8 ClassLabel codes. One is built, and
every column checked, only where data enters: the sampler, attached loads
(simulated or ingested) and labels, and read_dataset. Past the split the
stages pass plain arrays, checked by the same rules: feature_matrix,
check_features and label_codes. The two CSV readers, read_dataset and
surrogate.ingest_external_loads, read rows through csv_rows and only parse
their cells (parsed); the Dataset they build checks every value.
"""

from __future__ import annotations

import csv
import functools
from contextlib import ExitStack
from dataclasses import dataclass, replace
from enum import IntEnum
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False)
class MaterialLibrary:
    """Named materials, each with one normal distribution N(mean, std_dev^2)
    per feature: material i is names[i], and means[i, f] and std_devs[i, f]
    give its feature f. Both are read-only (M, 7) float64 arrays in
    canonical feature order.

    Construction rejects duplicate names, a wrong shape, and names the
    material and feature of the first non-finite mean or of a std_dev that
    is negative or not finite.
    """

    names: tuple[str, ...]
    means: np.ndarray
    std_devs: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ValueError(f"material names must be unique, got {list(names)}")
        object.__setattr__(self, "names", names)
        for attr in ("means", "std_devs"):
            array = np.array(getattr(self, attr), dtype=np.float64)
            if array.shape != (len(names), N_FEATURES):
                raise ValueError(
                    f"{attr}: expected shape {(len(names), N_FEATURES)}, got {array.shape}"
                )
            array.setflags(write=False)
            object.__setattr__(self, attr, array)
        bad = np.argwhere(~(np.isfinite(self.means) & np.isfinite(self.std_devs)
                            & (self.std_devs >= 0.0)))
        if len(bad):
            i, f = bad[0]
            raise ValueError(
                f"material {names[i]!r}, feature {FEATURE_COLUMNS[f]}: need a finite "
                f"mean and a finite std_dev >= 0, got mean {self.means[i, f]}, "
                f"std_dev {self.std_devs[i, f]}"
            )

    def __len__(self) -> int:
        return len(self.names)


# The paper's fixed system design assumptions. Nothing computes with them;
# the config echo records them beside the surrogate constants.
SYSTEM_CONSTANTS = {
    "equipment_load": 10.98,          # W/m2
    "infiltration_rate": 0.0003,      # m3/s m2
    "lighting_density": 9.36,         # W/m2
    "people_density": 0.25,           # ppl/m2
    "ventilation_per_area": 0.0006,   # m3/s m2
    "ventilation_per_person": 0.005,  # m3/s person
    "glazing_u_value": 0.6,           # W/m2K
}


# Rows of a column tested for bad values at once.
_CHECK_ROWS = 1 << 14

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
        for attr in _COLUMN_RULES:
            if getattr(self, attr) is not None:
                object.__setattr__(self, attr, _column(getattr(self, attr), attr, n))

    def __len__(self) -> int:
        return len(self.material_index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(
            a is b if a is None or b is None else np.array_equal(a, b)
            for a, b in ((getattr(self, c), getattr(other, c)) for c in _COLUMN_RULES)
        )

    def with_loads(self, loads: np.ndarray | Sequence[float]) -> "Dataset":
        return replace(self, loads=loads)

    def with_labels(self, labels: np.ndarray | Sequence[ClassLabel]) -> "Dataset":
        return replace(self, labels=labels)


def feature_matrix(x) -> np.ndarray:
    """x as a float64 array, which must be an (n, 7) feature matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != N_FEATURES:
        raise ValueError(f"expected an (n, {N_FEATURES}) feature matrix, got shape {x.shape}")
    return x


def check_cells(array: np.ndarray, column: str, bad: Callable, rule: str) -> None:
    """Raise ValueError as "row R, column C: rule, got V" for the first cell
    of array where bad, a mask of a block of rows, holds; a 2-D array's
    columns are the features."""
    for start in range(0, len(array), _CHECK_ROWS):  # bad's masks stay small at any n
        hits = np.flatnonzero(bad(array[start:start + _CHECK_ROWS]))
        if len(hits):  # the first hit, from its flat index in the block
            at = np.unravel_index(start * array[0].size + hits[0], array.shape)
            if array.ndim == 2:  # a column past the seventh is named by its index
                column = FEATURE_COLUMNS[at[1]] if at[1] < N_FEATURES else at[1]
            raise ValueError(f"row {at[0]}, column {column}: {rule}, got {array[at].item()}")


def check_features(x: np.ndarray) -> None:
    """Check every cell of a 2-D array by the features rule of a Dataset."""
    check_cells(x, *_COLUMN_RULES["features"][1:])


def label_codes(y, n: int) -> np.ndarray:
    """y as read-only int8 ClassLabel codes, n of them, checked as a Dataset's labels."""
    return _column(y, "labels", n)


def _column(values, attr: str, n: int) -> np.ndarray:
    """values as the Dataset column attr of n rows, frozen and C-contiguous,
    copied unless it already is. Raises ValueError for a wrong shape, a value
    its dtype cannot hold, or naming the first cell that breaks its rule."""
    dtype, column, bad, rule = _COLUMN_RULES[attr]
    shape = (n, N_FEATURES) if attr == "features" else (n,)
    given = np.asarray(values)
    try:  # a None or text cell, or a Python int past int64, raises here
        with np.errstate(invalid="ignore"):  # a value that does not fit is the error below
            array = given.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        array = None
    if array is None or not (np.can_cast(given.dtype, dtype) or np.array_equal(array, given)):
        raise ValueError(f"column {column}: values do not fit {np.dtype(dtype)}")
    if array.shape != shape:
        raise ValueError(f"column {column}: expected shape {shape}, got {array.shape}")
    check_cells(array, column, bad, rule)
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
    names, dists = zip(*_BUILTIN_MATERIALS)
    params = np.array(dists)  # (material, feature, (mean, std))
    return MaterialLibrary(names, params[..., 0], params[..., 1])


# ---------------------------------------------------------------------------
# CSV I/O
#
# Layout: header row, then per row
#   material_index, <7 features in canonical order>, load, label
# every cell filled: a dataset file is the full labelled table. '.' decimal
# separator, no locale dependence. Float cells are byte-identical to repr(), so
# read(write(d)) == d bit-exactly.
#
# Every CSV file is written by write_csvs, a chunk of rows at a time, from
# cell blocks. A block is a uint8 array with one row per line; each cell is
# a comma and its text, with NUL bytes wherever the block's fixed layout
# holds no text. csv_text copies a chunk's blocks side by side into one
# preallocated array of lines, ends each with "\r\n" and drops the first
# comma, then strips the NULs of each file's part in one bytes.translate. So
# no per-line Python runs, and only one chunk's cells are alive at a time,
# never a whole file's text.

CSV_HEADER = ("material_index",) + FEATURE_COLUMNS + ("load", "label")

# A float cell, 40 bytes: ',' '-' 17 integer digits '.' 20 fraction digits,
# ten 4-byte words of _repr_tables' word table.
FLOAT_CELL = 40
_POINT = 19  # the byte of the '.'

# A chunk of write_csvs is as many rows as fit _CHUNK_BYTES of lines: 512
# dataset lines (1 024 raised the peak RSS of repeated 6 000-row runs by
# about 1 MiB), or a whole 2 500-line decision grid of about 50-byte lines.
_DATASET_LINE = len(",0") + 8 * FLOAT_CELL + len(",medium\r\n")
_CHUNK_BYTES = 512 * _DATASET_LINE

_U64 = np.uint64
# float_cells writes a shorter array by repr. The kernel costs about 0.3-0.4
# ms a call up to a few hundred values, repr about 1.5 us a value, so they
# cross near 300 values (2-core x86-64 VM, Python 3.11, numpy 2.4).
_KERNEL_MIN = 256


class _ReprTables(NamedTuple):
    """float_cells' lookup tables, 75 KiB. The first three are indexed by
    t = biased exponent - 1009 in [0, 67], so that e2 = t - 68."""

    q: np.ndarray      # Ryu's q
    pow5: np.ndarray   # 5^i, i = -e2 - q
    frac: np.ndarray   # i, the fraction digits of vr
    pow10: np.ndarray  # 10^0 .. 10^19
    words: np.ndarray  # "dddd" for 0..9999, then ",-dd" for 0..99 and "ddd." for 0..999
    text: np.ndarray   # 0xFF at a cell's text bytes, by (sign, integer digits, fraction digits)


@functools.cache
def _repr_tables() -> _ReprTables:
    """The tables, made on first use."""
    minus_e2 = np.arange(68, 0, -1)
    log10_pow5 = (minus_e2 * 732923) >> 20  # floor(-e2 log10 5), exact below 1650 (Ryu)
    q = np.maximum(log10_pow5 - (minus_e2 > 1), 0)
    words = np.frombuffer("".join(
        [f"{v:04d}" for v in range(10000)] + [f",-{v:02d}" for v in range(100)]
        + [f"{v:03d}." for v in range(1000)]).encode(), dtype=np.uint32)
    col = np.arange(FLOAT_CELL)
    neg, int_len, frac_len = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(2), np.arange(18), np.arange(21), indexing="ij"))
    text = ((col == 0) | ((col == 1) & (neg == 1))
            | ((_POINT - int_len <= col) & (col <= _POINT))
            | ((_POINT < col) & (col <= _POINT + frac_len)))
    return _ReprTables(q.astype(_U64), np.array([5 ** int(i) for i in minus_e2 - q], dtype=_U64),
                       minus_e2 - q, np.array([10 ** j for j in range(20)], dtype=_U64),
                       words, text * np.uint8(0xFF))


def float_cells(values: np.ndarray) -> np.ndarray:
    """The cells "," + repr(float(v)) of float64 values, as a uint8 block of
    shape values.shape + (w,), NUL where a cell's layout holds no text. w is
    40, or the longest cell where every value is written by repr.

    repr gives the shortest decimal that reads back as v, and of those the
    one nearest to v (Steele & White; Gay). Ryu (Adams, PLDI 2018) finds
    the same digits with integer arithmetic, done here for a whole array
    at once. Its domain here is the normal doubles with 2^-14 <= |v| <
    2^54. There v = mv 2^e2 with mv = 4 * mantissa < 2^55 and e2 in
    [-68, -1], so with q = max(0, floor(-e2 log10 5) - 1) and i = -e2 - q,
    5^i < 2^52. So mv 5^i and the bounds (mv + 2) 5^i and (mv - 1 - [a
    mantissa bit is set]) 5^i are below 2^107: exact 128-bit products of
    32-bit limbs in uint64, which shifted right by q are Ryu's vr, vp and
    vm, exact too.

    Every other value is written by repr itself: zero, subnormals, values
    outside the domain, exponent form (decimal point at -4 or below, or
    above 16) and an exact vr (Ryu's trailing-zero case, where round half
    even applies). So is every value of an array of fewer than _KERNEL_MIN,
    where the kernel's fixed cost exceeds repr's.
    """
    shape = np.shape(values)
    values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    cells = _repr_cells(values, 0) if len(values) < _KERNEL_MIN else _ryu_cells(values)
    return cells.reshape(*shape, cells.shape[1])


def _ryu_cells(values: np.ndarray) -> np.ndarray:
    """float_cells of a 1-d array by the kernel, 40 bytes a cell."""
    out, frac, point, fast = _shortest(values.view(_U64))
    cells = _digit_cells(out, frac)
    row = ((values < 0.0) * 18 + np.maximum(point, 1)) * 21 + np.maximum(frac, 1)
    cells &= np.take(_repr_tables().text, row, axis=0)  # NUL where the cell has no text
    slow = np.flatnonzero(~fast)
    if len(slow):
        cells[slow] = _repr_cells(values[slow], FLOAT_CELL)
    return cells


def _repr_cells(values: np.ndarray, width: int) -> np.ndarray:
    """The cells of a 1-d array, each written by repr (see text_cells)."""
    return text_cells([repr(v) for v in values.tolist()], np.arange(len(values)), width)


def _digit_cells(out: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The cells of out 10^-frac with every slot filled: ',' '-', 17
    integer digits, '.' and 20 fraction digits, as (n, 40) uint8."""
    tables = _repr_tables()
    pow10 = tables.pow10
    # an integer part and 20 fraction digits, split 12 + 8; out < 10^17, so
    # 10^19 cuts as 10^20 would
    cut = np.take(pow10, np.clip(frac, 0, 19))
    whole = out // cut
    part = out - whole * cut
    whole *= np.take(pow10, np.maximum(-frac, 0))
    tail = np.clip(frac - 12, 0, 8)
    cut = np.take(pow10, tail)
    first = part // cut
    second = (part - first * cut) * np.take(pow10, 8 - tail)
    first *= np.take(pow10, np.maximum(12 - frac, 0))
    # the ten 4-byte words of each cell, right to left
    cells = np.empty((len(out), FLOAT_CELL // 4), dtype=np.uint32)
    for number, columns in ((whole, (4, 3, 2, 1, 0)), (first, (7, 6, 5)), (second, (9, 8))):
        for c in columns:
            size = _U64(1000 if c == 4 else 10000)  # word 4 is 3 digits and the '.'
            high = number // size
            base = _U64({0: 10000, 4: 10100}.get(c, 0))  # ",-dd" and "ddd."
            cells[:, c] = np.take(tables.words, number - high * size + base)
            number = high
    return cells.view(np.uint8)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryu's shortest digits of the float64 bit patterns (see float_cells):
    (out, frac, point, fast), so that v = out 10^-frac, with point repr's
    decimal point. Where fast is false, out is 0 and repr must write v.

    The number of digits removed is the highest decimal position at which
    vp and vm differ: the search starts at the digit count of vp - vm, less
    one, and steps up only through a carry. The last removed digit rounds
    vr, and vr == vm steps up past the excluded lower bound.
    """
    tables = _repr_tables()
    pow10 = tables.pow10
    biased = (bits >> _U64(52)) & _U64(0x7FF)
    t = np.clip(biased, 1009, 1076).astype(np.intp) - 1009
    vr, vp, vm, exact = _bounds(bits, t)
    removed = np.searchsorted(pow10, vp - vm, side="right") - 1
    scale = np.take(pow10, removed)
    at, top, bottom = np.arange(len(bits)), vp // scale, vm // scale
    while len(at):  # one digit more wherever vp and vm still differ above it
        top, bottom = top // _U64(10), bottom // _U64(10)
        carry = top > bottom
        at, top, bottom = at[carry], top[carry], bottom[carry]
        removed[at] += 1
    kept = vr // np.take(pow10, removed - 1)  # vr without all but the last removed digit
    digits = kept // _U64(10)
    out = digits + ((digits == vm // np.take(pow10, removed))
                    | (kept - digits * _U64(10) >= _U64(5)))

    frac = np.take(tables.frac, t) - removed  # out's fraction digits, <= 0 for an integer
    point = np.searchsorted(pow10, out, side="right") - frac
    fast = (biased - _U64(1009) <= _U64(67)) & ~exact & (point > -4) & (point <= 16)
    return (np.where(fast, out, _U64(0)), np.where(fast, frac, 1), np.where(fast, point, 1),
            fast)


def _bounds(bits: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Ryu's vr, vp and vm of the float64 bit patterns (see float_cells),
    and whether vr is exact; t = clip(biased exponent, 1009, 1076) - 1009
    selects the table row, so that e2 = t - 68 in the domain."""
    tables = _repr_tables()
    q, pow5 = np.take(tables.q, t), np.take(tables.pow5, t)
    mv = (bits & _U64((1 << 52) - 1) | _U64(1 << 52)) << _U64(2)
    hi, lo = _mul128(mv, pow5)
    vr = (hi << (_U64(64) - q)) | (lo >> q)  # numpy shifts by 64 to 0
    below = (_U64(1) << q) - _U64(1)
    rem = lo & below  # mv 5^i mod 2^q
    up = pow5 << _U64(1)
    down = np.where(mv != _U64(1 << 54), up, pow5)  # half as far below a power of 2
    vp = vr + (up >> q) + ((rem + (up & below)) >> q)
    vm = vr - (down >> q) - (rem < (down & below))
    return vr, vp, vm, rem == 0


def _mul128(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b as (hi, lo) uint64 halves, from 32-bit limbs; exact for
    a < 2^55 and b < 2^52, where the middle partial products sum below
    2^64."""
    a0, a1 = a & _U64(0xFFFFFFFF), a >> _U64(32)
    b0, b1 = b & _U64(0xFFFFFFFF), b >> _U64(32)
    low, mid = a0 * b0, a0 * b1 + a1 * b0
    lo = low + (mid << _U64(32))
    return a1 * b1 + (mid >> _U64(32)) + (lo < low), lo


def text_cells(texts: Sequence[object], codes: np.ndarray, width: int = 0) -> np.ndarray:
    """The block of cells "," + str(texts[c]) for the codes c, ASCII padded
    with NULs to width (default: the longest cell)."""
    table = np.array([f",{text}" for text in texts], dtype=f"S{width}" if width else "S")
    return np.take(table, codes).view(np.uint8).reshape(*codes.shape, table.itemsize)


def csv_text(blocks: Sequence[np.ndarray], row_masks: Iterable[np.ndarray] = ()
             ) -> Iterator[np.ndarray]:
    """The text, as uint8, of the lines whose cells are the blocks side by
    side, each ended by "\r\n", then of the lines where each row mask is
    true, one part at a time. A block's first axis is the lines; the rest
    hold their cells in C order."""
    n = len(blocks[0])
    cells = [b.reshape(n, -1) for b in blocks]
    lines = np.empty((n, sum(c.shape[1] for c in cells) + 2), dtype=np.uint8)
    np.concatenate(cells, axis=1, out=lines[:, :-2])
    del blocks, cells  # freed here unless the caller keeps them
    lines[:, -2:] = tuple(b"\r\n")
    lines[:, 0] = 0  # a line has no leading comma
    for part in chain([lines], (lines[m] for m in row_masks)):
        yield np.frombuffer(part.tobytes().translate(None, b"\0"), dtype=np.uint8)


def write_csvs(files: Sequence[tuple[str | Path, Sequence[str]]], n_rows: int,
               line_bytes: int, chunk_text: Callable[[slice], Iterable[np.ndarray]]) -> None:
    """Write CSV files in one pass over chunks of n_rows rows: files gives
    each path and its column names, and chunk_text(rows) each file's text of
    a slice of rows in turn (see csv_text). A chunk is as many rows as fit
    _CHUNK_BYTES at line_bytes, the bytes of the lines chunk_text builds for
    a row, and at least one."""
    rows = max(_CHUNK_BYTES // line_bytes, 1)
    with ExitStack() as stack:
        handles = [stack.enter_context(open(path, "wb")) for path, _ in files]
        for fh, (_, header) in zip(handles, files):
            fh.write(f"{','.join(header)}\r\n".encode())
        for start in range(0, n_rows, rows):
            for fh, text in zip(handles, chunk_text(slice(start, start + rows))):
                fh.write(text)
                del text  # a file's part is dropped before the next one is built


def write_dataset(dataset: Dataset, path: str | Path,
                  parts: Mapping[str | Path, np.ndarray] = {}) -> None:
    """Write a labelled dataset as CSV; see module docs for the layout. parts
    maps more paths to boolean row masks, and each gets the rows where its
    mask is true, from the same cells."""
    for column in ("loads", "labels"):
        if getattr(dataset, column) is None:
            raise ValueError(f"cannot write a dataset without {column}")

    def chunk_text(rows: slice) -> Iterator[np.ndarray]:
        ids, codes = np.unique(dataset.material_index[rows], return_inverse=True)
        blocks = [text_cells(ids, codes),
                  float_cells(np.column_stack([dataset.features[rows], dataset.loads[rows]])),
                  text_cells(LABEL_NAMES, dataset.labels[rows])]
        return csv_text(blocks, [mask[rows] for mask in parts.values()])

    write_csvs([(p, CSV_HEADER) for p in (path, *parts)], len(dataset), _DATASET_LINE,
               chunk_text)


def csv_rows(path: str | Path, header: Sequence[str]) -> Iterator[tuple[str, list[str]]]:
    """("PATH, line N", cells) for each non-blank row of a CSV file after its
    header line. Raises ValueError naming the file and the physical line for
    a header other than header or a row of another number of cells."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        if [h.strip() for h in next(reader, [])] != list(header):
            raise ValueError(f"{path}, line 1: expected header {','.join(header)!r}")
        for cells in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(cells) != len(header):
                raise ValueError(f"{where}: expected {len(header)} cells, got {len(cells)}")
            yield where, cells


def parsed(where: str, column: str, text: str, parse: Callable, expected: str):
    """parse(text), or a ValueError naming the place (e.g. "PATH, line 3")
    and the column when parse fails (ValueError or LookupError)."""
    try:
        return parse(text)
    except (ValueError, LookupError):
        raise ValueError(f"{where}, column {column}: expected {expected}, got {text!r}") from None


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset CSV, with a load and a label on every row. A cell that
    does not parse, or a row of the wrong width, is named by its file, line
    and column; a value that breaks a column rule, by the Dataset's row and
    column."""
    rows = [(parsed(where, "material_index", cells[0], int, "an integer"),
             [parsed(where, name, text, float, "a number")
              for name, text in zip(FEATURE_COLUMNS, cells[1:-2])],
             parsed(where, "load", cells[-2], float, "a number"),
             parsed(where, "label", cells[-1].strip().lower(), LABEL_NAMES.index,
                    "one of " + ", ".join(LABEL_NAMES)))
            for where, cells in csv_rows(path, CSV_HEADER)]
    index, features, loads, labels = zip(*rows) if rows else ((),) * 4
    return Dataset(index, np.reshape(features, (-1, N_FEATURES)), loads, labels)
