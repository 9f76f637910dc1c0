"""float_cells against Python's repr, byte for byte."""

import math
import sys

import numpy as np
import pytest

from envload import dataset as dataset_mod
from envload.dataset import _KERNEL_MIN, csv_text, float_cells

U64 = np.uint64


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    cells = float_cells(values)
    assert cells.shape[0] == len(values) and cells.shape[1] <= 40
    got = cells[cells != 0].tobytes()
    expected = "".join("," + repr(v) for v in values.tolist()).encode()
    if got != expected:
        for v, row in zip(values.tolist(), cells):
            assert row[row != 0].tobytes().decode() == "," + repr(v)
    assert got == expected


def _doubles(sign, biased, mantissa):
    bits = (U64(sign) << U64(63)) | (biased.astype(U64) << U64(52)) | mantissa.astype(U64)
    return bits.view(np.float64)


class TestRandomBits:
    def test_fast_path_domain(self):
        # normal doubles with 2^-14 <= |v| < 2^54: biased exponents 1009..1076
        rng = np.random.default_rng(2018)
        n = 200_000
        sign = rng.integers(0, 2, n, dtype=np.uint64)
        values = _doubles(sign, rng.integers(1009, 1077, n),
                          rng.integers(0, 1 << 52, n, dtype=np.uint64))
        _assert_repr(values)

    def test_all_finite_doubles(self):
        rng = np.random.default_rng(1990)
        values = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
        _assert_repr(values[np.isfinite(values)])

    def test_decimal_inputs(self):
        # values typed as short decimals, where the shortest digits are those typed
        rng = np.random.default_rng(7)
        digits = rng.integers(1, 10**9, 50_000)
        scale = 10.0 ** rng.integers(-4, 12, 50_000)
        _assert_repr(np.concatenate([digits * scale, digits / scale]))


class TestEdgeClasses:
    def test_powers_of_two_and_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        _assert_repr(np.concatenate([powers, -powers, np.nextafter(powers, 0.0),
                                     np.nextafter(powers, np.inf)]))

    def test_integers(self):
        near = np.array([2.0**52, 2.0**53, 2.0**54, 1e15, 1e16, 1e17], dtype=np.float64)
        offsets = np.arange(-4, 5, dtype=np.float64)
        _assert_repr(np.concatenate([np.arange(-3000.0, 3001.0),
                                     (near[:, None] + offsets).ravel()]))

    def test_dyadic_fractions(self):
        _assert_repr(np.concatenate([np.arange(-4096, 4097) / 1024.0,
                                     np.arange(1, 2049) / 2.0**40]))

    def test_zero_extremes_and_non_finite(self):
        _assert_repr([0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
                      -sys.float_info.max, math.inf, -math.inf, math.nan])

    def test_exponent_form_boundaries(self):
        below = above = [np.array([1e-4, 1e16, 2.0**-14, 2.0**54])]
        for _ in range(3):  # three ulps to each side
            below = below + [np.nextafter(below[-1], 0.0)]
            above = above + [np.nextafter(above[-1], np.inf)]
        values = np.concatenate(below + above)
        _assert_repr(np.concatenate([values, -values]))


class TestFallback:
    @pytest.fixture
    def fallback_texts(self, monkeypatch):
        """The cells that float_cells handed to text_cells, its repr path."""
        texts = []
        real = dataset_mod.text_cells

        def spy(cell_texts, *args):
            texts.extend(cell_texts)
            return real(cell_texts, *args)

        monkeypatch.setattr(dataset_mod, "text_cells", spy)
        return texts

    @pytest.mark.parametrize("value", [
        0.0,                 # zero
        -0.0,
        5e-324,              # subnormal
        3e-5,                # below 2^-14
        2e16,                # at or above 2^54
        7e-5,                # in the domain, exponent form: decimal point at -4
        1.5e16,              # exponent form at 17 (and exact: above 2^53, q is 0)
        0.5,                 # vr exact
        75.0,
        3.0,
    ])
    def test_each_fallback_case(self, fallback_texts, value):
        # enough fast-path values that the kernel, not the size rule, runs
        _assert_repr([0.1] * _KERNEL_MIN + [value, 123.456])
        assert fallback_texts == [repr(value)]

    def test_fast_path_takes_no_fallback(self, fallback_texts):
        rng = np.random.default_rng(3)
        _assert_repr(rng.normal(size=10_000) * 1000.0)
        assert fallback_texts == []


class TestSizeRule:
    @pytest.mark.parametrize("n", [0, 1, _KERNEL_MIN - 1, _KERNEL_MIN])
    def test_either_side_of_the_kernel_minimum(self, n):
        values = np.random.default_rng(n).normal(size=n) * 1000.0
        special = [0.0, -0.0, 0.5, 7e-5, 2e16][:n]  # values the kernel leaves to repr
        values[:len(special)] = special
        _assert_repr(values)

    def test_shape_is_the_values_shape_then_the_cell(self):
        assert float_cells(np.ones((3, 2))).shape == (3, 2, len(",1.0"))  # the longest repr
        assert float_cells(np.ones((300, 2))).shape == (300, 2, 40)  # the kernel's layout


class TestCsvText:
    def test_lines_without_a_label_column_end_in_crlf(self):
        values = np.array([[1.5, -2.0], [0.1, 3e-5]])
        text, = csv_text([float_cells(values[:, 0]), float_cells(values[:, 1])])
        assert text.tobytes() == b"1.5,-2.0\r\n0.1,3e-05\r\n"

    def test_row_masks_pick_their_lines(self):
        cells = float_cells(np.arange(3.0))
        _, picked = csv_text([cells], [np.array([True, False, True])])
        assert picked.tobytes() == b"0.0\r\n2.0\r\n"
