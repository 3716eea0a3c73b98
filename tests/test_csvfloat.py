"""The %.17g kernel of the figure CSVs and its %.9g mode for the SVG
coordinates against `b"%.17g" % v` and `b"%.9g" % v` per value, on the
values where a fast path could go wrong, and their exactness claims
against Fraction arithmetic."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from crlab.csvfloat import G9_WIDTH, G17_WIDTH, _layout, _scale, _tables, g9_fields, g17_fields
from crlab.figures import CSV_BLOCK_ROWS


def _g17_loop(x):
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


def _g9_loop(x):
    return [b"%.9g" % v for v in np.asarray(x, dtype=float).tolist()]


def _rows(fields):
    """Field rows read through an S view (which drops the NUL padding),
    after checking that every row ends in NUL: the slot a separator takes."""
    assert fields.dtype == np.uint8 and fields.ndim == 2
    assert not fields[:, -1].any()
    return np.ascontiguousarray(fields).view(f"S{fields.shape[1]}").ravel().tolist()


def _g17(x):
    return _rows(g17_fields(x))


def _g9(x):
    return _rows(g9_fields(x))


def _near(values, steps=2):
    """The values and their nextafter neighbours, `steps` each way."""
    out = []
    for v in values:
        lo = hi = v
        out.append(v)
        for _ in range(steps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return out


def _midpoints():
    """Doubles nearest to 17-digit decimal midpoints (N + 1/2) 10^(d - 16),
    with their neighbours, for d in -6..18, plus exact midpoints (ties)."""
    rng = np.random.default_rng(20)
    values = []
    for d in range(-6, 19):
        for N in rng.integers(10**16, 10**17, 40).tolist() + [10**16, 10**17 - 1]:
            values.append(float(Decimal(2 * N + 1).scaleb(d - 17) / 2))
    # exact ties: 16 integer digits and .25 or .75, 15 digits and .125, ...
    for width, frac in ((16, (0.25, 0.75)), (15, (0.125, 0.375, 0.625, 0.875))):
        for I in rng.integers(10 ** (width - 1), 2 * 10 ** (width - 1), 20).tolist():
            values += [I + f for f in frac]
    values = _near(values, 1)
    return np.array(values + [-v for v in values[::7]])


# the longest %.17g fields (the least normal double: 24 bytes with its sign)
# and the other values that take %.17g itself
SPECIALS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324]
SPECIALS += [2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]

G17_SETS = {
    "specials": SPECIALS,
    "powers of ten": _near([10.0**k for k in range(-30, 31)], 1),
    # the switches between fixed and exponent notation
    "notation switches": _near([1e-5, 1e-4, 1e16, 1e17], 4),
    "integers to 2^63": _near([float(2**j) for j in range(64)] + [float(10**j - 1) for j in range(19)], 1)
    + np.random.default_rng(21).integers(-(2**62), 2**62, 2000).astype(float).tolist(),
    "midpoints": _midpoints(),
}


@pytest.mark.parametrize("name", list(G17_SETS))
def test_format_g17_matches_per_value_format(name):
    x = np.array(G17_SETS[name], dtype=float)
    assert _g17(x) == _g17_loop(x)
    # a strided column, as write_csv passes it
    rows = np.column_stack([x, -x])
    assert _g17(rows[:, 1]) == _g17_loop(-x)


def test_g17_fields_hold_the_longest_fields_whole():
    # every special alone, each field whole with one NUL after it: the
    # width is one more than the longest field, G17_WIDTH at most
    assert max(len(b"%.17g" % v) for v in SPECIALS) == G17_WIDTH
    for v in SPECIALS:
        fields = g17_fields(np.array([v]))
        text = b"%.17g" % v
        assert fields.dtype == np.uint8 and fields[0].tobytes() == text + b"\0"
    assert g17_fields(np.array(SPECIALS)).shape == (len(SPECIALS), G17_WIDTH + 1)


def test_format_g17_matches_per_value_format_on_random_doubles():
    rng = np.random.default_rng(22)
    n = 10**5
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, endpoint=True).view(float)
    scaled = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    near_one = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 17, n)
    for x in (bits, scaled, near_one):
        for start in range(0, n, CSV_BLOCK_ROWS):
            block = x[start : start + CSV_BLOCK_ROWS]
            assert _g17(block) == _g17_loop(block)


def _fast_path(x, digits):
    """The values the kernel lays out itself (no fallback)."""
    out = np.empty((len(x), (digits + 7) // 8), dtype=np.uint64)
    return _layout(x, digits, out)[0]


@pytest.mark.parametrize("digits", [17, 9])
def test_decimal_exponent_tables(digits):
    # bounds[i] is the least double >= 10^(i - 4), and below/above count
    # the bounds <= |v| from its binary exponent alone, over whole octaves
    bounds, below, above = _tables(digits)[:3]
    for d, t in zip(range(-4, digits + 1), bounds.tolist()):
        assert Fraction(math.nextafter(t, 0)) < Fraction(10) ** d <= Fraction(t)
    octaves = [math.ldexp(1.0, E - 1023) for E in range(1, 2047)]
    probes = np.array(_near(octaves, 1) + _near(bounds.tolist(), 2) + [0.0, 5e-324])
    E = probes.view(np.int64) >> 52
    assert (below[E] + (probes >= above[E]) == np.searchsorted(bounds, probes, side="right")).all()


def test_scale_to_17_digits_is_exact():
    # the docstring's bound: p + e equals |x| 10^s exactly, with 16 - s the
    # decimal exponent, on every value the fast path takes
    x = _midpoints()
    fast, s, p, e = _scale(x, 17)
    assert (fast == ((np.abs(x) >= 1e-4) & (np.abs(x) < 1e17))).all()
    for v, si, pi, ei in zip(x[fast].tolist(), s[fast].tolist(), p[fast].tolist(), e[fast].tolist()):
        exact = abs(Fraction(v)) * 10**si
        assert Fraction(pi) + Fraction(ei) == exact
        assert 10**16 <= exact < 10**17
    # ties are in the set, and all of them leave the fast path
    ties = fast & (e - np.floor(e) == 0.5)
    assert ties.sum() >= 40
    assert not _fast_path(x, 17)[ties].any()


def _midpoints9():
    """Doubles nearest to 9-digit decimal midpoints (N + 1/2) 10^(d - 8),
    with their neighbours, for d in -6..10, plus exact midpoints (ties)."""
    rng = np.random.default_rng(23)
    values = []
    for d in range(-6, 11):
        for N in rng.integers(10**8, 10**9, 40).tolist() + [10**8, 10**9 - 1]:
            values.append(float(Decimal(2 * N + 1).scaleb(d - 9) / 2))
    # exact ties: 9 integer digits and .5, 8 digits and .25 or .75, ...
    for width, frac in ((9, (0.5,)), (8, (0.25, 0.75)), (7, (0.125, 0.375, 0.625, 0.875))):
        for I in rng.integers(10 ** (width - 1), 10**width, 20).tolist():
            values += [I + f for f in frac]
    values = _near(values, 1)
    return np.array(values + [-v for v in values[::7]])


def test_scale_to_9_digits_is_exact():
    # the 9-digit mode: p + e equals |x| 10^s exactly, in [10^8, 10^9), on
    # every value the fast path takes
    x = _midpoints9()
    fast, s, p, e = _scale(x, 9)
    assert (fast == ((np.abs(x) >= 1e-4) & (np.abs(x) < 1e9))).all()
    for v, si, pi, ei in zip(x[fast].tolist(), s[fast].tolist(), p[fast].tolist(), e[fast].tolist()):
        exact = abs(Fraction(v)) * 10**si
        assert Fraction(pi) + Fraction(ei) == exact
        assert 10**8 <= exact < 10**9
    # exact ties of the 9th digit are in the set, and all of them fall back
    ties = [abs(Fraction(v)) * 10**si % 1 == Fraction(1, 2) for v, si in zip(x.tolist(), s.tolist())]
    ties = fast & np.array(ties)
    assert ties.sum() >= 40
    assert not _fast_path(x, 9)[ties].any()


G9_SETS = {
    "specials": SPECIALS,
    # the switches between fixed and exponent notation, 4 ulps each way
    "notation switches": _near([1e-5, 1e-4, 1e8, 1e9], 4),
    # a carry of the 9th digit into a 10th, and exact ties at the 9th digit
    "carries and ties": _near([0.99999999995, 999999999.5, 9.9999999995e-5, 99999999.95], 2)
    + [100000000.5, -100000000.5, 1234567.125, -1234567.125, 123456.0625, 0.5, 2.5, 1e-4 * 1.5],
    "powers of ten": _near([10.0**k for k in range(-12, 13)], 1),
    "midpoints": _midpoints9(),
}


@pytest.mark.parametrize("name", list(G9_SETS))
def test_format_g9_matches_per_value_format(name):
    x = np.array(G9_SETS[name], dtype=float)
    assert _g9(x) == _g9_loop(x)
    rows = np.column_stack([x, -x])
    assert _g9(rows[:, 1]) == _g9_loop(-x)


def test_exact_ties_of_the_9th_digit_fall_back():
    # %.9g rounds these half-even; the kernel hands each to %.9g itself
    ties = np.array([100000000.5, 1234567.125, -1234567.125, 123456.0625])
    assert not _fast_path(ties, 9).any()
    assert _g9(ties) == [b"100000000", b"1234567.12", b"-1234567.12", b"123456.062"]


def test_g9_fields_hold_the_longest_fields_whole():
    assert max(len(b"%.9g" % v) for v in SPECIALS) == G9_WIDTH
    for v in SPECIALS:
        assert g9_fields(np.array([v]))[0].tobytes() == b"%.9g" % v + b"\0"
    assert g9_fields(np.array(SPECIALS)).shape == (len(SPECIALS), G9_WIDTH + 1)


def test_format_g9_matches_per_value_format_on_random_doubles():
    # 3 x 10^5 doubles: random bit patterns, every exponent, and the fixed
    # notation range; the whole array in one call, as SvgCanvas passes it
    rng = np.random.default_rng(24)
    n = 10**5
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, endpoint=True).view(float)
    scaled = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
    near_one = rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 9, n)
    for x in (bits, scaled, near_one):
        assert _g9(x) == _g9_loop(x)
