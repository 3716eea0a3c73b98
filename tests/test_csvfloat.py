"""The %.17g kernel of the figure CSVs against `b"%.17g" % v` per value, on
the values where a fast path could go wrong, and its exactness claim
against Fraction arithmetic."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from crlab.csvfloat import G17_WIDTH, _fixed_notation_fields, _g17_tables, _scale_to_17_digits, g17_fields
from crlab.figures import CSV_BLOCK_ROWS


def _g17_loop(x):
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


def _g17(x):
    """The kernel's field rows, read through an S view (which drops the NUL
    padding)."""
    return g17_fields(x).view(f"S{G17_WIDTH}").ravel().tolist()


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
    # every special alone, each field whole and NUL-padded to the width,
    # which is that of the longest field
    assert max(len(b"%.17g" % v) for v in SPECIALS) == G17_WIDTH
    for v in SPECIALS:
        fields = g17_fields(np.array([v]))
        assert fields.shape == (1, G17_WIDTH) and fields.dtype == np.uint8
        text = b"%.17g" % v
        assert fields[0].tobytes() == text + b"\0" * (G17_WIDTH - len(text))


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


def test_scale_to_17_digits_is_exact():
    # the docstring's bound: p + e equals |x| 10^s exactly, with 16 - s the
    # decimal exponent, on every value the fast path takes
    bounds = _g17_tables()[0]
    for d, t in zip(range(-4, 18), bounds.tolist()):
        assert Fraction(math.nextafter(t, 0)) < Fraction(10) ** d <= Fraction(t)
    x = _midpoints()
    fast, s, p, e = _scale_to_17_digits(x)
    assert (fast == ((np.abs(x) >= 1e-4) & (np.abs(x) < 1e17))).all()
    for v, si, pi, ei in zip(x[fast].tolist(), s[fast].tolist(), p[fast].tolist(), e[fast].tolist()):
        exact = abs(Fraction(v)) * 10**si
        assert Fraction(pi) + Fraction(ei) == exact
        assert 10**16 <= exact < 10**17
    # ties are in the set, and all of them leave the fast path
    ties = fast & (e - np.floor(e) == 0.5)
    assert ties.sum() >= 40
    assert not _fixed_notation_fields(x)[1][ties].any()
