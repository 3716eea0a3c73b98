"""Byte-exact `b"%.17g" % v` for float64 arrays, the CSV format of the
figures (`figures.write_csv`).

`g17_fields` writes every value that %.17g puts in fixed notation from
numpy arrays, with no per-value dtoa, and hands the rest to %.17g itself.
The tables are built on the first call, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

# a `g17_fields` source row is 24 bytes, 6 uint32 words: 3 unused bytes,
# the 17 digits (the lead digit, then 4 groups of 4, one word each) from
# byte _LEAD, and the bytes "0.-\0" of the last word
_LEAD = 3
_ZERO, _DOT, _MINUS, _NUL = range(20, 24)
G17_WIDTH = 24  # longest %.17g field: "-2.2250738585072014e-308"
_G17_GATHER = 512  # fields laid out per take: an index of 512 x 24 intp, 98 KB


@functools.cache
def _g17_tables():
    """Tables of `g17_fields`, built on its first call:

    - bounds[i], i = 0..21: the least double >= 10^(i - 4);
    - pow10[s], s = 0..20: 10^s (exact), with its Veltkamp halves;
    - groups[g]: the 4 ASCII digits of g < 10^4, as one uint32;
    - last[j, g]: 1 + 4 j + the digits of g through its last nonzero one, or
      1 for g = 0; over the four groups j of N, the greatest is k, the digits
      of N through its last nonzero one;
    - layout[code], code = (neg * 21 + d + 4) * 17 + k - 1: the source row
      bytes of the field with sign neg, exponent d and k digits, padded
      with _NUL.
    """
    # the double nearest 10^d is 10^d for d >= 0, and above it for d < 0
    bounds = np.array([float(f"1e{d}") for d in range(-4, 18)])
    pow10 = np.array([float(10**s) for s in range(21)])
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10**4, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    groups = (digits + ord("0")).view(np.uint32).ravel()
    # digits of a group through its last nonzero one (0 for g = 0)
    sig = np.where(digits > 0, np.arange(1, 5, dtype=np.uint8), 0).max(axis=1)
    last = np.where(sig > 0, 1 + 4 * np.arange(4, dtype=np.uint8)[:, None] + sig, 1).astype(np.uint8)
    digit = list(range(_LEAD, _LEAD + 17))
    rows = []
    for neg in (0, 1):
        for d in range(-4, 17):
            for k in range(1, 18):
                row = [_MINUS] * neg
                if d >= 0:
                    row += digit[: d + 1] + ([_DOT] + digit[d + 1 : k] if k > d + 1 else [])
                else:
                    row += [_ZERO, _DOT] + [_ZERO] * (-d - 1) + digit[:k]
                rows.append(row + [_NUL] * (G17_WIDTH - len(row)))
    return bounds, pow10, _veltkamp(pow10), groups, last, np.array(rows, dtype=np.uint8)


def _veltkamp(a):
    """(hi, lo), a = hi + lo exactly, each half of at most 26 significant bits."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _scale_to_17_digits(x):
    """(fast, s, p, e): where fast, p + e = |x| 10^s exactly, in [10^16, 10^17),
    with p = fl(|x| 10^s) and s = 16 - floor(log10 |x|).  Elsewhere
    (|x| < 1e-4 or >= 1e17, or not finite) s = 16 and p + e = 10^16.  The
    exactness argument is `g17_fields`'s.
    """
    bounds, pow10, (p10_hi, p10_lo) = _g17_tables()[:3]
    a = np.abs(x)
    i = np.searchsorted(bounds, a, side="right")  # floor(log10 |x|) = i - 5
    fast = (i > 0) & (i < len(bounds))
    a = np.where(fast, a, 1.0)
    s = np.where(fast, 21 - i, 16)
    p = a * pow10[s]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = p10_hi[s], p10_lo[s]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return fast, s, p, e


def g17_fields(x):
    """b"%.17g" % v for every value v of the float64 array x, as the rows of
    an (n, G17_WIDTH) uint8 array padded with NUL, with no per-value dtoa
    in the common case.

    %.17g writes v in fixed notation when the decimal exponent d of v,
    rounded to 17 significant digits, satisfies -4 <= d <= 16.  The fast
    path takes the finite v with 1e-4 <= |v| < 1e17 and proves each field:

    - d = floor(log10 |v|) exactly, from a search of |v| in `bounds`, the
      least doubles >= 10^-4, ..., 10^17.
    - s = 16 - d is in 0..20, and 10^s = 2^s 5^s with 5^20 < 2^53 is a
      double, so the correctly rounded hi + lo pair of 10^s has lo = 0.
      Dekker's two-product of |v| with 10^s (Veltkamp halves of both; no
      overflow or underflow in this range) gives p + e = |v| 10^s with
      error bound 0 (`_scale_to_17_digits`).  p >= 10^16 > 2^53 is an even
      integer, and |e| <= ulp(p)/2 <= 8.
    - N = p + floor(e) + (frac(e) > 1/2), with frac(e) = e - floor(e)
      exact.  An exact tie, frac(e) = 1/2, is rounded half-even by dtoa and
      would be rounded half-up here: every tie lies in the guard band
      |frac(e) - 1/2| <= 2^-30 and falls back.  Since p + e is exact the
      band needs no width beyond the tie itself; values inside it but off
      the tie fall back too, which is correct and rare.
    - Post-condition 10^16 <= N < 10^17, a check on the layout's input.
      N = 10^17 would mean a carry into an 18th digit, with %.17g's
      exponent d + 1; it needs v within 5e-18 10^(d+1) of 10^(d+1), and
      the greatest double below 10^j, j = -3..17, is further below.

    The lead digit of N and its four 4-digit groups (`groups`) fill a
    24-byte source row: 3 unused bytes, the 17 digits, then "0.-" and NUL.
    k, the digits through the last nonzero one, comes from `last`.  (sign,
    d, k) picks a `layout` row, and a flat take (_G17_GATHER fields at a
    time, which bounds its index array) lays out the sign, the "0.000"
    prefix, the "." after digit d and the cut of trailing zeros, padded
    with NUL.

    Fallback, b"%.17g" % v per value: zeros, non-finite values, subnormals,
    |v| < 1e-4 or >= 1e17 (exponent notation), the guard band and a failed
    post-condition.
    """
    fields, fast = _fixed_notation_fields(x)
    slow = np.flatnonzero(~fast)
    text = np.array([b"%.17g" % v for v in x[slow].tolist()], dtype=f"S{G17_WIDTH}")
    fields[slow] = text.view(np.uint8).reshape(-1, G17_WIDTH)
    return fields


def _fixed_notation_fields(x):
    """(fields, fast): fields[i] is `g17_fields(x)[i]` wherever fast[i]."""
    groups, last, layout = _g17_tables()[3:]
    n = len(x)
    fast, s, p, e = _scale_to_17_digits(x)
    floor_e = np.floor(e)
    frac = e - floor_e
    N = p.astype(np.int64) + floor_e.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 2.0**-30) & (N >= 10**16) & (N < 10**17)
    del p, e, floor_e, frac  # freed before the layout, which sets the peak
    top, bottom = np.divmod(N, 10**8)
    lead, middle = np.divmod(top, 10**8)
    g = np.divmod(middle, 10**4) + np.divmod(bottom, 10**4)  # the 4-digit groups
    del N, top, bottom, middle
    src = np.empty((n, 6), dtype=np.uint32)
    k = np.ones(n, dtype=np.uint8)
    for j in range(4):
        src[:, 1 + j] = groups.take(g[j])
        np.maximum(k, last[j].take(g[j]), out=k)
    src[:, 5] = np.frombuffer(b"0.-\0", dtype=np.uint32)
    src = src.view(np.uint8)
    src[:, _LEAD] = lead + ord("0")
    code = ((x < 0) * 21 + 20 - s) * 17 + k - 1  # 20 - s = d + 4
    out = np.empty((n, G17_WIDTH), dtype=np.uint8)
    for start in range(0, n, _G17_GATHER):
        fields = layout.take(code[start : start + _G17_GATHER], axis=0)
        index = np.arange(start, start + len(fields))[:, None] * src.shape[1] + fields
        src.ravel().take(index, out=out[start : start + _G17_GATHER], mode="clip")  # unbuffered
    return out, fast
