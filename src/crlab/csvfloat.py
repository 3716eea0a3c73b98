"""Byte-exact `b"%.17g" % v` and `b"%.9g" % v` for float64 arrays: the CSV
format of the figures (`figures.write_csv`) and their SVG coordinates
(`figures.SvgCanvas.polylines`).

`g17_fields` and `g9_fields` write every value that the format puts in
fixed notation from numpy arrays, with no per-value dtoa, and hand the
rest to the format itself.  The tables are built on first use, not at
import.
"""

from __future__ import annotations

import functools

import numpy as np

# the D digits of N are bytes 0..D-1 of W = (D + 7) // 8 little-endian uint64
# words, and a field is laid out in W words: the longest fixed-notation
# field (D + 6 bytes) leaves the last byte NUL, the slot of a separator
G17_WIDTH = 24  # longest %.17g field: "-2.2250738585072014e-308"
G9_WIDTH = 16  # longest %.9g field: "-2.22507386e-308"
_CHUNK = 4096  # values laid out at a time: their working arrays stay in cache


@functools.cache
def _group_tables():
    """(groups, sig): groups[g] is the 4 ASCII digits of g < 10^4 as the low
    bytes of a uint64, and sig[g] the digits of g through its last nonzero
    one (0 for g = 0)."""
    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = (np.arange(10**4, dtype=np.int16)[:, None] // place % 10).astype(np.uint8)
    groups = (digits + ord("0")).view(np.uint32).ravel().astype(np.uint64)
    return groups, np.where(digits > 0, np.arange(1, 5, dtype=np.uint8), 0).max(axis=1)


@functools.cache
def _tables(digits):
    """Tables of the `digits`-digit kernel, D = 17 or 9, built on its first
    call:

    - bounds[i], i = 0..D + 4: the least double >= 10^(i - 4);
    - below[E], above[E] for the biased binary exponent E of |v|: the
      bounds <= 2^(E - 1023), and the least bound above it (inf if none);
      the octave [2^(E - 1023), 2^(E - 1022)) holds at most one bound, so
      the bounds <= |v| number below[E] + (|v| >= above[E]);
    - pow10[s], s = 0..D + 3: 10^s (exact), with its Veltkamp halves;
    - last[j, g]: 1 + 4 j + the digits of g through its last nonzero one,
      or 1 for g = 0; over the groups j of N, the greatest is k, the digits
      of N through its last nonzero one;
    - width[code], code = (neg * (D + 4) + d + 4) * D + k - 1: the length
      of the field with sign neg, exponent d and k digits;
    - shift[code]: 8 a, a the byte of the lead digit (after the sign and
      the "0.000" prefix of d < 0);
    - words[code]: the W words of that field's constant bytes (the sign,
      the prefix, the "." after digit d), then the W of the mask of the
      bytes that take the digits shifted up by a bytes (the digits through
      d, or all of them for d < 0), then the W of the mask of those shifted
      up by a + 1 (the digits after the ".").
    """
    G, W = (digits - 1) // 4, (digits + 7) // 8
    # the double nearest 10^d is 10^d for d >= 0, and above it for d < 0
    bounds = np.array([float(f"1e{d}") for d in range(-4, digits + 1)])
    octave = np.zeros(2048)
    octave[1:-1], octave[-1] = np.ldexp(1.0, np.arange(1, 2047) - 1023), np.inf
    below = np.searchsorted(bounds, octave, side="right")
    above = np.append(bounds, np.inf)[below]
    pow10 = np.array([float(10**s) for s in range(digits + 4)])
    sig = _group_tables()[1]
    last = np.where(sig > 0, 1 + 4 * np.arange(G, dtype=np.uint8)[:, None] + sig, 1).astype(np.uint8)
    words, width, shift = [], [], []
    for neg in (0, 1):
        for d in range(-4, digits):
            for k in range(1, digits + 1):
                const = b"-" * neg + (b"0." + b"0" * (-d - 1) if d < 0 else b"")
                a = len(const)  # the lead digit's byte
                head = k if d < 0 else d + 1  # digits before the "." or the end
                tail = max(k - head, 0)  # digits after the "."
                if tail:
                    const += b"\0" * head + b"."
                rows = [const, b"\0" * a + b"\xff" * head, b"\0" * (a + head + 1) + b"\xff" * tail]
                words.append([np.frombuffer(row.ljust(8 * W, b"\0"), dtype=np.uint64) for row in rows])
                width.append(a + head + (tail and tail + 1))
                shift.append(8 * a)
    words = np.array(words).reshape(len(words), -1)
    return (
        bounds, below.astype(np.int16), above, pow10, _veltkamp(pow10), last,
        np.array(width, dtype=np.uint8), np.array(shift, dtype=np.uint64), words,
    )


def _veltkamp(a):
    """(hi, lo), a = hi + lo exactly, each half of at most 26 significant bits."""
    t = a * 134217729.0  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _scale(x, digits):
    """(fast, s, p, e): where fast, p + e = |x| 10^s exactly, in
    [10^(D-1), 10^D), with p = fl(|x| 10^s) and s = D - 1 - floor(log10 |x|).
    Elsewhere (|x| < 1e-4 or >= 10^D, or not finite) s = D - 1 and
    p + e = 10^(D-1).  The exactness argument is `g17_fields`'s.
    """
    bounds, below, above, pow10, (p10_hi, p10_lo) = _tables(digits)[:5]
    a = np.abs(x)
    octave = a.view(np.int64) >> 52
    i = below.take(octave) + (a >= above.take(octave))  # floor(log10 |x|) = i - 5
    fast = (i > 0) & (i < len(bounds))
    a = np.where(fast, a, 1.0)
    s = np.where(fast, digits + 4 - i, digits - 1)
    p = a * pow10.take(s)
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = p10_hi.take(s), p10_lo.take(s)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return fast, s, p, e


def g17_fields(x):
    """b"%.17g" % v for every value v of the float64 array x, as the rows of
    an (n, w) uint8 array padded with NUL, w at least one more than the
    longest field, with no per-value dtoa in the common case.

    %.17g writes v in fixed notation when the decimal exponent d of v,
    rounded to 17 significant digits, satisfies -4 <= d <= 16.  The fast
    path takes the finite v with 1e-4 <= |v| < 1e17 and proves each field:

    - d = floor(log10 |v|) exactly: d + 5 is the count of `bounds`, the
      least doubles >= 10^-4, ..., 10^17, that are <= |v|, read from the
      binary exponent of |v| and one comparison (`below`, `above`).
    - s = 16 - d is in 0..20, and 10^s = 2^s 5^s with 5^20 < 2^53 is a
      double, so the correctly rounded hi + lo pair of 10^s has lo = 0.
      Dekker's two-product of |v| with 10^s (Veltkamp halves of both; no
      overflow or underflow in this range) gives p + e = |v| 10^s with
      error bound 0 (`_scale`).  p >= 10^16 > 2^53 is an even integer,
      and |e| <= ulp(p)/2 <= 8.
    - N = floor(p) + round(frac(p) + e).  Here frac(p) = 0, so the sum is
      e, and round(e) = floor(e) + (frac(e) > 1/2) with frac(e) exact.  An
      exact tie, frac(e) = 1/2, is rounded half-even by dtoa and would be
      rounded half-up here: every tie lies in the guard band
      |frac(e) - 1/2| <= 2^-30 and falls back.  Since p + e is exact the
      band needs no width beyond the tie itself; values inside it but off
      the tie fall back too, which is correct and rare.
    - Post-condition 10^16 <= N < 10^17, a check on the layout's input.
      N = 10^17 would mean a carry into an 18th digit, with %.17g's
      exponent d + 1; it needs v within 5e-18 10^(d+1) of 10^(d+1), and
      the greatest double below 10^j, j = -3..17, is further below.

    The lead digit of N and its four 4-digit groups (`groups`) are the 17
    ASCII digits, bytes 0..16 of three little-endian uint64 words.  k, the
    digits through the last nonzero one, comes from `last`, and (sign, d,
    k) is the field's code.  Its `words` row lays the field out with no
    per-byte index: the constant bytes (the sign, the "0.000" prefix, the
    "." after digit d), OR the digits shifted up by a bytes (a, the lead
    digit's byte, is at most 6) under one mask, OR the digits shifted up
    by a + 1 (those after the ".") under the other.  Each shift moves whole
    words by 8 a < 64 bits per row, and both masks end at the field's
    length, which cuts the trailing zeros.  The longest fixed field,
    "-0.000" and 17 digits, is 23 bytes, so each row keeps a NUL last
    byte; a call's fields come back at w, one more than the longest.

    Fallback, b"%.17g" % v per value: zeros, non-finite values, subnormals,
    |v| < 1e-4 or >= 1e17 (exponent notation), the guard band and a failed
    post-condition.
    """
    return _fields(x, 17)


def g9_fields(x):
    """b"%.9g" % v for every value v of the float64 array x, as the rows of
    an (n, w) uint8 array padded with NUL, w at least one more than the
    longest field, with no per-value dtoa in the common case.

    The 9-digit mode of `g17_fields`: fixed notation is -4 <= d <= 8, the
    fast path 1e-4 <= |v| < 1e9, s = 8 - d in 0..12, and p + e = |v| 10^s
    exactly by the same two-product, now in [10^8, 10^9).  p < 2^30 is no
    longer an integer: frac(p) = p - floor(p) is exact, |e| <= ulp(p)/2 <=
    2^-24, and f = fl(frac(p) + e) lies within 2^-53 of the true sum, which
    is in (-2^-24, 1).  N = floor(p) + round(f), with round(f) =
    floor(f) + (frac(f) > 1/2), is then exact outside the same guard band
    |frac(f) - 1/2| <= 2^-30, which every tie of the 9th digit falls in.  A
    carry to N = 10^9 fails the post-condition 10^8 <= N < 10^9 and falls
    back, as do zeros, non-finite values, |v| < 1e-4 and |v| >= 1e9.  N is
    its lead digit and two 4-digit groups, bytes 0..8 of two words, laid
    out as in `g17_fields`; the longest fixed field is 15 bytes.
    """
    return _fields(x, 9)


def _fields(x, digits):
    """The fields of `g17_fields` (digits = 17) or `g9_fields` (9), laid out
    _CHUNK values at a time."""
    out = np.empty((len(x), (digits + 7) // 8), dtype=np.uint64)
    w, slow = 1, []
    for start in range(0, len(x), _CHUNK):
        fast, width = _layout(x[start : start + _CHUNK], digits, out[start : start + _CHUNK])
        w = max(w, 1 + width)
        slow.append(start + np.flatnonzero(~fast))
    out = out.view(np.uint8)
    slow = np.concatenate(slow) if slow else np.zeros(0, dtype=np.intp)
    text = [b"%.*g" % (digits, v) for v in x[slow].tolist()]
    w = max(w, 1 + max(map(len, text), default=0))
    if w > out.shape[1]:
        out = np.pad(out, ((0, 0), (0, w - out.shape[1])))
    if text:
        out[slow] = np.array(text, dtype=f"S{out.shape[1]}").view(np.uint8).reshape(len(text), -1)
    return out[:, :w]


def _layout(x, digits, out):
    """Write the fixed-notation field of each value of x into the rows of
    out, (n, W) uint64, as its little-endian bytes: (fast, width), the
    values whose field it is, and the longest of those fields (a bound)."""
    last, width, shift, words = _tables(digits)[5:]
    groups = _group_tables()[0]
    fast, s, p, e = _scale(x, digits)
    if digits > 9:  # p is an integer: frac(p) = 0
        whole, f = p.astype(np.int64), e
    else:
        whole = np.floor(p)
        f = (p - whole) + e
        whole = whole.astype(np.int64)
    floor_f = np.floor(f)
    frac = f - floor_f
    N = whole + floor_f.astype(np.int64) + (frac > 0.5)
    fast &= (np.abs(frac - 0.5) > 2.0**-30) & ((N - 10 ** (digits - 1)).view(np.uint64) < 9 * 10 ** (digits - 1))
    del p, e, f, whole, floor_f, frac
    # N as its lead digit and 4-digit groups, high to low
    lead = N // 10 ** (digits - 1)
    halves = [N - lead * 10 ** (digits - 1)]
    if digits > 9:
        top = halves[0] // 10**8
        halves = [top, halves[0] - top * 10**8]
    g = []
    for half in halves:
        top = half // 10**4
        g += [top, half - top * 10**4]
    k = last[0].take(g[0])
    for j, group in enumerate(g[1:], 1):
        np.maximum(k, last[j].take(group), out=k)
    # the digits as bytes 0..digits-1 of little-endian words
    g = [groups.take(group) for group in g]
    digit_words = [(lead + ord("0")).astype(np.uint64) | g[0] << 8 | g[1] << 40]
    digit_words += [g[1] >> 24 | g[2] << 8 | g[3] << 40, g[3] >> 24] if digits > 9 else [g[1] >> 24]
    code = ((x < 0) * (digits + 4) + digits + 3 - s) * digits + k - 1  # digits + 3 - s = d + 4
    up = shift.take(code)
    down = 64 - up
    rows = words.take(code, axis=0)  # each field's constant bytes, then its two masks
    W = out.shape[1]
    for w, word in enumerate(digit_words):
        # the digits shifted up by a bytes (by_a), and by a + 1 (by_a1)
        by_a = word << up
        if w:
            by_a |= digit_words[w - 1] >> down
        by_a1 = by_a << 8
        if w:
            by_a1 |= prev_by_a >> 56
        prev_by_a = by_a
        np.bitwise_and(by_a1, rows[:, 2 * W + w], out=by_a1)
        field = by_a & rows[:, W + w]
        np.bitwise_or(field, by_a1, out=field)
        np.bitwise_or(field, rows[:, w], out=out[:, w])
    return fast, int(width.take(code).max(initial=0))
