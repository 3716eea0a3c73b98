"""GC as a theorem in one variable: the projected disks of J_0^+ and J_0^-,
the guard margins and the cone rows, proved once for every order n >= 9 and
every length l > 0; and the disks' centres, radii and marks, which the
disk-projection figure draws, for every order n >= 4.

`verify.gc_check_elliptic` and `verify.gc_check_loxodromic` read only the
order n or the length l of `family.param_side`, and compute the closed
forms below with `math` scalars; `figures.figure_disk_projection` reads
only n, through `family.elliptic_disks`.  Write x = cos(beta) (elliptic side,
beta = 2 pi/n) or x = cosh(l) (loxodromic side), and t = 2x + 1 = 8
cos^2(alpha2); d = 2 sin(beta) or 2 sinh(l) as in tests/test_gc_identities.py.

The disk.  The silhouette of the bisector of p_U and q in the chart psi(y) =
<p', y> / <p'', y> of the visual sphere of [p_U] (`oracles.silhouette_circles`)
is the chart image of the boundary of the slice with pole P = p_U - eps q,
eps = -sign <p_U, q>.  The line through [p_U] and a point y of the polar line
meets that slice at p_U + mu y with |mu| = (N + |g|) / |<y, q>|, N = <p_U,
p_U>, g = <p_U, q>, and that point lies in the ball exactly when

    Q(y) = -N |<y, q>|^2 - (N + |g|)^2 <y, y> > 0.

With y = a p' + b p'', u = (<p', y>, <p'', y>) = G2 (a, b), G2 the Gram
matrix of (p', p''), this is u^H H u > 0 for H = -N M h h^H M - (N + |g|)^2 M,
M = G2^-1, h = (<p', q>, <p'', q>).  In z = u_1/u_2 the disk is H11 |z|^2 + 2
Re(conj(z) H12) + H22 > 0: for H11 < 0 the inside of the circle of centre
c = -H12/H11 and radius r with r^2/|c|^2 = -det H / |H12|^2 and |c|^2 - r^2 =
H22/H11.  The Gram entries are closed forms in x (`test_gram_entries_in_x`),
so each disk is one too:

- elliptic (chart rows p_U', p_U''): J_0^+'s centre lies on the ray -beta/2,
  J_0^-'s on +beta/2, and both have sin^2(half) = (r/|c|)^2 = (8/9) sin^2(beta)
  (2x + 1);
- loxodromic (chart rows p_U'', p_U'): |c|^2 - r^2 = e^{-l} for J_0^+ and
  e^{l} for J_0^-, so their log-modulus ranges are centred at -+l/2, and both
  have the half-width w = atanh(r/|c|) with sinh^2 w = (8/9) sinh^2(l) (2x + 1).

The figure.  On the elliptic side the centre -H12/H11 of J_0^+- is 12t
cos(beta/2) e^{-+i beta/2} / (6t (1 + x)(2x - 1) +- b), b = 64 c^3 s d > 0
the elliptic (|h2|^2 - |h1|^2)/2, and the radius is |centre| sin(half).
Neither denominator vanishes at an order n >= 4: on (LO, 1) 6t (1 + x)(2x -
1) > |b|, and at orders 4..9 their product, a polynomial in x, has no root
in a rational bracket of cos(2 pi/n) (Sturm); its roots lie between orders
4 and 5 and between 8 and 9, so both are negative at order 4 and the minus
one at orders 5..8, where the disk is its circle's outside.  The chart rows
share coordinate 0 and end in -(tr U + 1) -+ delta, so chart(p_B) = 1 and
chart(p_A) = e^{-i beta}; they are U's eigenvectors for e^{+-i beta}, so U
acts on the chart by e^{2 i beta} and the marks are e^{i (j - 1) beta}.

The margins.  J_0^+'s guard sector is (-5 beta/2, 3 beta/2) and its annulus
log|z| in (-5l/2, 3l/2), so the sector margins are 2 beta - half and the
annulus margins 2l - w.  With 2 beta <= 4 pi/9 and half <= pi/2 they are
positive exactly when sin^2(2 beta) > sin^2(half), and sinh^2(2l) > sinh^2 w,
and both read (4/9) sin^2(beta) or sinh^2(l) times 9x^2 - 4x - 2 > 0: every
order n >= 9 and every l > 0.

The cone rows.  With <p_U, p_V> = <p_U, p_W> = -3/2 real, the direction at
p_U toward q has the coordinates h / |h| in the orthonormal eigenbasis, and
U^k turns them by (e^{ik beta}, e^{-ik beta}); the swap <p', p_W> = <p'', p_V>
gives p_W the coordinates (h2, h1).  So the angle toward U^k p_V is dist(k
beta, 2 pi Z), and the one toward U^k p_W has cosine R cos((k + 1/2) beta)
with R = 3 / ((5 - 2x) cos(beta/2)) in (0, 1): for k in [2, n - 3] it is
wider than 2 beta, and at k = n - 2, the contact pair, it is the angular
diameter exactly.  The least angle is 2 beta, at k = 2 of the plus family.
The angular radius arccos(tanh(d_h/4)) of a bisector, cosh(d_h/2) = |g|/|N|,
has cos^2 = (2x + 1)/(5 - 2x), so the cone margin 2 beta - diam is positive
exactly when (x - 1)(2x^2 - 3x - 1) > 0, which holds on (0, 1).

`test_disks_are_the_programs` and `test_cone_rows_are_the_programs` tie the
closed forms to the numeric silhouettes of `oracles.face_silhouettes` and
the Gram-table cone rows of `oracles.cone_angles` at orders 9..10^4 and
lengths 1e-6..1.75; tests/test_verify.py ties `family.elliptic_disks` to a
60-digit rebuild at orders 4..10^4.
"""

import functools
import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import P_U, P_V, SideKind, alpha2_for_order, elliptic_disks
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily, gc_check_elliptic

import slice_algebra
from oracles import angular_diameter, cone_angles, face_gram, face_silhouettes, row_lengths
from slice_algebra import I, c, conj, eigenvector, inner, positive, zero
from test_gc_identities import A, B2, ELLIPTIC, GENS, LO, LOXODROMIC, X_OF_C, b, d, x

T = 2 * x + 1
N = x - 1  # <p_U, p_U>
G = sp.Rational(-3, 2)  # <p_U, p_V> = <p_U, p_W>
K = (N + abs(G)) ** 2
# sin(2 alpha2), in the imaginary part of the loxodromic h1 conj(h2)
sig = sp.symbols("sig", positive=True)
# relations of the symbols below: d = 2 sin(beta) or 2 sinh(l), b = 64 c^3 s d
# (the elliptic |h2|^2 - |h1|^2, over 2), sig^2 = 4 c^2 s^2
ELLIPTIC_X = [b**2 - B2, d**2 - 4 * (1 - x**2)]
LOXODROMIC_X = [sig**2 - T * (7 - 2 * x) / 16, d**2 - 4 * (x**2 - 1)]
S_RADIUS = sp.Rational(8, 9) * T  # (r/|c|)^2 over sin^2(beta), sinh^2 w over sinh^2(l)
# the centres' denominators are A_DEN +- b (`family.elliptic_disks`)
A_DEN = 6 * T * (1 + x) * (2 * x - 1)
# (A_DEN + b)(A_DEN - b), a polynomial in x
DEN_PRODUCT = sp.expand(A_DEN**2 - B2)
# rational brackets of cos(2 pi/n), n = 4..9
BRACKETS = {
    4: (sp.Rational(-1, 20), sp.Rational(1, 20)),
    5: (sp.Rational(3, 10), sp.Rational(31, 100)),
    6: (sp.Rational(49, 100), sp.Rational(51, 100)),
    7: (sp.Rational(62, 100), sp.Rational(63, 100)),
    8: (sp.Rational(70, 100), sp.Rational(71, 100)),
    9: (sp.Rational(76, 100), sp.Rational(77, 100)),
}


def _is_zero(expr, relations, gens):
    """expr, a rational function, vanishes modulo the relations (a Groebner
    basis in the lex order of gens, the last of them x)."""
    num = sp.expand(sp.numer(sp.together(sp.expand(expr))))
    return (sp.reduced(num, relations, *gens)[1] if relations else num) == 0


def _chart_form(G2, h_sq, h12):
    """(H11, H12, H22) of H = -N M h h^H M - (N + |g|)^2 M, M = G2^-1, for
    h h^H = [[h_sq[0], h12], [conj(h12), h_sq[1]]]."""
    P = sp.Matrix([[h_sq[0], h12], [conj(h12), h_sq[1]]])
    M = G2.inv()
    H = -N * M * P * M - K * M
    return H[0, 0], H[0, 1], H[1, 1]


# the elliptic h1 conj(h2) = 6t (1 + e^{-i beta}) and the loxodromic one, from
# tests/test_gc_identities.py; h1, h2 are <p_U', p_V>, <p_U'', p_V>
W_ELLIPTIC = 6 * T * (1 + x - I * d / 2)
W_LOXODROMIC = 2 * T * ((5 - 2 * x) * (x + 1) - 2 * I * sig * d)
H_SQ_LOXODROMIC = (6 * T * (1 + x + d / 2), 6 * T * (1 + x - d / 2))


@functools.cache
def _elliptic_disks():
    """{name: (H11, H12, H22)} of J_0^+ (h = (h1, h2)) and J_0^- (h = (h2,
    h1), by the swap) in the chart rows (p_U', p_U''), G2 = 16 (1 - x^2) I."""
    G2 = 16 * (1 - x**2) * sp.eye(2)
    return {
        "plus": _chart_form(G2, (A - b, A + b), W_ELLIPTIC),
        "minus": _chart_form(G2, (A + b, A - b), conj(W_ELLIPTIC)),
    }


@functools.cache
def _loxodromic_disks():
    """The same in the chart rows (p_U'', p_U'), G2 = [[0, m], [m, 0]] with m
    = <p_U'', p_U'> = -16 (x^2 - 1): h = (h2, h1) for J_0^+, (h1, h2) for J_0^-."""
    m = -16 * (x**2 - 1)
    G2 = sp.Matrix([[0, m], [m, 0]])
    h1sq, h2sq = H_SQ_LOXODROMIC
    return {
        "plus": _chart_form(G2, (h2sq, h1sq), conj(W_LOXODROMIC)),
        "minus": _chart_form(G2, (h1sq, h2sq), W_LOXODROMIC),
    }


@pytest.mark.parametrize("side", ["elliptic", "loxodromic"])
def test_gram_entries_in_x(side):
    # the entries the disk reads, on the symbolic slice of slice_algebra
    relations, delta = (ELLIPTIC, I * d) if side == "elliptic" else (LOXODROMIC, d)
    e1, e2 = eigenvector(delta), eigenvector(-delta)
    p_u, p_v, p_w = slice_algebra.P_U, slice_algebra.P_V, slice_algebra.P_W
    xc = X_OF_C
    assert zero(inner(p_u, p_u) - (xc - 1), relations, GENS)
    assert zero(inner(p_u, p_v) - G, relations, GENS) and zero(inner(p_u, p_w) - G, relations, GENS)
    norm, cross = (16 * (1 - xc**2), 0) if side == "elliptic" else (0, -16 * (xc**2 - 1))
    assert zero(inner(e1, e1) - norm, relations, GENS) and zero(inner(e2, e2) - norm, relations, GENS)
    assert zero(inner(e1, e2) - cross, relations, GENS)
    # the swap that makes J_0^-'s disk the mirror of J_0^+'s
    assert zero(inner(e1, p_w) - inner(e2, p_v), relations, GENS)
    assert zero(inner(e2, p_w) - inner(e1, p_v), relations, GENS)


def test_elliptic_disks():
    gens = (b, d, x)
    for name, (h11, h12, h22) in _elliptic_disks().items():
        # bounded: H11 (1 - x)^-1 (16 (1 - x^2))^2 = A - 4t^2 (1 + x) -+ b, and
        # A - 4t^2 (1 + x) = -6t (1 + x)(2x - 1) < -|b| on (LO, 1)
        sign = -1 if name == "plus" else 1
        assert _is_zero(h11 * 256 * (1 - x**2) ** 2 / (1 - x) - (A - 4 * T**2 * (1 + x) + sign * b), ELLIPTIC_X, gens)
        assert _is_zero(A - 4 * T**2 * (1 + x) + 6 * T * (1 + x) * (2 * x - 1), [], (x,))
        assert positive(2 * x - 1, LO, 1) and positive(sp.expand(36 * T**2 * (1 + x) ** 2 * (2 * x - 1) ** 2 - B2), LO, 1)
        # the centre -H12/H11 is lam (1 + e^{-+i beta}) with lam H11 > 0: lam
        # = 6t (x - 1) / (16 (1 - x^2))^2 < 0
        ray = 1 + x + sign * I * d / 2
        lam = 6 * T * (x - 1) / (256 * (1 - x**2) ** 2)
        assert _is_zero(-h12 - lam * ray, ELLIPTIC_X, gens)
        assert positive(-6 * T * (x - 1), LO, 1)
        # (r/|c|)^2 = -det H / |H12|^2 = (8/9) sin^2(beta) (2x + 1)
        det = h11 * h22 - h12 * conj(h12)
        assert _is_zero(-det - S_RADIUS * (1 - x**2) * h12 * conj(h12), ELLIPTIC_X, gens)


@functools.cache
def _elliptic_centre(sign):
    """(numerator, denominator) of 12t cos(beta/2) e^{sign i beta/2} / (A_DEN
    - sign b), with 12t cos(beta/2) e^{-+i beta/2} = 6t (1 + e^{-+i beta}):
    the centre of J_0^+ (sign -1) or J_0^- (sign +1) in
    `family.elliptic_disks`; the denominator is real."""
    return 6 * T * (1 + x + sign * I * d / 2), A_DEN - sign * b


def test_elliptic_centres_and_radii():
    gens = (b, d, x)
    for name, (h11, h12, h22) in _elliptic_disks().items():
        sign = -1 if name == "plus" else 1
        # the centre -H12/H11
        num, den = _elliptic_centre(sign)
        assert _is_zero(h12 * den + num * h11, ELLIPTIC_X, gens)
        # the radius |centre| sin(half): |c|^2 - r^2 = H22/H11 with r^2 = |c|^2
        # (8/9) sin^2(beta) (2x + 1), sin^2(beta) = 1 - x^2
        abs2 = sp.expand(num * conj(num))
        assert _is_zero(abs2 * (1 - S_RADIUS * (1 - x**2)) * h11 - h22 * den**2, ELLIPTIC_X, gens)


def test_marks_and_multiplier():
    # chart(q) = <p_U', q> / <p_U'', q> with p_U', p_U'' the eigenvector rows
    # at delta = +-i d, d = 2 sin(beta)
    e1, e2 = eigenvector(I * d), eigenvector(-I * d)
    xc = X_OF_C
    # p_B = (0, 0, 1): <e, p_B> = conj(e_0), and the rows share coordinate 0,
    # so chart(p_B) = 1
    assert sp.expand(e1[0] - e2[0]) == 0
    # p_A = (1, 0, 0): <e, p_A> = conj(e_2), e_2 = -(tr U + 1) -+ delta, so
    # chart(p_A) = e^{-i beta} = x - i d/2
    assert zero(e1[2] + 8 * c**2 + 1 + I * d, ELLIPTIC, GENS) and zero(e2[2] + 8 * c**2 + 1 - I * d, ELLIPTIC, GENS)
    assert zero(inner(e1, slice_algebra.P_A) - (xc - I * d / 2) * inner(e2, slice_algebra.P_A), ELLIPTIC, GENS)
    # U e1 = lam e1 and U e2 = conj(lam) e2 with lam = e^{i beta} = x + i d/2
    # of modulus 1, so <e1, U q> = <U^-1 e1, q> = lam <e1, q>, <e2, U q> =
    # conj(lam) <e2, q>, and U acts on the chart by lam^2 = e^{2 i beta}: the
    # marks m^k chart(p_A), m^k chart(p_B) are e^{i (j - 1) beta}, j = 2k, 2k + 1
    U = slice_algebra.U
    for e, lam in ((e1, xc + I * d / 2), (e2, xc - I * d / 2)):
        assert all(zero(v, ELLIPTIC, GENS) for v in U * e - lam * e)
    assert zero(xc**2 + d**2 / 4 - 1, ELLIPTIC, GENS)


def _sign_at_orders(product):
    """{n: sign of product at cos(2 pi/n)} for n = 4..9, each read at a point
    of a rational bracket of cos(2 pi/n), or 0 where the bracket holds a
    root."""
    p = sp.Poly(product, x)
    signs = {}
    for n, (lo, hi) in BRACKETS.items():
        assert lo < sp.cos(2 * sp.pi / n) < hi
        signs[n] = sp.sign(p.eval((lo + hi) / 2)) if p.count_roots(lo, hi) == 0 else 0
    return signs


def test_centre_denominators_vanish_at_no_order():
    # n >= 9: A_DEN > |b| on (LO, 1) (test_elliptic_disks), so both are
    # positive; n = 4..9: the product (A_DEN + b)(A_DEN - b) has no root in a
    # bracket of cos(2 pi/n).  It is positive at order 4, where A_DEN < 0, so
    # both denominators are negative; negative at orders 5..8, so A_DEN - b <
    # 0 < A_DEN + b (b > 0); positive at order 9.  Its roots lie between orders
    # 4 and 5 and between orders 8 and 9
    signs = _sign_at_orders(DEN_PRODUCT)
    assert signs == {4: 1, 5: -1, 6: -1, 7: -1, 8: -1, 9: 1}
    assert A_DEN.subs(x, 0) < 0 and positive(-A_DEN, BRACKETS[4][0], BRACKETS[4][1])
    p = sp.Poly(DEN_PRODUCT, x)
    assert p.count_roots(BRACKETS[4][1], BRACKETS[5][0]) == 1 and p.count_roots(BRACKETS[8][1], BRACKETS[9][0]) == 1
    assert all(p.count_roots(BRACKETS[n][1], BRACKETS[n + 1][0]) == 0 for n in (5, 6, 7))


def test_loxodromic_disks():
    gens = (sig, d, x)
    for name, (h11, h12, h22) in _loxodromic_disks().items():
        sign = -1 if name == "plus" else 1
        # bounded: H11 = -(x - 1) |h|^2 / m^2 < 0, both |h|^2 = 6t (1 + x +- d/2)
        # positive, as (1 + x)^2 - d^2/4 = 2x + 2
        assert _is_zero(h11 * 256 * (x**2 - 1) ** 2 + (x - 1) * H_SQ_LOXODROMIC[(1 + sign) // 2], LOXODROMIC_X, gens)
        assert _is_zero((1 + x) ** 2 - d**2 / 4 - (2 * x + 2), LOXODROMIC_X, gens)
        # |c|^2 - r^2 = H22/H11 = x -+ d/2 = e^{-+l}: the log-modulus centre -+l/2
        assert _is_zero(h22 - (x + sign * d / 2) * h11, LOXODROMIC_X, gens)
        # tanh^2 w = (r/|c|)^2 = S/(1 + S), S = (8/9) sinh^2(l) (2x + 1)
        s_w = S_RADIUS * (x**2 - 1)
        det = h11 * h22 - h12 * conj(h12)
        assert _is_zero(-det * (1 + s_w) - s_w * h12 * conj(h12), LOXODROMIC_X, gens)


def test_guard_margins_are_one_polynomial():
    # sin^2(2 beta) - sin^2(half) = 4 sin^2(beta) x^2 - (8/9) sin^2(beta) t, and
    # sinh^2(2l) - sinh^2 w alike: (4/9) times 9x^2 - 4x - 2 on both sides
    margin = 9 * x**2 - 4 * x - 2
    assert sp.expand(4 * x**2 - S_RADIUS - sp.Rational(4, 9) * margin) == 0
    assert positive(margin, LO, 1) and positive(margin, 1)
    # the sine of the half-width is below 1: the disk misses 0
    assert positive(1 - S_RADIUS * (1 - x**2), LO, 1)


def test_cone_rows():
    # hc, hs = cos(beta/2), sin(beta/2); ck, sk = cos, sin((k + 1/2) beta)
    hc, hs, ck, sk, ek, fk = sp.symbols("hc hs ck sk ek fk", real=True)
    half = [hc**2 + hs**2 - 1, ck**2 + sk**2 - 1]
    xh, dh = hc**2 - hs**2, 4 * hs * hc  # x and d = 2 sin(beta)
    w = W_ELLIPTIC.subs({x: xh, d: dh}, simultaneous=True)
    norm = 2 * A.subs(x, xh)  # |h1|^2 + |h2|^2
    # plus row: Re(|h1|^2 e^{ik beta} + |h2|^2 e^{-ik beta}) / (|h1|^2 + |h2|^2)
    # = cos(k beta) whatever the moduli u, v, with e^{ik beta} = ek + i fk
    u, v = sp.symbols("u v", positive=True)
    plus_row = u * (ek + I * fk) + v * (ek - I * fk)
    assert sp.cancel((plus_row + conj(plus_row)) / (2 * (u + v))) == ek
    # minus row: 2 Re(h2 conj(h1) e^{ik beta}) / (|h1|^2 + |h2|^2) = R cos((k +
    # 1/2) beta), e^{ik beta} = e^{i(k + 1/2) beta} e^{-i beta/2}
    turn = (ck + I * sk) * (hc - I * hs)
    prod = conj(w) * turn
    minus_row = (prod + conj(prod)) / norm
    r_hc = 3 / ((5 - 2 * xh) * hc)  # R
    assert _is_zero(minus_row - r_hc * ck, half, (ck, sk, hs, hc))
    # 0 < R < 1: R^2 = 18 / ((5 - 2x)^2 (1 + x)), and (5 - 2x)^2 (1 + x) - 18 =
    # (x - 1)(4x^2 - 12x - 7) > 0 on (0, 1)
    r_sq = 18 / ((5 - 2 * x) ** 2 * (1 + x))
    assert _is_zero((r_hc**2).subs(hs**2, 1 - hc**2) - r_sq.subs(x, 2 * hc**2 - 1), [], (hc,))
    assert sp.expand((5 - 2 * x) ** 2 * (1 + x) - 18 - (x - 1) * (4 * x**2 - 12 * x - 7)) == 0
    assert positive((5 - 2 * x) ** 2 * (1 + x) - 18, 0, 1)
    # the angular radius rho: cosh(d_h/2) = |g|/|N| = 3 / (2 (1 - x)), and
    # cos^2 rho = tanh^2(d_h/4) = (cosh(d_h/2) - 1)/(cosh(d_h/2) + 1) = q
    ch = abs(G) / (1 - x)
    q = (2 * x + 1) / (5 - 2 * x)
    assert sp.cancel((ch - 1) / (ch + 1) - q) == 0
    # the contact pair k = n - 2 of the minus family sits at margin 0: R cos(3
    # beta/2) = cos(2 rho) = 2q - 1, with cos(3 beta/2) = hc (4 hc^2 - 3)
    assert _is_zero(r_hc * hc * (4 * hc**2 - 3) - (2 * q - 1).subs(x, xh), half, (hs, hc))
    # the cone margin 2 beta - 2 rho > 0: cos rho = sqrt(q) > cos beta = x > 0,
    # q - x^2 = (x - 1)(2x^2 - 3x - 1) / (5 - 2x)
    assert sp.cancel(q - x**2 - (x - 1) * (2 * x**2 - 3 * x - 1) / (5 - 2 * x)) == 0
    assert positive((x - 1) * (2 * x**2 - 3 * x - 1), 0, 1) and positive(5 - 2 * x, 0, 1)


def test_perturbed_claims_fail():
    # the checks above reject a changed coefficient, a turned centre and an R
    # pushed past 1
    h11, h12, h22 = _elliptic_disks()["plus"]
    det = h11 * h22 - h12 * conj(h12)
    assert not _is_zero(-det - sp.Rational(7, 9) * T * (1 - x**2) * h12 * conj(h12), ELLIPTIC_X, (b, d, x))
    lam = 6 * T * (x - 1) / (256 * (1 - x**2) ** 2)
    assert not _is_zero(-h12 - lam * (1 + x + I * d / 2), ELLIPTIC_X, (b, d, x))
    assert not positive((5 - 2 * x) ** 2 * (1 + x) - sp.Rational(37, 2), 0, 1)
    h11, h12, h22 = _loxodromic_disks()["plus"]
    assert not _is_zero(h22 - (x + d / 2) * h11, LOXODROMIC_X, (sig, d, x))
    # the centres reject a changed coefficient, a turned ray and a flipped
    # denominator sign, the marks a turned chart(p_A), and the sign count a
    # changed coefficient of the denominators' product
    h11, h12, h22 = _elliptic_disks()["plus"]
    num, den = _elliptic_centre(-1)
    for num, den in ((sp.Rational(13, 12) * num, den), (conj(num), den), (num, A_DEN - b)):
        assert not _is_zero(h12 * den + num * h11, ELLIPTIC_X, (b, d, x))
    e1, e2 = eigenvector(I * d), eigenvector(-I * d)
    pa = slice_algebra.P_A
    assert not zero(inner(e1, pa) - (X_OF_C + I * d / 2) * inner(e2, pa), ELLIPTIC, GENS)
    assert _sign_at_orders(sp.expand(A_DEN**2 - sp.Rational(3, 2) * B2)) != {4: 1, 5: -1, 6: -1, 7: -1, 8: -1, 9: 1}


# the ties: closed forms against the program's silhouettes and Gram-table rows
ORDERS = [9, 10, 12, 20, 56, 100, 316, 922, 2809, 10**4]
LENGTHS = [1e-6, 1e-4, 1e-2, 0.25, 0.7, 1.0, 1.75]


@pytest.mark.parametrize("alpha2", [alpha2_for_order(n) for n in ORDERS] + [alpha2_for_length(v) for v in LENGTHS])
def test_disks_are_the_programs(alpha2):
    # the silhouettes of J_0^+ and J_0^- that oracles.face_silhouettes builds
    # numerically have the closed-form centre and r/|c| that
    # family.elliptic_disks and GC compute, to 1e-8 of the scale beta or l
    # (the numeric disk loses digits as the scale shrinks: 7e-10 at order
    # 10^4, 3e-10 at length 1e-6); tol 1e-14 keeps length 1e-6 off the
    # unipotent band of param_side
    ff = FaceFamily(alpha2, tol=1e-14)
    side, sils = ff.side, face_silhouettes(ff)[0]
    assert all(sil.bounded for sil in sils)
    if side.kind is SideKind.ELLIPTIC:
        beta = 2 * math.pi / side.n
        *centres, sin_half = elliptic_disks(side.n)
        assert sin_half == math.sin(beta) * math.sqrt(8 * (2 * math.cos(beta) + 1)) / 3
        for sil, sign, centre in zip(sils, (-1, 1), centres):
            assert abs(np.angle(sil.center) - sign * beta / 2) <= 1e-8 * beta
            assert abs(sil.center - centre) <= 1e-11 * abs(centre)
            assert sil.radius / abs(sil.center) == pytest.approx(sin_half, rel=1e-8, abs=0)
    else:
        length = side.length
        w = math.asinh(math.sinh(length) * math.sqrt(8 * (2 * math.cosh(length) + 1)) / 3)
        for sil, sign in zip(sils, (-1, 1)):
            c, r = abs(sil.center), sil.radius
            assert abs(0.5 * math.log(c * c - r * r) - sign * length / 2) <= 1e-8 * length
            assert 0.5 * math.log((c + r) / (c - r)) == pytest.approx(w, rel=1e-8, abs=0)


@pytest.mark.parametrize("n", ORDERS)
def test_cone_rows_are_the_programs(n):
    # oracles.cone_angles, from the Gram table: the plus row is dist(k beta,
    # 2 pi Z), the minus row has cosine R cos((k + 1/2) beta) and is wider
    # than 2 beta on k in [2, n - 3]; the least margin is verify's
    ff = FaceFamily(alpha2_for_order(n))
    beta, ks = 2 * math.pi / n, np.arange(2, n - 1)
    x_ = math.cos(beta)
    rows = cone_angles(ff, ks)
    assert np.abs(rows[:, 0] - np.minimum(ks * beta, 2 * math.pi - ks * beta)).max() <= 1e-14
    r = 3 / ((5 - 2 * x_) * math.cos(beta / 2))
    assert np.abs(np.cos(rows[:, 1]) - r * np.cos((ks + 0.5) * beta)).max() <= 1e-15 + 1e-16 * n
    assert (rows[:-1, 1] > 2 * beta).all()
    diam = angular_diameter(face_gram(ff), row_lengths(ff), P_U, P_V, ff.tol)
    res = gc_check_elliptic(ff)
    assert res.residuals["value_true_angular_diameter"] == pytest.approx(diam, rel=1e-8, abs=0)
    assert res.margins["cone_separation"] == pytest.approx(rows[0, 0] - diam, abs=1e-8 * beta)

