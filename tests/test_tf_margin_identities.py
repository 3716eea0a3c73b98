"""TF's exclusion margin in closed form, proved once over every alpha2 in
(0, pi/2).

`verify.tf_check` reports as its margin the infimum of

    F = E / (|V|^2 sin^2 u),  E = |<p_U, V>|^2 - |<p_V, V>|^2,

over the closed ball part <V, V> <= 0 of the torus of J_0^- and J_-1^-
(lifts p_U, p_W, U^-1 p_W, TF's pass `oracles.passes`), with u = delta
- delta_v the offset of the point's delta-column from the vertex column
delta_v = alpha2 + pi/2 (tests/test_vertex_identities.py).  It reads
`family.exclusion_margin` and runs no column; this module is why.  On the
column of offset u the torus point is V = qr - e^{-i sigma} B(delta)
(`oracles._column_sinusoids`), with e^{-i delta} = -i conj(e^{i alpha2}) e^{-i u}, and with
c = cos(alpha2), s = sin(alpha2), K = 3s cos u - c sin u and Z = 3K
cos(sigma), in exact arithmetic over (c, s), (cos u, sin u) and (cos
sigma, sin sigma) on their circles (`slice_algebra`):

- Structure.  C = <qr, B> = -12c^2 K is real, A = <qr, qr> + <B, B> =
  8c^2 (K^2 + 6 sin^2 u), |V|^2 = 8c^2 (9 - 2 sin^2 u + Z) and E = -32c^4
  (K^2 + Z).  So <V, V> = A - 2C cos(sigma) = 8c^2 (K^2 + 6 sin^2 u + Z),
  no form has a sin(sigma) term, and on a column everything is a function
  of Z alone.  A > 0 wherever s > 0: no column lies wholly in the ball.
- Orientation.  With p = 9 - 2 sin^2 u, E / |V|^2 = -4c^2 (K^2 + Z) / (p +
  Z), and for the boundary value Z0 = -(K^2 + 6 sin^2 u) of a column that
  meets the ball, f(Z) - f(Z0) = 4c^2 (p - K^2)(Z0 - Z) / ((p + Z)(p +
  Z0)).  Both denominators are |V|^2 / 8c^2 > 0 (V is the box of two
  independent vectors: |det(p_U, p_W, U^-1 p_W)|^2 = 72c^4,
  tests/test_face_family_identities.py), p - K^2 = (3c cos u + s sin u)^2
  + 6 sin^2 u > 0, and the ball is Z <= Z0.  So each column's minimum lies
  on the ideal boundary <V, V> = 0.
- The boundary.  There E / |V|^2 = 24c^2 sin^2 u / (3c cos u + s sin u)^2,
  so F = 24c^2 / (3c cos u + s sin u)^2 = 24c^2 / (8c^2 + 1 - (3c sin u -
  s cos u)^2) (Lagrange's identity), at least 24c^2 / (8c^2 + 1), with
  equality exactly at tan u* = tan(alpha2) / 3: delta* = alpha2 + pi/2 +
  arctan(tan(alpha2) / 3).  With r = sqrt(8c^2 + 1), (cos u*, sin u*) =
  (3c, s) / r is on the unit circle and 3c cos u + s sin u = r cos(u -
  u*), so F = 24c^2 / ((8c^2 + 1) cos^2(u - u*)), which grows with |u -
  u*| on |u - u*| < pi/2: the infimum is F at the open column nearest u*.
- alpha*.  A column meets the ball exactly when K^2 + 6 sin^2 u <= 3|K|.
  On u*, sin u* = s / r and cos u* = 3c / r, K = 8cs / r > 0, and the
  condition reads g(c^2) >= 0 with g(t) = 144t (8t + 1) - (1 - t)(32t +
  3)^2 = 1024t^3 + 320t^2 - 39t - 9.  By Sturm's count g has one root t*
  in (0, 1), inside a rational bracket of width 1e-40, and is positive on
  (t*, 1): the column u* meets the ball exactly when alpha2 <= alpha* =
  arccos sqrt(t*) = 1.13504349930580402..., where its arc closes to a
  point.  `family.ALPHA2_STAR` is the largest double at most alpha*,
  checked in interval arithmetic.
- The band edge, above alpha*.  Both sides of K^2 + 6 sin^2 u <= 3|K| are
  nonnegative, so squaring keeps it: with x = tan u it is Q(x) <= 0, Q(x)
  = ((3s - cx)^2 + 6x^2)^2 - 9 (3s - cx)^2 (1 + x^2), the quartic with
  cos^4 u Q(tan u) = (K^2 + 6 sin^2 u - 3K)(K^2 + 6 sin^2 u + 3K), and u =
  pi/2 never meets the ball.  For t = c^2 in (0, t*] (indeed up to the
  bracket's upper end) Q'' has a positive leading coefficient and a
  negative discriminant (Sturm), so Q is strictly convex and has at most
  two real roots; Q(0) = -81 c^2 s^2 < 0, Q(-3c/s) = 324 c^2 (9c^2 + 1) /
  s^4 > 0 and cos^4 u* Q(tan u*) = -4 (1 - t) g(t) / r^4 > 0 above
  alpha*.  So the ball band is one arc [u_-, u_e] with u* - pi/2 <
  u_- < 0 < u_e < u*: it lies where cos^2(u - u*) grows with u, so its
  column nearest u* is the edge u_e, the one root of K^2 + 6 sin^2 u = 3K
  in (0, u*), and the infimum is 24c^2 / (3c cos u_e + s sin u_e)^2.  On
  [0, u*] K > 0, so the equation's sign is Q's, negative at 0 and
  positive at u*: the bracket `family.exclusion_margin` bisects holds
  exactly that root.  It bisects the sign of 6 sin^2 u - K (3 - K), with
  3 - K = 6 (sin^2(eps/2) + s sin^2(u/2)) + c sin u, eps = pi/2 - alpha2,
  a sum of nonnegative terms that keeps its digits up to pi/2 (the plain
  K^2 + 6 sin^2 u - 3K loses every one there).

So the infimum is attained at every alpha2 in (0, pi/2), on the boundary
point of the column u* up to alpha* and of the band edge u_e above it.
Each relation fails when perturbed, and so do the sign facts of a
perturbed quartic and the bracket of a perturbed g.  The tie tests hold
the forms to the column stage (`oracles._column_sinusoids`, on
`oracles.passes`; the spinal-trace figure reads the forms themselves,
tests/test_figures.py), the boundary curve and the band to the oracle
`column_minima`, the margin to a 90-digit evaluation of the band edge and
to the sampled pass `oracles.torus_pass` at grid 65,536, and alpha* to
the ball arc of the column u*.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from crlab.family import ALPHA2_STAR, PIO2_REM, alpha2_for_order, exclusion_margin
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import _column_sinusoids, column_minima, delta_v, passes, torus_exclusion, torus_pass
import slice_algebra as sa
from slice_algebra import E, I, box, c, conj, inner, positive, s, zero

cu, su, X, Y, t = sp.symbols("cu su X Y t", real=True)
# Groebner basis in the lex order of GENS: three circles that share no
# variable, (c, s), (cos u, sin u) and (cos sigma, sin sigma)
CIRCLES = [s**2 + c**2 - 1, su**2 + cu**2 - 1, Y**2 + X**2 - 1]
GENS = (s, su, Y, c, cu, X)

QR, PR, QP = (box(a, b).expand() for a, b in ((sa.P_W, sa.UI_PW), (sa.P_U, sa.UI_PW), (sa.P_W, sa.P_U)))
# e^{-i delta} at delta = delta_v + u, and the column's B and torus point
ED = -I * conj(E) * (cu - I * su)
B = ED * PR + conj(ED) * QP
V = QR - (X - I * Y) * B

K = 3 * s * cu - c * su
Z = 3 * K * X
P = 9 - 2 * su**2
Z0 = -(K**2 + 6 * su**2)
LOOK = 3 * c * cu + s * su  # (3c cos u + s sin u) = r cos(u - u*)
TWIST = 3 * c * su - s * cu  # r sin(u - u*), zero exactly at u*
EDGE = K**2 + 6 * su**2 - 3 * K  # zero at the band edge, where K > 0


def _quartic(cos_u, sin_u):
    """cos^4 u Q(tan u) for the band's quartic Q(x) = ((3s - cx)^2 +
    6x^2)^2 - 9 (3s - cx)^2 (1 + x^2), homogeneous of degree 4 in (cos u,
    sin u): at any nonzero multiple of (cos u, sin u) its sign is Q's."""
    k = 3 * s * cos_u - c * sin_u
    return sp.expand((k**2 + 6 * sin_u**2) ** 2 - 9 * k**2 * (cos_u**2 + sin_u**2))


xs = sp.Symbol("x", real=True)  # tan u
QUARTIC = sp.expand(((3 * s - c * xs) ** 2 + 6 * xs**2) ** 2 - 9 * (3 * s - c * xs) ** 2 * (1 + xs**2))


def _abs2(z):
    """|z|^2 as re^2 + im^2, each part first reduced modulo CIRCLES: the
    same value on the circles, in far fewer terms."""
    z = sp.expand(z)
    re, im = z.subs(I, 0), sp.expand((z - z.subs(I, 0)) / I)
    return sum(sp.reduced(part, CIRCLES, *GENS)[1] ** 2 for part in (re, im))


RELATIONS = {
    "C": [inner(QR, B) + 12 * c**2 * K],
    "A": [inner(QR, QR) + inner(B, B) - 8 * c**2 * (K**2 + 6 * su**2)],
    "norm": [sum(_abs2(v) for v in V) - 8 * c**2 * (P + Z)],
    "E": [_abs2(inner(sa.P_U, V)) - _abs2(inner(sa.P_V, V)) + 32 * c**4 * (K**2 + Z)],
    "form": [inner(V, V) - 8 * c**2 * (K**2 + 6 * su**2 + Z)],
    "lagrange": [K**2 + LOOK**2 - (9 - 8 * su**2), LOOK**2 + TWIST**2 - (8 * c**2 + 1)],
    "boundary": [P + Z0 - LOOK**2, P - K**2 - LOOK**2 - 6 * su**2],
    # (cos u*, sin u*) = (3c, s) / r is on the unit circle, r^2 = 8c^2 + 1,
    # so LOOK = r cos(u - u*) and TWIST = r sin(u - u*)
    "offset": [(3 * c) ** 2 + s**2 - (8 * c**2 + 1)],
    # the band's quartic factors through the edge equation, and the
    # program's bisected sign 6 sin^2 u - K (3 - K), with 3 - K = 6
    # (sin^2(eps/2) + s sin^2(u/2)) + c sin u, sin^2(eps/2) = (1 - s)/2 and
    # sin^2(u/2) = (1 - cos u)/2, is the edge equation's
    "edge": [
        _quartic(cu, su) - EDGE * (EDGE + 6 * K),
        (3 - K) - (6 * ((1 - s) / 2 + s * (1 - cu) / 2) + c * su),
        6 * su**2 - K * (3 - K) - EDGE,
    ],
}


@pytest.mark.parametrize("name", RELATIONS)
def test_relations_hold_on_the_circles(name):
    assert all(zero(e, CIRCLES, GENS) for e in RELATIONS[name])


@pytest.mark.parametrize("name", RELATIONS)
def test_each_perturbed_relation_fails(name):
    # a reduction that held whatever its input would prove nothing
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, CIRCLES, GENS) for e in RELATIONS[name])


def test_no_column_lies_wholly_in_the_ball():
    # A = 8c^2 (K^2 + 6 sin^2 u) is a sum of squares, zero only where sin u
    # = 0 and K = 3s cos u = 0, so s = 0: for alpha2 in (0, pi/2), A > 0 >=
    # -2|C| on every column
    a = K**2 + 6 * su**2
    assert zero(a.subs(su, 0) - 9 * s**2 * cu**2, CIRCLES, GENS)


def _f(z):
    """E / |V|^2 on a column, as a function of Z."""
    return -4 * c**2 * (K**2 + z) / (P + z)


def test_each_column_is_least_on_the_ideal_boundary():
    # f(Z) - f(Z0) = 4c^2 (p - K^2)(Z0 - Z) / ((p + Z)(p + Z0)) as rational
    # functions, and p - K^2 = (3c cos u + s sin u)^2 + 6 sin^2 u; the ball
    # <V, V> = 8c^2 (Z - Z0) <= 0 is Z <= Z0, so f(Z) >= f(Z0) there
    z = sp.Symbol("z", real=True)
    gap = _f(z) - _f(Z0) - 4 * c**2 * (P - K**2) * (Z0 - z) / ((P + z) * (P + Z0))
    assert sp.cancel(sp.together(gap)) == 0
    assert zero(RELATIONS["boundary"][1], CIRCLES, GENS)


# u*, where tan u* = tan(alpha2) / 3: sin u* = s / r, cos u* = 3c / r
R_STAR = sp.sqrt(8 * c**2 + 1)
AT_STAR = {su: s / R_STAR, cu: 3 * c / R_STAR}


def test_the_boundary_value_and_its_minimum():
    # p + Z0 = (3c cos u + s sin u)^2, so on the boundary E / |V|^2 = 24c^2
    # sin^2 u / (3c cos u + s sin u)^2; by Lagrange's identity that square
    # is 8c^2 + 1 - (3c sin u - s cos u)^2 <= 8c^2 + 1, with equality
    # exactly where 3c sin u = s cos u, at u*
    assert zero(RELATIONS["boundary"][0], CIRCLES, GENS)
    assert sp.cancel(_f(Z0) - 24 * c**2 * su**2 / (P + Z0)) == 0
    assert sp.simplify(TWIST.subs(AT_STAR)) == 0
    assert sp.cancel(sp.expand(LOOK.subs(AT_STAR) ** 2).subs(s**2, 1 - c**2)) == 8 * c**2 + 1


# g(t), t = c^2: the column u* meets the ball exactly where g(t) >= 0
G_STAR = 1024 * t**3 + 320 * t**2 - 39 * t - 9


def test_alpha_star_is_a_root_of_g():
    # a column meets the ball where Z0 >= -3|K|, K^2 + 6 sin^2 u <= 3|K|.
    # At u*, K = 8cs / r > 0, and r^4 (9K^2 - (K^2 + 6 sin^2 u*)^2) = 4 (1
    # - t)(144t (8t + 1) - (1 - t)(32t + 3)^2) = 4 (1 - t) g(t): on (0, 1)
    # the column u* meets the ball exactly where g >= 0
    k = K.subs(AT_STAR)
    assert sp.simplify(k - 8 * c * s / R_STAR) == 0
    star = sp.expand((9 * k**2 - (k**2 + 6 * (su**2).subs(AT_STAR)) ** 2) * R_STAR**4)
    star = sp.expand(star.subs(s, sp.sqrt(1 - c**2)).subs(c, sp.sqrt(t)))
    assert sp.cancel(star - 4 * (1 - t) * G_STAR) == 0
    assert sp.expand(144 * t * (8 * t + 1) - (1 - t) * (32 * t + 3) ** 2 - G_STAR) == 0


def _bracket(poly):
    """Sturm's count of the roots of poly, in t, on (0, 1), and the rational
    isolating interval (lo, hi) of width at most 1e-40 of its first root
    there."""
    p = sp.Poly(poly, t)
    inside = [(lo, hi) for (lo, hi), _ in p.intervals(eps=sp.Rational(1, 10**40)) if 0 < lo and hi < 1]
    return p.count_roots(0, 1), inside[0]


def test_g_has_one_root_in_the_unit_interval():
    count, (lo, hi) = _bracket(G_STAR)
    assert count == 1 and hi - lo <= sp.Rational(1, 10**40)
    # g < 0 below the root and g > 0 above it: the column u* meets the ball
    # for t = cos^2(alpha2) >= t*, which is alpha2 <= alpha*
    assert positive(-G_STAR, 0, lo) and positive(G_STAR, hi, 1)
    # alpha* = arccos sqrt(t*) to 20 digits, between arccos sqrt(hi) and
    # arccos sqrt(lo)
    with mpmath.workdps(50):
        ends = [mpmath.acos(mpmath.sqrt(mpmath.mpf(e.p) / e.q)) for e in (hi, lo)]
        assert ends[1] - ends[0] < mpmath.mpf(10) ** -38
        assert mpmath.nstr(ends[0], 20) == "1.1350434993058040244"


def test_alpha2_star_is_the_largest_double_at_most_alpha_star():
    # in interval arithmetic: cos^2(ALPHA2_STAR) >= hi, so ALPHA2_STAR <=
    # alpha*, and cos^2 of the next double < lo, so it lies past alpha*
    _, bracket = _bracket(G_STAR)
    iv, prec = mpmath.iv, mpmath.iv.prec
    iv.prec = 200
    try:
        cos2 = [iv.cos(iv.mpf(a)) ** 2 for a in (ALPHA2_STAR, math.nextafter(ALPHA2_STAR, 2.0))]
        lo, hi = (iv.mpf(e.p) / e.q for e in bracket)
        assert cos2[0].a >= hi.b and cos2[1].b < lo.a
    finally:
        iv.prec = prec


def test_a_perturbed_g_moves_its_root_out_of_the_bracket():
    _, (lo, hi) = _bracket(G_STAR)
    for moved in (G_STAR + sp.Rational(1, 10**6), G_STAR - sp.Rational(1, 10**6) * t**3):
        count, (mlo, mhi) = _bracket(moved)
        assert count == 1 and (mhi < lo or mlo > hi)


def test_the_quartic_is_the_edge_equation_in_tan_u():
    # cos^4 u Q(sin u / cos u) is `_quartic` as rational functions, and the
    # "edge" relations factor it through K^2 + 6 sin^2 u - 3K; a perturbed
    # quartic is not
    cos_u, sin_u = sp.symbols("cos_u sin_u", real=True)
    for quartic, holds in ((QUARTIC, True), (QUARTIC + sp.Rational(1, 10**6) * c * s * xs**3, False)):
        gap = sp.cancel(cos_u**4 * quartic.subs(xs, sin_u / cos_u) - _quartic(cos_u, sin_u))
        assert (gap == 0) == holds


def _in_t(expr):
    """An expression of (c, s), even in both, as a polynomial in t = c^2."""
    e = sp.reduced(sp.expand(expr), [s**2 + c**2 - 1], s, c)[1]
    assert not e.has(s)
    return sp.expand(e.subs(c, sp.sqrt(t)))


def _band_facts(quartic):
    """The facts that make the ball band one arc [u_-, u_e], u* - pi/2 <
    u_- < 0 < u_e < u*, for t = c^2 in (0, t*): the second derivative in x
    has a positive leading coefficient on (0, 1) and a negative
    discriminant on (0, hi), hi the upper end of t*'s bracket, so the
    quartic is strictly convex and has at most two real roots; it is
    negative at x = 0 and positive at x = -3c/s, the column u* - pi/2, on
    (0, 1); and at u* it is -4 (1 - t) g(t) / r^4, positive where g < 0,
    which is (0, t*) (`test_g_has_one_root_in_the_unit_interval`)."""
    _, (_, hi) = _bracket(G_STAR)
    a2, a1, a0 = sp.Poly(sp.diff(quartic, xs, 2), xs).all_coeffs()
    at = {x: s**4 * quartic.subs(xs, x) for x in (0, -3 * c / s)}
    return [
        positive(_in_t(a2), 0, 1),
        positive(-_in_t(a1**2 - 4 * a2 * a0), 0, hi),
        positive(-_in_t(at[0]), 0, 1),
        positive(_in_t(sp.cancel(at[-3 * c / s])), 0, 1),
        _in_t(sp.cancel((3 * c) ** 4 * quartic.subs(xs, s / (3 * c)))) == sp.expand(-4 * (1 - t) * G_STAR),
    ]


def test_the_band_is_one_arc_short_of_u_star():
    # so on [0, u*], where K = cos u (3s - c tan u) >= cos u 8s/3 > 0, the
    # edge equation has Q's sign: negative at 0, positive at u*, with one
    # root, the band edge; and the band lies in (u* - pi/2, u*), where
    # cos^2(u - u*) grows with u, so its column nearest u* is the edge
    assert all(_band_facts(QUARTIC))
    assert sp.expand((3 * s - c * s / (3 * c)) - 8 * s / 3) == 0
    # the column x = -3c/s is u* - pi/2: 3c cos u + s sin u vanishes there
    assert sp.expand(LOOK.subs({cu: s, su: -3 * c})) == 0


@pytest.mark.parametrize(
    "moved",
    [-100 * xs**2, 82 * c**2 * s**2, -400 * c**2 * (1 + xs**2) ** 2, sp.Rational(1, 10**6) * c**2 * xs**4],
)
def test_a_perturbed_quartic_breaks_a_band_fact(moved):
    # the Sturm counts and the identity at u* are not vacuous: a quartic
    # moved by a non-convex term, by a positive value at 0, by a negative
    # value at -3c/s, or by 10^-6 c^2 x^4 fails one of them
    assert not all(_band_facts(sp.expand(QUARTIC + moved)))


def test_pi_over_2_remainder_is_exact():
    # PIO2_REM is pi/2 - math.pi / 2 to the last bit, so eps = (math.pi / 2
    # - alpha2) + PIO2_REM, whose first difference is exact by Sterbenz's
    # lemma for alpha2 in [pi/4, pi], is pi/2 - alpha2 to rounding
    with mpmath.workdps(60):
        assert PIO2_REM == float(mpmath.pi / 2 - mpmath.mpf(math.pi / 2))


# ---------------------------------------------------------------------------
# ties to the program


def _u_columns(alpha2, us):
    """delta = delta_v + u for the offsets us, as the program's columns."""
    return delta_v(alpha2) + np.asarray(us)


def _forms(alpha2, us):
    """(K, sin u, cos u) at the offsets us, as floats."""
    co, si = math.cos(alpha2), math.sin(alpha2)
    us = np.asarray(us)
    return 3 * si * np.cos(us) - co * np.sin(us), np.sin(us), np.cos(us)


@pytest.mark.parametrize("alpha2", [0.01, 0.3, 0.7, math.pi / 6, alpha2_for_order(9), 1.1, 1.2, 1.3])
def test_the_programs_column_stage_has_the_structure(alpha2):
    # on oracles.passes, at 720 columns: Im C and the sin(sigma) rows of
    # |V|^2 and E vanish to rounding, and C, A and the cos(sigma) and
    # constant rows are the closed forms in K and sin u
    ff = FaceFamily(alpha2)
    us = (np.arange(720) + 0.5) * (math.pi / 720) - math.pi / 2
    kpq, (A, C) = _column_sinusoids(passes(ff), _u_columns(alpha2, us), ff.space)
    k, sn, _ = _forms(alpha2, us)
    c2 = math.cos(alpha2) ** 2
    norm, e = kpq[:, 0], kpq[:, 1] - kpq[:, 2]
    scale = np.abs(kpq).max()
    assert np.abs(C.imag).max() <= 1e-13 * np.abs(C).max()
    assert np.abs(norm[2]).max() <= 1e-14 * scale and np.abs(e[2]).max() <= 1e-14 * scale
    want = {
        "C": (C.real, -12 * c2 * k),
        "A": (A, 8 * c2 * (k**2 + 6 * sn**2)),
        "norm k": (norm[0], 8 * c2 * (9 - 2 * sn**2)),
        "norm p": (norm[1], 24 * c2 * k),
        "E k": (e[0], -32 * c2**2 * k**2),
        "E p": (e[1], -96 * c2**2 * k),
    }
    for key, (got, w) in want.items():
        assert np.abs(got - w).max() <= 1e-13 * scale, key


@pytest.mark.parametrize("alpha2", [0.05, 0.4, 0.7, alpha2_for_order(9), 1.1, 1.13, 1.2, 1.3, 1.4])
def test_column_minima_read_the_boundary_curve(alpha2):
    # every column that meets the ball (K^2 + 6 sin^2 u <= 3|K|, to
    # rounding) reads its minimum on the boundary, 24c^2 sin^2 u / (3c cos
    # u + s sin u)^2, to rounding in the minimum (which dividing by sin^2 u
    # next to the vertex column amplifies); over sin^2 u it is never below
    # family.exclusion_margin, 24c^2 / (8c^2 + 1) up to alpha* and the band
    # edge's value above it
    ff = FaceFamily(alpha2)
    us = (np.arange(4096) + 0.5) * (math.pi / 4096) - math.pi / 2
    minima, _, half = column_minima(passes(ff), _u_columns(alpha2, us), ff.space)
    k, sn, cs = _forms(alpha2, us)
    live = ~np.isnan(half)
    slack = np.abs(k**2 + 6 * sn**2 - 3 * np.abs(k))
    sure = slack > 1e-9
    assert np.array_equal(live[sure], (k**2 + 6 * sn**2 <= 3 * np.abs(k))[sure]) and live.any()
    co, si = math.cos(alpha2), math.sin(alpha2)
    curve = 24 * co**2 * sn**2 / (3 * co * cs + si * sn) ** 2
    assert np.abs(minima[live] - curve[live]).max() <= 1e-13 * curve[live].max()
    assert (minima[live] / sn[live] ** 2).min() >= exclusion_margin(alpha2)


TIE_PARAMETERS = (
    [float(a) for a in np.linspace(0.02, 1.13, 40)]
    + [alpha2_for_length(v) for v in (0.25, 1.0, 1.75)]
    + [alpha2_for_order(n) for n in range(9, 2810, 400)]
)


def test_the_closed_form_is_the_sampled_margin_at_grid_65536():
    # the oracle's torus_exclusion on 32,768 columns agrees with 24c^2 / (8c^2 + 1) to
    # 1e-8 relative, and at grids 64, 128 and 720 the sampled margin is
    # never below it
    worst = 0.0
    for alpha2 in TIE_PARAMETERS:
        ff, want = FaceFamily(alpha2), exclusion_margin(alpha2)
        (fine,) = torus_exclusion(passes(ff)[None], delta_v(alpha2), 32768, ff.space)
        worst = max(worst, abs(fine - want) / want)
        for grid in (64, 128, 720):
            (sampled,) = torus_exclusion(passes(ff)[None], delta_v(alpha2), grid // 2, ff.space)
            assert sampled >= want, (alpha2, grid)
    assert worst <= 1e-8


def _edge_reference(alpha2, dps=90):
    """(u_e, margin) at alpha2 > alpha* to dps digits, in mpmath: the band
    edge bisected 60 times on [0, u*] and then found by the secant method,
    in the same well-conditioned form as the program (eps = pi/2 - alpha2
    formed with 20 more digits, which its cancellation spends), checked to
    change sign about its root."""
    with mpmath.workdps(dps + 20):
        eps = mpmath.pi / 2 - mpmath.mpf(alpha2)
    with mpmath.workdps(dps):
        co, si = mpmath.sin(eps), mpmath.cos(eps)

        def edge(u):
            d = 6 * (mpmath.sin(eps / 2) ** 2 + si * mpmath.sin(u / 2) ** 2) + co * mpmath.sin(u)
            return 6 * mpmath.sin(u) ** 2 - (3 - d) * d

        lo, hi = mpmath.mpf(0), mpmath.atan2(si, 3 * co)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if edge(mid) < 0 else (lo, mid)
        u = mpmath.findroot(edge, (lo, hi), solver="secant")
        step = mpmath.mpf(10) ** (-dps // 2) * u
        assert lo <= u <= hi and edge(u - step) < 0 < edge(u + step)
        return u, 24 * co**2 / (3 * co * mpmath.cos(u) + si * mpmath.sin(u)) ** 2


# math.pi / 2 is the largest double below pi/2, eps = PIO2_REM there
EDGE_PARAMETERS = [float(a) for a in np.linspace(1.136, 1.5707, 200)] + [math.pi / 2 - d for d in (1e-9, 1e-12, 1.2e-15, 0.0)]


def test_the_band_edge_margin_is_the_90_digit_value():
    # family.exclusion_margin above alpha* agrees with the 90-digit band
    # edge to 1e-14 relative on 200 points of [1.136, 1.5707] and at pi/2 -
    # {1e-9, 1e-12, 1.2e-15} and math.pi / 2, where the margin tends to 2/3
    worst = 0.0
    for alpha2 in EDGE_PARAMETERS:
        _, want = _edge_reference(alpha2)
        worst = max(worst, float(abs(exclusion_margin(alpha2) - want) / want))
    assert worst <= 1e-14
    assert exclusion_margin(math.pi / 2 - 1.2e-15) == pytest.approx(2 / 3, rel=1e-14, abs=0)


def test_the_reference_edge_keeps_its_digits_near_pi_over_2():
    # the naive edge equation K^2 + 6 sin^2 u - 3K cancels as alpha2 ->
    # pi/2; at 140 digits it keeps about 100, and its root there agrees with
    # the 90-digit well-conditioned reference to 1e-80 relative
    for alpha2 in (math.pi / 2 - 1e-12, math.pi / 2 - 1.2e-15):
        u, _ = _edge_reference(alpha2)
        with mpmath.workdps(140):
            co, si = mpmath.cos(mpmath.mpf(alpha2)), mpmath.sin(mpmath.mpf(alpha2))

            def naive(v):
                k = 3 * si * mpmath.cos(v) - co * mpmath.sin(v)
                return k**2 + 6 * mpmath.sin(v) ** 2 - 3 * k

            root = mpmath.findroot(naive, (u * (1 - mpmath.mpf(10) ** -30), u * (1 + mpmath.mpf(10) ** -30)), solver="secant")
            assert abs(root - u) <= mpmath.mpf(10) ** -80 * u


def test_the_edge_is_the_sampled_margin_at_grid_65536():
    # the oracle's sampled pass on 32,768 columns is never below the band
    # edge's margin on linspace(1.136, 1.56, 20), and within 5e-3 relative
    # of it (2.5e-3 at 1.56, where the band is thin)
    for alpha2 in np.linspace(1.136, 1.56, 20):
        ff, want = FaceFamily(float(alpha2)), exclusion_margin(float(alpha2))
        sampled = torus_pass(ff, 65536)
        assert want <= sampled <= want * (1 + 5e-3), alpha2


@pytest.mark.parametrize("alpha2", [1.14, 1.3, 1.5, 1.56])
def test_the_oracles_band_ends_at_the_edge(alpha2):
    # on 4,096 columns about the edge, the oracle's ball arcs are open
    # exactly on the columns below u_e, to rounding, and closed on those
    # above it up to u*: the band's end nearest u* is the edge
    ff = FaceFamily(alpha2)
    u_e, _ = _edge_reference(alpha2, dps=30)
    u_e, u_star = float(u_e), math.atan(math.tan(alpha2) / 3)
    us = u_e + np.linspace(-1.0, 1.0, 4097)[1:] * min(u_e, u_star - u_e)
    _, _, half = column_minima(passes(ff), _u_columns(alpha2, us), ff.space)
    sure = np.abs(us - u_e) > 1e-9
    assert np.array_equal(~np.isnan(half[sure]), (us < u_e)[sure])


@pytest.mark.parametrize("alpha2, meets", [(1.13, True), (ALPHA2_STAR - 1e-7, True), (ALPHA2_STAR + 1e-7, False), (1.2, False)])
def test_the_column_u_star_closes_at_alpha_star(alpha2, meets):
    # the column delta* = delta_v + arctan(tan(alpha2) / 3) meets the ball
    # below alpha* and not above it, and its arc's half-width tends to 0 at
    # alpha*
    ff = FaceFamily(alpha2)
    u_star = math.atan(math.tan(alpha2) / 3)
    _, _, half = column_minima(passes(ff), _u_columns(alpha2, [u_star]), ff.space)
    assert np.isnan(half[0]) != meets
    if meets and alpha2 > 1.135:
        assert half[0] <= 1e-3
