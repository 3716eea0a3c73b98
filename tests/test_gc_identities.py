"""GC's closed-form certificate, proved once over every order n >= 9 and
every length, and LC's fan-circle identities at alpha2 = pi/6.

`verify.gc_check_elliptic` and `verify.gc_check_loxodromic` compute their
margins in closed form from the order or the length alone, as proved in
tests/test_gc_disk_identities.py (the tangency pairs are proved in
tests/test_line_and_contact_identities.py).  The guard annuli and angular sectors of
Schwartz (Spherical CR Geometry and Dehn Surgery, 2007), applied to the
Parker-Will structure, rest on inequalities in one variable x: x = cos(beta)
on the elliptic side of order n (beta = 2 pi/n), x = cosh(l) on the
loxodromic side of length l.  They are proved here for every x:

- tr U = 8c^2 = 2x + 1 on the slice, so cos^2(alpha2) = (2x + 1)/8, and
  `face_points`' eigenvectors p_U', p_U'' carry delta = sqrt((8c^2 -
  3)(8c^2 + 1)): delta = i d with d = 2 sin(beta) >= 0 (elliptic) and
  delta = d = 2 sinh(l) (loxodromic).
- h1 = <p_U', p_V> and h2 = <p_U'', p_V>, the Gram entries GC reads:
  - elliptic: |h1|^2 = A - 64c^3 s d and |h2|^2 = A + 64c^3 s d, with A =
    48c^2 + 320c^4 - 512c^6; h2 conj(h1) = 12 e^{i beta/2} (2x + 1)
    cos(beta/2); |h1|^2 |h2|^2 = 72 (2x + 1)^2 (x + 1);
  - loxodromic: |h1|^2 = 12 e^{l/2} t cosh(l/2) and |h2|^2 = 12 e^{-l/2}
    t cosh(l/2), t = 2x + 1, so |h1| |h2| = 12 t cosh(l/2); h1 conj(h2) =
    2t ((5 - 2x)(x + 1) - 4i sin(2 alpha2) sinh(l)).
- elliptic certificate on [cos(2 pi/9), 1): the guard-ray polynomial P(k)
  = c0 + c1 k + c2 k^2, c0 = |h2|^2 (1 - |h1|^2/18), c2 = |h1|^2 (1 -
  |h2|^2/18), c1 = 24 cos(2 beta)(2x + 1) cos(beta/2), has c0 < 0, c2 < 0
  and discriminant (16/9) |h1|^2 |h2|^2 sin^2(beta) (2 + 4x - 9x^2) < 0,
  so P(k) < 0 for every real k; and (9/4)/(1 - x)^2 > 4.
- 2 + 4x - 9x^2 < 0 on [0, 1] exactly when x > (2 + sqrt 22)/9, and
  cos(2 pi/8) < (2 + sqrt 22)/9 < cos(2 pi/9): order n >= 9 is that
  inequality, which is why GC skips orders 4..8.
- loxodromic certificate on (1, oo): the exclusion chain 9 cosh 4l + 8 cosh
  l - 8 cosh 3l - 8 cosh 2l - 1 = 8(x - 1)(9x^3 + 5x^2 - 6x - 2) > 0, the
  convexity cosh 4l + cosh l - cosh 3l - cosh 2l > 0 and cosh 4l - 1 > 0.

A sign on an interval is proved by Sturm's root count (`Poly.count_roots`)
and the sign at one point, in exact rational arithmetic.  The symbolic h1,
h2 are tied to the Gram table of the program's point table
(`oracles.face_gram`) at a few parameters on each side;
the points themselves are tied to `face_points` in test_tf_identities.py.
"""

import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import P_U1, P_U2, P_V, SideKind, alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import face_gram
import slice_algebra
from slice_algebra import I, SQ2, c, conj, eigenvector, inner, positive, s, zero

d, x, b, hc = sp.symbols("d x b hc", real=True)
GENS = (d, s, c)
# Groebner bases in the lex order of GENS: delta^2 = (8c^2 - 3)(8c^2 + 1)
# with delta = i d (elliptic) or delta = d (loxodromic)
ELLIPTIC = [d**2 + (8 * c**2 - 3) * (8 * c**2 + 1), s**2 + c**2 - 1]
LOXODROMIC = [d**2 - (8 * c**2 - 3) * (8 * c**2 + 1), s**2 + c**2 - 1]
X_OF_C = (8 * c**2 - 1) / 2  # cos(beta) or cosh(l)
U_OF_X = (2 * x + 1) / 8  # cos^2(alpha2)
A = 48 * U_OF_X + 320 * U_OF_X**2 - 512 * U_OF_X**3
# the elliptic |h1|^2 = A - b, |h2|^2 = A + b, b = 64 c^3 s d, b^2 = 4096 c^6
# s^2 d^2 with d^2 = 4 (1 - x^2)
B2 = 4096 * U_OF_X**3 * (1 - U_OF_X) * 4 * (1 - x**2)
ORDER_WALL = (2 + sp.sqrt(22)) / 9
# a rational point between the order-8 and order-9 parameters
LO = sp.Rational(3, 4)


def _h(delta):
    """(h1, h2) over (c, s, d) for the eigenvector parameter delta."""
    return inner(eigenvector(delta), slice_algebra.P_V), inner(eigenvector(-delta), slice_algebra.P_V)


H_ELLIPTIC, H_LOXODROMIC = _h(I * d), _h(d)


def _sq(z):
    return z * conj(z)


def test_elliptic_h_identities():
    h1, h2 = H_ELLIPTIC
    a, w = A.subs(x, X_OF_C), 64 * c**3 * s * d
    xc = X_OF_C
    assert zero(_sq(h1) - (a - w), ELLIPTIC, GENS)
    assert zero(_sq(h2) - (a + w), ELLIPTIC, GENS)
    assert sp.expand(a - (48 * c**2 + 320 * c**4 - 512 * c**6)) == 0
    # 12 e^{i beta/2} cos(beta/2) = 6 (1 + e^{i beta}), sin(beta) = d/2
    assert zero(h2 * conj(h1) - 6 * (2 * xc + 1) * (1 + xc + I * d / 2), ELLIPTIC, GENS)
    assert zero(_sq(h1) * _sq(h2) - 72 * (2 * xc + 1) ** 2 * (xc + 1), ELLIPTIC, GENS)
    # d = 2 sin(beta): d^2 = 4 (1 - cos^2 beta)
    assert zero(d**2 - 4 * (1 - xc**2), ELLIPTIC, GENS)


def test_loxodromic_h_identities():
    h1, h2 = H_LOXODROMIC
    xc, t = X_OF_C, 2 * X_OF_C + 1
    # 2 e^{+-l/2} cosh(l/2) = 1 + cosh l +- sinh l, sinh l = d/2
    assert zero(_sq(h1) - 6 * t * (1 + xc + d / 2), LOXODROMIC, GENS)
    assert zero(_sq(h2) - 6 * t * (1 + xc - d / 2), LOXODROMIC, GENS)
    # (12 t cosh(l/2))^2 = 72 t^2 (cosh l + 1), and both sides are positive
    assert zero(_sq(h1) * _sq(h2) - 72 * t**2 * (xc + 1), LOXODROMIC, GENS)
    assert zero(h1 * conj(h2) - 2 * t * ((5 - 2 * xc) * (xc + 1) - 4 * I * (2 * s * c) * d / 2), LOXODROMIC, GENS)
    assert zero(d**2 - 4 * (xc**2 - 1), LOXODROMIC, GENS)


def test_order_nine_is_the_discriminant_sign():
    disc_sign = 2 + 4 * x - 9 * x**2
    # -9 (x - r) (x - ORDER_WALL) with r < 0: on [0, 1] the sign is that of
    # ORDER_WALL - x
    r = (2 - sp.sqrt(22)) / 9
    assert sp.expand(disc_sign + 9 * (x - r) * (x - ORDER_WALL)) == 0
    assert r < 0 < ORDER_WALL < 1
    assert sp.cos(2 * sp.pi / 8) < ORDER_WALL < LO < sp.cos(2 * sp.pi / 9)


def test_elliptic_certificate():
    # on (LO, 1), which holds cos(2 pi/n) for every n >= 9
    # |h1|^2, |h2|^2 > 18: A - 18 > 0 and (A - 18)^2 - b^2 > 0 give A - 18 > |b|
    q = 16 * x**3 + 8 * x**2 - 16 * x + 1
    assert sp.expand((A - 18) ** 2 - B2 - 36 * q) == 0
    assert positive(A - 18, LO, 1) and positive(q, LO, 1)
    h1sq, h2sq = A - b, A + b
    c0, c2 = h2sq * (1 - h1sq / 18), h1sq * (1 - h2sq / 18)  # so c0 < 0, c2 < 0
    # c1 with hc = cos(beta/2), hc^2 = (1 + x)/2
    c1 = 24 * (2 * x**2 - 1) * (2 * x + 1) * hc
    roots = [b**2 - B2, hc**2 - (1 + x) / 2]
    disc = sp.reduced(sp.expand(c1**2 - 4 * c0 * c2), roots, b, hc, x)[1]
    product = 72 * (2 * x + 1) ** 2 * (x + 1)
    assert sp.expand(A**2 - B2 - product) == 0  # |h1|^2 |h2|^2 in x
    assert sp.expand(disc - sp.Rational(16, 9) * product * (1 - x**2) * (2 + 4 * x - 9 * x**2)) == 0
    # each factor has its sign on (LO, 1): disc < 0
    assert positive(product, LO, 1) and positive(1 - x**2, LO, 1)
    assert positive(-(2 + 4 * x - 9 * x**2), LO, 1)
    # c2 < 0 and disc < 0: P(k) = c2 (k + c1/(2 c2))^2 - disc/(4 c2) < 0 for
    # every real k, and the largest value over k >= 0 is at k = 0 or at the vertex
    k, c0_, c1_, c2_ = sp.symbols("k c0_ c1_ c2_", real=True)
    vertex = c2_ * (k + c1_ / (2 * c2_)) ** 2 - (c1_**2 - 4 * c0_ * c2_) / (4 * c2_)
    assert sp.simplify(vertex - (c0_ + c1_ * k + c2_ * k**2)) == 0
    # (9/4)/(1 - x)^2 > 4
    assert positive(9 - 16 * (1 - x) ** 2, LO, 1)


def test_loxodromic_certificate():
    cosh = [sp.chebyshevt(m, x) for m in range(5)]  # cosh(m l) = T_m(cosh l)
    chain = 9 * cosh[4] + 8 * cosh[1] - 8 * cosh[3] - 8 * cosh[2] - 1
    assert sp.expand(chain - 8 * (x - 1) * (9 * x**3 + 5 * x**2 - 6 * x - 2)) == 0
    assert positive(chain, 1)
    assert positive(cosh[4] + cosh[1] - cosh[3] - cosh[2], 1)
    assert positive(cosh[4] - 1, 1)


def test_fan_slice_circle_identities():
    # at alpha2 = pi/6 (c^2 = 3/4, s = 1/2), on the slice circle q(theta) =
    # (1, sqrt2 e^{i theta}, -1) with (cd, sd) = (cos theta, sin theta)
    cd, sd = sp.symbols("cd sd", real=True)
    fan, gens = [cd**2 + sd**2 - 1, s - sp.Rational(1, 2), c**2 - sp.Rational(3, 4)], (cd, sd, s, c)
    q = sp.Matrix([1, SQ2 * (cd + I * sd), -1])
    mu, mw, muw = (_sq(inner(w, q)) for w in (slice_algebra.P_U, slice_algebra.P_W, slice_algebra.UI_PW))
    # 6 sqrt3 = 12 c
    assert zero(mu - 2 * (1 + sd), fan, gens)
    assert zero(mw - (12 * c * cd + 2 * sd + 11), fan, gens)
    assert zero(muw - (-12 * c * cd + 2 * sd + 11), fan, gens)
    # so mu <= min(mw, muw) exactly when |cos theta| <= sqrt3/2 = c: the arc
    # [7 pi/6, 11 pi/6] around the focus theta = 3 pi/2, half-width pi/3
    assert zero((12 * c * cd + 9).subs(cd, -c), fan, gens)


SYMBOLIC_H = {
    side: sp.lambdify((c, s, d), [h1, h2], "numpy") for side, (h1, h2) in (("elliptic", H_ELLIPTIC), ("loxodromic", H_LOXODROMIC))
}


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 12, 50, 2809)] + [alpha2_for_length(v) for v in (0.25, 0.7, 1.0, 1.75)] + [0.5],
)
def test_symbolic_h_are_the_programs(alpha2):
    # the proof's h1, h2 and its x, evaluated at the program's delta, are the
    # program's Gram entries G[[p_U', p_U''], p_V] and the cos(beta) or
    # cosh(l) of its side
    ff = FaceFamily(alpha2)
    side = ff.side
    if side.kind is SideKind.ELLIPTIC:
        xv, dv, h = math.cos(side.beta), side.delta.imag, SYMBOLIC_H["elliptic"]
    else:
        xv, dv, h = math.cosh(side.length), side.delta.real, SYMBOLIC_H["loxodromic"]
    assert xv == pytest.approx((8 * math.cos(alpha2) ** 2 - 1) / 2, rel=1e-13, abs=0)
    want = np.array(h(math.cos(alpha2), math.sin(alpha2), dv), dtype=complex)
    got = face_gram(ff)[[P_U1, P_U2], P_V]
    assert np.abs(want - got).max() <= 1e-13 * np.abs(got).max()
