"""Incidence proved once over every alpha2 in (0, pi/2): the ideal vertices
on the bisectors around them, the action of U on the visual sphere of p_U,
and the signs behind the elliptic type.

`verify` measures none of this at a parameter: in the Parker-Will structure
it holds by construction, and it is proved here in exact arithmetic over c =
cos(alpha2), s = sin(alpha2) modulo c^2 + s^2 - 1 (`slice_algebra`), with d
= |delta|, delta^2 = (8c^2 - 3)(8c^2 + 1), as in tests/test_gc_identities.py:

- the ten products <z, q> of `oracles.VERTEX_PRODUCTS` have modulus 1: p_A
  against p_U, p_V, p_W, U^-1 p_V and U^-1 p_W, and p_B against p_U, p_V,
  p_W, U p_V and U^-1 p_W;
- the eight translation incidences of `oracles.TRANSLATION_INCIDENCES`,
  |<z, p_U>| = |<z, q>|: z = p_A, U p_A, p_B and U^-1 p_B on the bisector of
  p_U and p_V, and z = p_A, U p_A, p_B and U p_B on that of p_U and p_W;
- on the loxodromic side (delta = d real) `face_points`' rows e+ = p_U' and
  e- = p_U'' are eigenvectors, U e+- = lam+- e+-, lam+- = ((8c^2 - 1) +-
  d)/2, with lam+ lam- = 1.  As lam+ + lam- = 8c^2 - 1 = 2 cosh l and lam+ -
  lam- = d = 2 sinh l (`family.param_side`), lam+ = e^l.  As linear forms
  <e+-, U q> = lam-+ <e+-, q> for every q, so the chart of rows (p_U'',
  p_U'), psi(q) = <e-, q> / <e+, q>, has psi(U q) = (lam+/lam-) psi(q) =
  e^{2l} psi(q): the multiplier of `oracles.chart_multiplier`, by which
  tests/test_gc_disk_identities.py carries the disks of J_0^+- to J_k^+-.
  The elliptic side's multiplier e^{2 i beta} is proved there
  (`test_marks_and_multiplier`);
- the signs that `verify.surgery_slope_from_type(1, -1, n)` rests on: on
  the elliptic side (8c^2 < 3, delta = i d) U p_U = p_U with <p_U, p_U> =
  (8c^2 - 3)/2 < 0 < <e+, e+> = <e-, e-> = 4(3 - 8c^2)(8c^2 + 1).  So U
  fixes the interior point p_U and turns the positive directions e+- by
  its eigenvalues e^{+-i beta} over the eigenvalue 1 of p_U: the type (1/n,
  -1/n) at beta = 2 pi/n.

A sign on an interval is proved by Sturm's root count (`Poly.count_roots`)
and the sign at one point, in exact rational arithmetic.  Each relation is
also perturbed and seen to fail, so no reduction holds vacuously.  The
symbols are tied to `face_points`, its Gram diagonal, `param_side` and the
oracles' chart multiplier at orders 9 and 56 and at lengths 0.25, 1.0 and
1.75.
"""

import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import (
    P_A, P_B, P_U, P_U1, P_U2, P_V, P_W, U_PA, U_PB, U_PV, UI_PB, UI_PV, UI_PW, SideKind, alpha2_for_order,
)
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

import slice_algebra as sa
from oracles import TRANSLATION_INCIDENCES, VERTEX_PRODUCTS, chart_multiplier, face_gram, point_table
from slice_algebra import I, J, U, c, conj, eigenvector, inner, positive, s, zero

d = sp.symbols("d", real=True)
SLICE, GENS = [s**2 + c**2 - 1], (d, s, c)
# Groebner bases in the lex order of GENS: delta = d (loxodromic) or i d
# (elliptic), delta^2 = (8c^2 - 3)(8c^2 + 1)
LOXODROMIC = [d**2 - (8 * c**2 - 3) * (8 * c**2 + 1), s**2 + c**2 - 1]
ELLIPTIC = [d**2 + (8 * c**2 - 3) * (8 * c**2 + 1), s**2 + c**2 - 1]
t = sp.symbols("t", real=True)  # c^2

# the rows of `face_points` that the incidences read, as symbolic points
POINTS = {
    P_A: sa.P_A, P_B: sa.P_B, P_U: sa.P_U, P_V: sa.P_V, P_W: sa.P_W, U_PA: sa.U_PA, U_PB: sa.U_PB,
    UI_PB: sa.UI_PB, U_PV: sa.U_PV, UI_PV: sa.UI_PV, UI_PW: sa.UI_PW,
}
# the loxodromic eigenvalues lam+- of p_U' and p_U''
LAM = [((8 * c**2 - 1) + d) / 2, ((8 * c**2 - 1) - d) / 2]
# the elliptic Gram diagonal: <p_U, p_U> and <e+-, e+->
N_PU = (8 * c**2 - 3) / 2
N_EIGEN = 4 * (3 - 8 * c**2) * (8 * c**2 + 1)


def _abs2(z):
    return sp.expand(z * conj(z))


def _form(e):
    """The linear form q -> <e, q>, as the row e^H J."""
    return conj(e).T * J


def _loxodromic_relations():
    """U e+- - lam+- e+-, lam+ lam- - 1, and the forms <e+-, U q> - lam-+
    <e+-, q>, with e+- = eigenvector(+-d)."""
    out = [LAM[0] * LAM[1] - 1]
    for e, lam, other in ((eigenvector(d), LAM[0], LAM[1]), (eigenvector(-d), LAM[1], LAM[0])):
        out += list(U * e - lam * e) + list(_form(e) * U - other * _form(e))
    return out


def _elliptic_relations():
    """U p_U - p_U, <p_U, p_U> - N_PU and <e+-, e+-> - N_EIGEN, with e+- =
    eigenvector(+-i d)."""
    e1, e2 = eigenvector(I * d), eigenvector(-I * d)
    return list(U * sa.P_U - sa.P_U) + [inner(sa.P_U, sa.P_U) - N_PU, inner(e1, e1) - N_EIGEN, inner(e2, e2) - N_EIGEN]


RELATIONS = {
    "unit_moduli": ([_abs2(inner(POINTS[z], POINTS[q])) - 1 for z, q in VERTEX_PRODUCTS], SLICE),
    "translation_incidences": (
        [_abs2(inner(POINTS[z], sa.P_U)) - _abs2(inner(POINTS[z], POINTS[q])) for z, q in TRANSLATION_INCIDENCES],
        SLICE,
    ),
    "loxodromic_multiplier": (_loxodromic_relations(), LOXODROMIC),
    "elliptic_signs": (_elliptic_relations(), ELLIPTIC),
}


def test_incidence_lists_are_the_ones_measured():
    # ten unit moduli and eight translation incidences, each pair once
    assert len(VERTEX_PRODUCTS) == len(set(VERTEX_PRODUCTS)) == 10
    assert len(TRANSLATION_INCIDENCES) == len(set(TRANSLATION_INCIDENCES)) == 8


@pytest.mark.parametrize("name", RELATIONS)
def test_relations_hold_on_the_slice(name):
    exprs, relations = RELATIONS[name]
    assert all(zero(e, relations, GENS) for e in exprs)


@pytest.mark.parametrize("name", RELATIONS)
def test_each_perturbed_relation_fails(name):
    # a reduction that held whatever its input would prove nothing
    exprs, relations = RELATIONS[name]
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, relations, GENS) for e in exprs)


def test_wrong_claims_fail():
    # a vertex against the wrong translate, a translate on the wrong
    # bisector, the chart's rows swapped (which turns the multiplier into
    # e^{-2l}), a product of the eigenvalues other than 1 and a turned sign
    assert not zero(_abs2(inner(sa.P_A, sa.U_PV)) - 1, SLICE, GENS)
    assert not zero(_abs2(inner(sa.P_B, sa.UI_PV)) - 1, SLICE, GENS)
    assert not zero(_abs2(inner(sa.U_PB, sa.P_U)) - _abs2(inner(sa.U_PB, sa.P_V)), SLICE, GENS)
    assert not zero(_abs2(inner(sa.UI_PB, sa.P_U)) - _abs2(inner(sa.UI_PB, sa.P_W)), SLICE, GENS)
    e = eigenvector(d)
    assert not all(zero(v, LOXODROMIC, GENS) for v in _form(e) * U - LAM[0] * _form(e))
    assert not zero(LAM[0] * LAM[1] + 1, LOXODROMIC, GENS)
    assert not zero(inner(sa.P_U, sa.P_U) - (8 * c**2 + 3) / 2, ELLIPTIC, GENS)


def test_multiplier_is_e_to_the_2l():
    # lam+ + lam- = 2 cosh l and lam+ - lam- = 2 sinh l with cosh l = (8c^2 -
    # 1)/2 and sinh l = d/2 >= 0, so lam+ = e^l; then lam+ / lam- = lam+^2
    # (lam+ lam- = 1) is e^{2l}
    x = (8 * c**2 - 1) / 2
    assert sp.expand(LAM[0] + LAM[1] - 2 * x) == 0 and sp.expand(LAM[0] - LAM[1] - d) == 0
    assert zero(x**2 - (d / 2) ** 2 - 1, LOXODROMIC, GENS)
    assert zero(LAM[0] - LAM[0] ** 2 * LAM[1], LOXODROMIC, GENS)


def test_elliptic_signs_on_the_whole_side():
    # in t = c^2 on the elliptic side (0, 3/8): <p_U, p_U> = (8t - 3)/2 < 0 <
    # 4(3 - 8t)(8t + 1) = <e+-, e+->
    hi = sp.Rational(3, 8)
    assert positive(-N_PU.subs(c**2, t), 0, hi) and positive(sp.expand(N_EIGEN).subs(c**2, t), 0, hi)
    # on the loxodromic side the signs turn, and the eigenvectors are null
    assert not positive(-N_PU.subs(c**2, t), hi, 1)
    e1 = eigenvector(d)
    assert zero(inner(e1, e1), LOXODROMIC, GENS)


SYMBOLIC = sp.lambdify(
    (c, s, d),
    [sp.Matrix.hstack(*POINTS.values()), eigenvector(d), eigenvector(-d), eigenvector(I * d), eigenvector(-I * d)] + LAM,
    "numpy",
)


@pytest.mark.parametrize("alpha2", [alpha2_for_order(n) for n in (9, 56)] + [alpha2_for_length(v) for v in (0.25, 1.0, 1.75)])
def test_symbols_are_the_programs(alpha2):
    # the proof's points are the program's rows; its eigenvectors at the
    # delta of param_side are the rows p_U', p_U''; the elliptic Gram
    # diagonal has the proved values and signs; on the loxodromic side lam+-
    # are e^{+-l} of param_side and lam+^2 is the oracles' chart multiplier
    ff = FaceFamily(alpha2)
    side, co, si = ff.side, math.cos(alpha2), math.sin(alpha2)
    elliptic = side.kind is SideKind.ELLIPTIC
    dv = side.delta.imag if elliptic else side.delta.real
    points, lox_p, lox_m, ell_p, ell_m, lam_p, lam_m = SYMBOLIC(co, si, dv)
    P = point_table(ff)[list(POINTS)]
    assert np.abs(np.asarray(points, dtype=complex).T - P).max() <= 1e-13 * np.abs(P).max()
    eigen = [ell_p, ell_m] if elliptic else [lox_p, lox_m]
    want = np.array(eigen, dtype=complex)[..., 0]
    got = point_table(ff)[[P_U1, P_U2]]
    assert np.abs(want - got).max() <= 1e-13 * np.abs(got).max()
    G = face_gram(ff)
    if elliptic:
        n_pu, n_e = (8 * co**2 - 3) / 2, 4 * (3 - 8 * co**2) * (8 * co**2 + 1)
        assert G[P_U, P_U].real < 0 < G[P_U1, P_U1].real and 0 < G[P_U2, P_U2].real
        assert abs(G[P_U, P_U] - n_pu) <= 1e-13 * abs(n_pu)
        assert np.abs(G[[P_U1, P_U2], [P_U1, P_U2]] - n_e).max() <= 1e-12 * n_e
    else:
        assert lam_p == pytest.approx(math.exp(side.length), rel=1e-13, abs=0)
        assert lam_m == pytest.approx(math.exp(-side.length), rel=1e-13, abs=0)
        assert chart_multiplier(ff) == pytest.approx(lam_p**2, rel=1e-13, abs=0)
