"""The vertices of TF's and LC's exclusion passes, proved once over every
alpha2 in (0, pi/2).

`verify` measures no vertex, and its margin `family.exclusion_margin` is
taken about the vertex column: where the vertices sit on the torus of TF's
pass `oracles.passes` (sampled by `oracles.torus_pass` about the
column `oracles.delta_v`) and on that of LC's former pass (`oracles.plus_pass`), which the slice's
involution carries onto it (tests/test_lc_identities.py), is proved here,
in exact arithmetic over c = cos(alpha2), s = sin(alpha2) modulo
c^2 + s^2 - 1 (`slice_algebra`).

A torus of lifts (p, q, r) with rows qr, pr, qp (`oracles.GiraudTorus`) has the
points V(theta, phi) = qr - e^{-i theta} pr - e^{-i phi} qp, and with
theta = sigma + delta, phi = sigma - delta, V = qr - e^{-i sigma} B(delta),
B(delta) = e^{-i delta} pr + e^{i delta} qp.  On TF's torus,
of (p_U, p_W, U^-1 p_W), and on the plus torus, of (p_U, p_V, U p_V), with
E = e^{i alpha2}:

- on the column delta_v = alpha2 - pi/2, where e^{-i delta_v} = i conj(E),
  A = <qr, qr> + <B, B> = 72 c^2 s^2 and C = <qr, B> = 36 c^2 s, so that
  <V, V> = A - 2 Re(e^{-i sigma} C) = 72 c^2 s (s - cos sigma).  C is real
  and positive: the ball arc is |sigma| <= pi/2 - alpha2, nonempty and not
  the whole column, and its two ends sigma = +-(pi/2 - alpha2) are the
  column's only null points;
- at sigma = pi/2 - alpha2, which is (theta, phi) = (0, pi - 2 alpha2),
  V = lambda p_A on torus 0 and lambda U p_A on torus 1; at sigma =
  -(pi/2 - alpha2), which is (2 alpha2 - pi, 0), V = lambda p_B on both.
  Every 2x2 minor of (V, vertex) vanishes, each vertex is null, and
  |lambda|^2 = 72 c^4 > 0.

So each vertex is an end of the ball arc of the column delta_v, which
`oracles.delta_v` gives as pi/2 + alpha2, the same column mod pi (B(delta +
pi) = -B(delta) moves sigma by pi).  Each relation fails when perturbed: by
10^-6 cs, or with a vertex angle, sigma or delta_v moved by the rational
rotation ROT.  The last test ties the symbols to `vertex_angles`,
`oracles.delta_v`, the torus rows of `oracles.passes` and `oracles.plus_pass`,
and their ball arcs.
"""

import functools
import math

import numpy as np
import pytest
import sympy as sp

from crlab.core import siegel_model
from crlab.family import P_A, P_B, P_U, P_V, U_PA, U_PV, P_W, UI_PW, alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import column_minima, delta_v, passes, plus_pass, point_table, vertex_angles
import slice_algebra as sa
from slice_algebra import E, I, c, conj, inner, s, zero

SLICE, GENS = [s**2 + c**2 - 1], (s, c)


def _on_slice(expr):
    """expr reduced modulo c^2 + s^2 - 1."""
    return sp.reduced(sp.expand(expr), SLICE, *GENS)[1]


def _rows(p, q, r):
    """(qr, pr, qp) of the lifts (p, q, r), as `oracles.passes` holds them."""
    return [sa.box(a, b).applyfunc(_on_slice) for a, b in ((q, r), (p, r), (q, p))]


TORI = {"minus": _rows(sa.P_U, sa.P_W, sa.UI_PW), "plus": _rows(sa.P_U, sa.P_V, sa.U_PV)}
# e^{-i delta_v}, and e^{-i sigma} at the two arc ends sigma = +-(pi/2 - alpha2)
ZD = I * conj(E)
Z_UP, Z_DOWN = -I * E, I * conj(E)
# a rotation by about 2e-3 with rational coordinates, so that a moved angle
# keeps the arithmetic exact
ROT = (1 - sp.Rational(1, 10**6) + 2 * I * sp.Rational(1, 1000)) / (1 + sp.Rational(1, 10**6))
# (torus, vertex, e^{-i sigma}, component of the vertex that is 1)
VERTICES = {
    "minus_pA": ("minus", sa.P_A, Z_UP, 0),
    "minus_pB": ("minus", sa.P_B, Z_DOWN, 2),
    "plus_pB": ("plus", sa.P_B, Z_DOWN, 2),
    "plus_UpA": ("plus", sa.U_PA.applyfunc(_on_slice), Z_UP, 0),
}


def _point(rows, e_theta, e_phi):
    """The torus point qr - e^{-i theta} pr - e^{-i phi} qp."""
    qr, pr, qp = rows
    return qr - e_theta * pr - e_phi * qp


@functools.cache
def _vertex_relations(name, rot_theta=1, rot_phi=1):
    """The expressions that vanish for the vertex `name`: the 2x2 minors of
    (V, vertex) at its (sigma, delta_v), with e^{-i theta} and e^{-i phi}
    turned by rot_theta and rot_phi; its norm; and |lambda|^2 - 72 c^4."""
    torus, v, zs, k = VERTICES[name]
    V = _point(TORI[torus], zs * ZD * rot_theta, zs * conj(ZD) * rot_phi)
    minors = [V[i] * v[j] - V[j] * v[i] for i, j in ((0, 1), (0, 2), (1, 2))]
    return minors + [inner(v, v), V[k] * conj(V[k]) - 72 * c**4]


def _column_terms(torus, zd=ZD):
    """A - 72 c^2 s^2 and C - 36 c^2 s on the column of e^{-i delta} = zd."""
    qr, pr, qp = TORI[torus]
    B = zd * pr + conj(zd) * qp
    return [inner(qr, qr) + inner(B, B) - 72 * c**2 * s**2, inner(qr, B) - 36 * c**2 * s]


@pytest.mark.parametrize("name", VERTICES)
def test_each_vertex_is_its_torus_point(name):
    assert all(zero(e, SLICE, GENS) for e in _vertex_relations(name))


@pytest.mark.parametrize("torus", TORI)
def test_the_vertex_column_ball_arc(torus):
    # <V, V> = 72 c^2 s (s - cos sigma) on the column delta_v: its null
    # points are sigma = +-(pi/2 - alpha2), the two vertices
    assert all(zero(e, SLICE, GENS) for e in _column_terms(torus))


def test_the_arc_ends_are_the_vertex_angles():
    # (theta, phi) = (sigma + delta_v, sigma - delta_v): e^{-i theta} and
    # e^{-i phi} are (1, -E^2) at the upper end, (0, pi - 2 alpha2), and
    # (-conj(E)^2, 1) at the lower, (2 alpha2 - pi, 0)
    for zs, want in ((Z_UP, (1, -(E**2))), (Z_DOWN, (-conj(E) ** 2, 1))):
        assert all(zero(zs * d - w, SLICE, GENS) for d, w in zip((ZD, conj(ZD)), want))


@pytest.mark.parametrize("name", VERTICES)
def test_each_perturbed_relation_fails(name):
    # a reduction that held whatever its input would prove nothing
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, SLICE, GENS) for e in _vertex_relations(name))


@pytest.mark.parametrize("name", VERTICES)
@pytest.mark.parametrize("moved", ["theta", "phi", "sigma", "delta_v"])
def test_a_moved_angle_leaves_the_vertex(name, moved):
    # theta alone, phi alone, sigma (both alike) or delta_v (both opposite)
    # turned by ROT: some minor of (V, vertex) is no longer 0
    rot = {"theta": (ROT, 1), "phi": (1, ROT), "sigma": (ROT, ROT), "delta_v": (ROT, conj(ROT))}[moved]
    minors = _vertex_relations(name, *rot)[:3]
    assert not all(zero(m, SLICE, GENS) for m in minors)


@pytest.mark.parametrize("torus", TORI)
def test_a_moved_column_has_other_terms(torus):
    assert not any(zero(e, SLICE, GENS) for e in _column_terms(torus, ZD * ROT))


SYMBOLIC = sp.lambdify((c, s), [sp.Matrix.hstack(*TORI[t]).T for t in TORI], "numpy")


@pytest.mark.parametrize(
    "alpha2",
    [1e-12, 1e-6, 0.3, math.pi / 6, alpha2_for_order(9), alpha2_for_order(2809), alpha2_for_length(1.0), 1.2, 1.5],
)
def test_symbolic_vertices_are_the_programs(alpha2):
    # the proof's rows are those of TF's exclusion torus and of the plus
    # torus; vertex_angles reads the closed-form angles on all four (torus,
    # vertex) pairs, and oracles.delta_v is their column mod pi
    ff = FaceFamily(alpha2)
    co, si = math.cos(alpha2), math.sin(alpha2)
    P = point_table(ff)
    R = np.stack([passes(ff), plus_pass(ff)])
    for want, rows in zip(SYMBOLIC(co, si), R[:, 2:]):
        for w, got in zip(np.asarray(want, dtype=complex), rows):
            assert np.abs(w - got).max() <= 1e-13 * np.abs(got).max()
    up, down = (0.0, math.pi - 2.0 * alpha2), (2.0 * alpha2 - math.pi, 0.0)
    lifts = P[[[P_U, P_W, UI_PW], [P_U, P_V, U_PV]]]
    angles = vertex_angles(lifts[[0, 0, 1, 1]], P[[P_A, P_B, P_B, U_PA]], siegel_model())
    dv = delta_v(alpha2)
    for (th, ph), want in zip(angles, (up, down, down, up)):
        assert max(abs(math.remainder(x - w, 2.0 * math.pi)) for x, w in zip((th, ph), want)) <= 1e-12
        assert abs(math.remainder((th - ph) / 2.0 - dv, math.pi)) <= 1e-12
    # the oracle's ball arc on the column delta_v = pi/2 + alpha2 is mid =
    # arg(-36 c^2 s) = pi, half = pi/2 - alpha2: its ends are the vertices.
    # C is of order s against rows of order 1, so its rounding in angle
    # grows like 1/s as alpha2 -> 0
    _, mid, half = column_minima(R, [dv], siegel_model())
    assert np.abs(np.abs(mid) - math.pi).max() <= 1e-14 / si
    assert np.abs(half - (math.pi / 2.0 - alpha2)).max() <= 1e-14 / si
