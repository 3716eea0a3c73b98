"""The bi-tangency of TF's first face at p_A and p_B, proved once over every
alpha2 in (0, pi/2).

TF asks, besides the torus exclusion, that the two Giraud circles bounding
the first face be tangent at its ideal vertices p_A and p_B (Parker-Will
2017, after Schwartz's Spherical CR Geometry and Dehn Surgery).  The circles
are the ideal boundaries of tori 1 and 2 of `oracles.TORI`, of the lifts
(p_U, p_V, p_W) and (p_U, p_V, U^-1 p_W).  `verify` measures no tangent:
`verify._bitangency` reports the zero angles proved here, in exact
arithmetic over c = cos(alpha2), s = sin(alpha2) modulo c^2 + s^2 - 1
(`slice_algebra`), with E = e^{i alpha2}.

A torus of lifts (p, q, r) with rows qr, pr, qp (`oracles.GiraudTorus`) has the
points V(theta, phi) = qr - e^{-i theta} pr - e^{-i phi} qp, and its
Giraud circle is the null curve <V, V> = 0.

- Vertex angles.  At the vertex t the torus point is J-orthogonal to q -
  e^{i theta} p and r - e^{i phi} p, so e^{-i theta} = <q, t> / <p, t>
  and e^{-i phi} = <r, t> / <p, t>.  In closed form, (theta, phi) is

  | torus | p_A                            | p_B                            |
  |-------|--------------------------------|--------------------------------|
  | 1     | (pi - 2 alpha2, 0)             | (2 alpha2 - pi, 2 alpha2 - pi) |
  | 2     | (pi - 2 alpha2, pi - 2 alpha2) | (2 alpha2 - pi, 0)             |

  so e^{-i theta} and e^{-i phi} are -E^2, -conj(E)^2 or 1.  There V =
  lambda t: every 2x2 minor of (V, t) vanishes, and |lambda|^2 = 8c^4 (9 -
  8c^2) > 0.
- Smoothness.  The gradient (g_theta, g_phi), g = 2 Re <V, dV>, of <V, V>
  is c^3 s times (48, -24) and (-24, -24) on torus 1, (24, 24) and (-48,
  24) on torus 2, at p_A and p_B: never 0, so each circle is a smooth
  curve through each vertex.
- Velocities.  The circle's tangent in (theta, phi) is (-g_phi, g_theta),
  its velocity w = -g_phi dV/dtheta + g_theta dV/dphi.  The affine chart
  at the vertex divides by the coordinate j where the vertex is 1 (j = 0
  at p_A, 2 at p_B), and the chart velocity is (w_k V_j - V_k w_j) / V_j^2
  over the two other coordinates k, as `oracles.giraud_circle_tangents`
  forms it.  It is -+12 sqrt2 c^2 s i in the coordinate V_1 / V_j and 0
  in the other, torus 1 taking the minus sign: -+12 sqrt2 c^2 s (i, 0) at
  p_A and -+12 sqrt2 c^2 s (0, i) at p_B, nonzero at every alpha2 in (0,
  pi/2).
- Tangency.  At each vertex the chart velocities a (torus 1) and b (torus
  2) satisfy a0 b1 - a1 b0 = 0 and Im(a . conj(b)) = 0, so b is a real
  multiple of a, with a . conj(b) = -288 c^4 s^2 < 0: the two circles are
  tangent there, and run through the vertex in opposite senses.

The tangency relations are formed from the rows and the closed-form angles
alone, not from the closed-form velocities.  Each relation fails when
perturbed by 10^-6 cs, and the tangency fails when one circle's vertex
angle is moved by the rational rotation ROT.  The tie tests hold the
symbols to the box rows `oracles.torus_rows` of the program's point table
`oracles.point_table`, and the oracle
`giraud_circle_tangents` to the closed forms on 23 parameters.
"""

import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import P_A, P_B, alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import giraud_circle_tangents, point_table, torus_lifts, torus_rows, vertex_angles
import slice_algebra as sa
from slice_algebra import E, I, c, conj, inner, s, zero

SLICE, GENS = [s**2 + c**2 - 1], (s, c)


def _on_slice(expr):
    """expr reduced modulo c^2 + s^2 - 1."""
    return sp.reduced(sp.expand(expr), SLICE, *GENS)[1]


LIFTS = {1: (sa.P_U, sa.P_V, sa.P_W), 2: (sa.P_U, sa.P_V, sa.UI_PW)}
# (qr, pr, qp) of each torus, as `oracles.torus_rows` holds them
ROWS = {k: [sa.box(a, b).applyfunc(_on_slice) for a, b in ((q, r), (p, r), (q, p))] for k, (p, q, r) in LIFTS.items()}
UP, DOWN = -(E**2), -(conj(E) ** 2)  # e^{-i (pi - 2 alpha2)}, e^{-i (2 alpha2 - pi)}
# (vertex, component j where it is 1) and, per torus, (e^{-i theta},
# e^{-i phi}) and the gradient (g_theta, g_phi) / c^3 s there
VERTICES = {"pA": (sa.P_A, 0), "pB": (sa.P_B, 2)}
ANGLES = {(1, "pA"): (UP, 1), (1, "pB"): (DOWN, DOWN), (2, "pA"): (UP, UP), (2, "pB"): (DOWN, 1)}
GRADIENTS = {(1, "pA"): (48, -24), (1, "pB"): (-24, -24), (2, "pA"): (24, 24), (2, "pB"): (-48, 24)}
SPEED = 12 * sp.sqrt(2) * c**2 * s
# a rotation by about 2e-3 with rational coordinates, so that a moved angle
# keeps the arithmetic exact
ROT = (1 - sp.Rational(1, 10**6) + 2 * I * sp.Rational(1, 1000)) / (1 + sp.Rational(1, 10**6))


def _velocity(torus, vertex, rot=1):
    """The chart velocity of `torus`'s circle at `vertex` times V_j^2, as
    the two coordinates k != j of w_k V_j - V_k w_j, and V_j; with e^{-i
    theta} turned by rot."""
    (et, ep), (_, j) = ANGLES[torus, vertex], VERTICES[vertex]
    et *= rot
    qr, pr, qp = ROWS[torus]
    V = (qr - et * pr - ep * qp).applyfunc(_on_slice)
    d_theta, d_phi = I * et * pr, I * ep * qp
    g_theta, g_phi = (inner(V, d) + inner(d, V) for d in (d_theta, d_phi))
    w = (-g_phi * d_theta + g_theta * d_phi).applyfunc(_on_slice)
    return [_on_slice(w[k] * V[j] - V[k] * w[j]) for k in range(3) if k != j], V[j]


def _closed_velocity(torus, vertex):
    """The closed-form chart velocity: -+12 sqrt2 c^2 s i in the coordinate
    V_1 / V_j, 0 in the other."""
    j, sign = VERTICES[vertex][1], -1 if torus == 1 else 1
    return [sign * I * SPEED if k == 1 else sp.S(0) for k in range(3) if k != j]


def _relations(torus, vertex):
    """What vanishes for `torus` at `vertex`: the angle products, the 2x2
    minors of (V, t) and |V_j|^2 - 8c^4 (9 - 8c^2), the gradient less its
    closed form, and the chart velocity less its closed form, times
    V_j^2."""
    p, q, r = LIFTS[torus]
    (t, j), (et, ep) = VERTICES[vertex], ANGLES[torus, vertex]
    gp = inner(p, t)
    angles = [et * gp - inner(q, t), ep * gp - inner(r, t)]
    qr, pr, qp = ROWS[torus]
    V = qr - et * pr - ep * qp
    minors = [V[a] * t[b] - V[b] * t[a] for a, b in ((0, 1), (0, 2), (1, 2))]
    norm = V[j] * conj(V[j]) - 8 * c**4 * (9 - 8 * c**2)
    gt, gf = GRADIENTS[torus, vertex]
    g = [inner(V, d) + inner(d, V) for d in (I * et * pr, I * ep * qp)]
    grad = [g[0] - gt * c**3 * s, g[1] - gf * c**3 * s]
    velocity, vj = _velocity(torus, vertex)
    chart = [x - y * vj**2 for x, y in zip(velocity, _closed_velocity(torus, vertex))]
    return {"angles": angles, "vertex": minors + [norm], "gradient": grad, "velocity": chart}


def _tangency(vertex, rot=1):
    """a0 b1 - a1 b0 and Im(a . conj(b)) of the chart velocities a of torus
    1 and b of torus 2 at `vertex`, each times a positive real or nonzero
    complex factor: from the numerators A and B of `_velocity`, a0 b1 - a1
    b0 = (A0 B1 - A1 B0) / (V_j V'_j)^2 and a . conj(b) = A . conj(B)
    conj(V_j)^2 V'_j^2 / |V_j V'_j|^4.  rot turns torus 2's e^{-i theta}."""
    (a, vj), (b, wj) = _velocity(1, vertex), _velocity(2, vertex, rot)
    dot = sp.expand((a[0] * conj(b[0]) + a[1] * conj(b[1])) * conj(vj) ** 2 * wj**2)
    return [a[0] * b[1] - a[1] * b[0], (dot - conj(dot)) / (2 * I)]


CASES = [(t, v) for t in (1, 2) for v in VERTICES]
KINDS = ("angles", "vertex", "gradient", "velocity")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("torus, vertex", CASES)
def test_relations_hold_on_the_slice(torus, vertex, kind):
    assert all(zero(e, SLICE, GENS) for e in _relations(torus, vertex)[kind])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("torus, vertex", CASES)
def test_each_perturbed_relation_fails(torus, vertex, kind):
    # a reduction that held whatever its input would prove nothing
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, SLICE, GENS) for e in _relations(torus, vertex)[kind])


@pytest.mark.parametrize("vertex", VERTICES)
def test_the_circles_are_tangent_at_each_vertex(vertex):
    assert all(zero(e, SLICE, GENS) for e in _tangency(vertex))


@pytest.mark.parametrize("vertex", VERTICES)
def test_a_perturbed_tangency_fails(vertex):
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, SLICE, GENS) for e in _tangency(vertex))


@pytest.mark.parametrize("vertex", VERTICES)
def test_a_moved_vertex_angle_breaks_the_tangency(vertex):
    # torus 2's e^{-i theta} turned by ROT: its point leaves the vertex, and
    # its velocity is no longer a real multiple of torus 1's
    assert not all(zero(e, SLICE, GENS) for e in _tangency(vertex, ROT))


def test_the_velocities_and_gradients_are_nonzero():
    # |a|^2 = 288 c^4 s^2 and |b|^2 alike, and a . conj(b) = -288 c^4 s^2:
    # positive, and negative, at each alpha2 in (0, pi/2) where c, s > 0;
    # every gradient is a nonzero integer times c^3 s
    for vertex in VERTICES:
        a, b = (_closed_velocity(t, vertex) for t in (1, 2))
        for x, y, want in ((a, a, 288), (b, b, 288), (a, b, -288)):
            assert sp.expand(sum(u * conj(v) for u, v in zip(x, y)) - want * c**4 * s**2) == 0
    assert all(g != 0 for grad in GRADIENTS.values() for g in grad)


# ---------------------------------------------------------------------------
# ties to the program


SYMBOLIC = sp.lambdify((c, s), [sp.Matrix.hstack(*ROWS[t]).T for t in (1, 2)], "numpy")
TIE_PARAMETERS = (
    [alpha2_for_order(n) for n in range(9, 2810, 400)]
    + [alpha2_for_length(v) for v in (0.25, 1.0, 1.75)]
    + [float(a) for a in np.linspace(0.02, 1.56, 12)]
)


@pytest.mark.parametrize("alpha2", TIE_PARAMETERS)
def test_the_oracle_reads_the_closed_forms(alpha2):
    # the proof's rows are tori 1 and 2 of oracles.TORI, on the program's
    # point table; vertex_angles reads the
    # closed-form angles, the torus points land on p_A and p_B, the unit
    # chart velocities of the two circles are opposite, and each velocity
    # is its closed form, to 1e-12
    ff = FaceFamily(alpha2)
    lifts, tori = torus_lifts(ff)[1:], torus_rows(ff)[1:]
    co, si = math.cos(alpha2), math.sin(alpha2)
    for want, rows in zip(SYMBOLIC(co, si), tori):
        assert np.abs(np.asarray(want, dtype=complex) - rows).max() <= 1e-13 * np.abs(rows).max()
    targets = point_table(ff)[[P_A, P_B], None]
    up, down = math.pi - 2.0 * alpha2, 2.0 * alpha2 - math.pi
    angles = vertex_angles(lifts, targets, ff.space)
    want = np.array([[[up, 0.0], [up, up]], [[down, down], [down, 0.0]]])
    assert np.abs(np.remainder(angles - want + math.pi, 2.0 * math.pi) - math.pi).max() <= 1e-12
    w, _, dist = giraud_circle_tangents(lifts, tori, targets, ff.space)
    assert dist.max() <= 1e-12
    r = np.concatenate([w.real, w.imag], axis=-1)
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    assert np.abs(r[:, 0] + r[:, 1]).max() <= 1e-12
    speed = 12.0 * math.sqrt(2.0) * co * co * si
    closed = np.array([[[-1j, 0.0], [1j, 0.0]], [[0.0, -1j], [0.0, 1j]]]) * speed
    assert np.abs(w - closed).max() <= 1e-12 * speed
