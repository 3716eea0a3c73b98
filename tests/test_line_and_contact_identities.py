"""TF's complex-line locus and GC's two contact tangencies, proved once over
every alpha2 in (0, pi/2).

`verify` reads neither at a parameter: both rest on identities of the
slice, proved here in exact arithmetic over c = cos(alpha2), s =
sin(alpha2) modulo c^2 + s^2 - 1 (`slice_algebra`).

- Complex line.  On torus 0 of `FaceFamily`, that of the lifts (p_U, p_W,
  U^-1 p_W) with rows qr, pr, qp, and for lpole = (s, -i sqrt2/2, -s):
  - <lpole, qr> = 0;
  - (x - iy) <lpole, pr> + (x + iy) <lpole, qp> = 0, with x = 2 sin 2alpha2
    = 4cs > 0 and y = 1 - 2 cos 2alpha2;
  - |<lpole, pr>|^2 = |<lpole, qp>|^2 = 2c^4 (8s^2 + 1) = 2t^2 (9 - 8t), t =
    c^2, positive on (0, 1).

  So the torus point V(sigma, delta) = qr - e^{-i sigma} B(delta), B(delta) =
  e^{-i delta} pr + e^{i delta} qp, has <lpole, V> = -e^{-i sigma} <lpole,
  B(delta)>.  It vanishes for every sigma exactly on the column e^{i delta}
  = +-(x + iy)/|x + iy|, which is delta = `family.delta0` mod pi, since x >
  0.  On the column delta0 + pi/2 its modulus is 2 |<lpole, pr>| > 0,
  whatever sigma is.
- GC contacts.  J_0^+ = B(p_U, p_V) touches J_1^- = B(p_U, U p_W) at U p_A
  and J_-2^- = B(p_U, U^-2 p_W) at U^-1 p_B (U fixes p_U):
  - <p_U, p_V> = <p_U, U p_W> = <p_U, U^-2 p_W> = -3/2 < 0, so the
    silhouette of each comes from the slice of pole p_U - q (eps = +1 in
    `oracles.silhouette_circles`); the three lifts have the norm N = <p_U,
    p_U> (tests/test_face_family_identities.py);
  - <p_V, U p_W> = <p_V, U^-2 p_W> = -(3/2)(8c^2 + 1);
  - each contact r lies on its translate's slice: <p_U, r> = <q_k, r>.  It
    lies on that of J_0^+ too (tests/test_face_family_identities.py).

  The line through [p_U] and [y], for y in p_U^perp, meets the slice of
  pole p_U - q at y + t p_U, t = <q, y> / (N - <q, p_U>).  That point is
  null exactly where H_q(y) = N |<q, y>|^2 + |N - <q, p_U>|^2 <y, y>
  vanishes.  So the silhouette of B(p_U, q) on the visual sphere P(p_U^perp)
  is the circle {H_q = 0}.  By the matrix-determinant lemma, det(H_q - lam
  H_r) over p_U^perp is det(<,>|p_U^perp) times the quadratic
  (b_q - lam b_r)^2 + (b_q - lam b_r)(P_qq - lam P_rr) - lam (P_qq P_rr -
  |P_qr|^2), with b_x = |N - <x, p_U>|^2 and P_xy = N <x, y> - <x, p_U>
  <p_U, y>, N times the Gram entries of the projections to p_U^perp.  For q
  = p_V and r = U p_W or U^-2 p_W its leading coefficient is 64c^6 (8c^2 -
  3), nonzero off the wall, and its discriminant is 0.  At the double root
  H_q - lam H_r is degenerate, so the two circles share at most one point,
  unless they are equal.  They are not equal: H_q(q_perp) H_r(r_perp) -
  H_q(r_perp) H_r(q_perp), which a proportional pair would make 0, is
  -24576 c^10 (4c^2 - 1)(8c^2 - 3)^2 / N^2.  It is nonzero wherever GC
  runs: off the wall, and at 4c^2 > 1, since order n >= 9 has 8c^2 = 2
  cos(2 pi/n) + 1 > 2.  So each pair of disks is tangent at its contact.

Every relation also fails when perturbed: by 10^-6 cs, with eps = -1, or
with 8c^2 + 2 for 8c^2 + 1 in <p_V, q_k>.  The last test ties the symbols
to the program's `delta0`, torus rows and the Gram table of its point table
(`oracles.face_gram`), and to the numeric
silhouettes of `oracles.face_silhouettes`, at a few parameters on each
side.
"""

import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import P_U, P_V, P_W, U_PA, U_PV, U_PW, UI_PB, UI_PW, alpha2_for_order, delta0
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

import slice_algebra as sa
from oracles import chart_multiplier, face_gram, face_silhouettes, face_torus, oriented_chart, point_table
from slice_algebra import I, SQ2, c, conj, inner, positive, s, zero

t, lam = sp.symbols("t lam", real=True)
SLICE, GENS = [s**2 + c**2 - 1], (s, c)


def _on_slice(expr):
    """expr reduced modulo c^2 + s^2 - 1: the same value on the slice, in
    fewer terms."""
    return sp.reduced(sp.expand(expr), SLICE, *GENS)[1]


# the complex line's pole, the first torus's rows qr, pr, qp (as in
# tests/test_tf_identities.py) and the column direction x + iy of delta0
LPOLE = sp.Matrix([s, -I * SQ2 / 2, -s])
QR, PR, QP = (sa.box(a, b).applyfunc(_on_slice) for a, b in ((sa.P_W, sa.UI_PW), (sa.P_U, sa.UI_PW), (sa.P_W, sa.P_U)))
X, Y = 4 * c * s, 1 - 2 * (c**2 - s**2)
L_QR, L_PR, L_QP = (_on_slice(inner(LPOLE, v)) for v in (QR, PR, QP))
MODULUS = 2 * c**4 * (8 * s**2 + 1)

# the translates J_1^- and J_-2^- as (second lift q_k, contact r)
CONTACTS = {
    "k_plus_1": ((sa.U * sa.P_W).applyfunc(_on_slice), sa.U_PA),
    "k_minus_2": ((sa.inv(sa.U) * sa.UI_PW).applyfunc(_on_slice), sa.UI_PB),
}
CROSS = -sp.Rational(3, 2) * (8 * c**2 + 1)  # <p_V, q_k>


def _contact(q, r, eps=1):
    """The expressions that vanish for the contact of J_0^+ with the
    translate B(p_U, q) at r: the three equal <p_U, x>, the equal <p_V, q>,
    and r on the slice of pole p_U - eps q."""
    return [
        inner(sa.P_U, sa.P_V) + sp.Rational(3, 2),
        inner(sa.P_U, q) + sp.Rational(3, 2),
        inner(sa.P_V, q) - CROSS,
        inner(sa.P_U - eps * q, r),
    ]


RELATIONS = {
    "complex_line": [L_QR, (X - I * Y) * L_PR + (X + I * Y) * L_QP, L_PR * conj(L_PR) - MODULUS, L_QP * conj(L_QP) - MODULUS],
    **{name: _contact(q, r) for name, (q, r) in CONTACTS.items()},
}


def _projected(q, r, h):
    """(b_q, b_r) and (P_qq, P_rr, P_qr) of the silhouette forms H_q, H_r on
    p_U^perp, from the Gram entries, with h = <q, r>."""
    n = _on_slice(inner(sa.P_U, sa.P_U))
    g_q, g_r = (_on_slice(inner(sa.P_U, x)) for x in (q, r))
    b = [(n - conj(g)) * (n - g) for g in (g_q, g_r)]
    p = [n * _on_slice(inner(x, x)) - g * conj(g) for x, g in ((q, g_q), (r, g_r))]
    return b, (*p, n * h - conj(g_q) * g_r)


def _pencil(q, r, h):
    """The coefficients (a2, a1, a0) of det(H_q - lam H_r) over p_U^perp,
    over the determinant of the form there, as a quadratic in lam."""
    (b_q, b_r), (pqq, prr, pqr) = _projected(q, r, h)
    a = b_q - lam * b_r
    return sp.Poly(sp.expand(a**2 + a * (pqq - lam * prr) - lam * (pqq * prr - pqr * conj(pqr))), lam).all_coeffs()


def _discriminant(q, r, h):
    a2, a1, a0 = _pencil(q, r, h)
    return sp.expand(a1**2 - 4 * a2 * a0)


@pytest.mark.parametrize("name", RELATIONS)
def test_relations_hold_on_the_slice(name):
    assert all(zero(e, SLICE, GENS) for e in RELATIONS[name])


@pytest.mark.parametrize("name", RELATIONS)
def test_each_perturbed_relation_fails(name):
    # a reduction that held whatever its input would prove nothing
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, SLICE, GENS) for e in RELATIONS[name])


@pytest.mark.parametrize("name", CONTACTS)
def test_the_other_slice_misses_the_contact(name):
    # <p_U + q_k, r> != 0: the contact lies on the slice of eps = +1 only
    assert not zero(_contact(*CONTACTS[name], eps=-1)[3], SLICE, GENS)


def test_the_complex_line_keeps_clear_of_the_other_columns():
    # 2t^2 (9 - 8t) > 0 for t = c^2 in (0, 1): |<lpole, pr>| > 0 on the whole
    # slice, so the locus is the column delta0 mod pi alone
    assert zero(MODULUS - 2 * c**4 * (9 - 8 * c**2), SLICE, GENS)
    assert positive(2 * t**2 * (9 - 8 * t), 0, 1)


@pytest.mark.parametrize("name", CONTACTS)
def test_each_contact_pair_of_disks_is_tangent(name):
    # the pencil of the two silhouette forms has a double root and a
    # nonzero leading coefficient: the circles meet in one point, the
    # contact; with 8c^2 + 2 for 8c^2 + 1 in <p_V, q_k> the root is simple
    q, r = CONTACTS[name]
    h = _on_slice(inner(sa.P_V, q))
    assert _on_slice(_pencil(sa.P_V, q, h)[0] - 64 * c**6 * (8 * c**2 - 3)) == 0
    assert _on_slice(_discriminant(sa.P_V, q, h)) == 0
    assert _on_slice(_discriminant(sa.P_V, q, h - sp.Rational(3, 2))) != 0


@pytest.mark.parametrize("name", CONTACTS)
def test_the_two_circles_of_each_contact_differ(name):
    # N H_x(y_perp) = |P_xy|^2 + b_x P_yy, so a proportional pair H_q = mu
    # H_r would make this cross difference 0
    q, _ = CONTACTS[name]
    (b_q, b_r), (pqq, prr, pqr) = _projected(sa.P_V, q, _on_slice(inner(sa.P_V, q)))
    abs2 = pqr * conj(pqr)
    cross = (pqq**2 + b_q * pqq) * (prr**2 + b_r * prr) - (abs2 + b_q * prr) * (abs2 + b_r * pqq)
    assert _on_slice(cross + 24576 * c**10 * (4 * c**2 - 1) * (8 * c**2 - 3) ** 2) == 0
    # 4c^2 - 1 > 0 where GC runs: 8c^2 = 2 cos(2 pi/n) + 1 > 2 for n >= 9
    assert 2 * math.cos(2 * math.pi / 9) + 1 > 2


SYMBOLIC = sp.lambdify((c, s), [sp.Matrix.hstack(QR, PR, QP).T, X, Y], "numpy")


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 2809, 10**4)] + [alpha2_for_length(v) for v in (0.25, 1.75)] + [0.5, math.pi / 6],
)
def test_symbolic_line_and_contacts_are_the_programs(alpha2):
    # the proof's rows, column direction and Gram entries, evaluated at
    # alpha2, are the program's first torus, delta0 and Gram table; the
    # silhouette forms vanish on the oracle's slice circles, and its disks
    # of J_0^+ and of the m^k-translate of J_0^- touch at the chart images
    # of U p_A (k = +1) and U^-1 p_B (k = -2)
    ff = FaceFamily(alpha2)
    co, si = math.cos(alpha2), math.sin(alpha2)
    rows, x, y = SYMBOLIC(co, si)
    torus = face_torus(ff)
    for want, got in zip(np.asarray(rows, dtype=complex), (torus.qr, torus.pr, torus.qp)):
        assert np.abs(want - got).max() <= 1e-13 * np.abs(got).max()
    assert delta0(alpha2) == pytest.approx(math.atan2(y, x), abs=1e-15)
    G, P = face_gram(ff), point_table(ff)
    scale = np.abs(G).max()
    assert np.abs(G[P_U, [P_V, U_PW, P_W]] + 1.5).max() <= 1e-13 * scale
    assert np.abs(G[[P_V, U_PV], [U_PW, UI_PW]] + 1.5 * (8 * co**2 + 1)).max() <= 1e-13 * scale
    # the oracle's slice circles are null points of the slices of pole p_U
    # - q, eps = +1, where H_q vanishes
    (plus, minus), (em, ep, rho) = face_silhouettes(ff)
    for i, q in enumerate((P_V, P_W)):
        z = em[i] + rho[i] * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 7))[:, None] * ep[i]
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        pole = P[P_U] - P[q]
        assert np.abs(ff.space.form(z, z)).max() <= 1e-12
        assert np.abs(ff.space.form(pole, z)).max() <= 1e-12 * np.linalg.norm(pole)
    m = chart_multiplier(ff)
    for k, contact in zip((1, -2), oriented_chart(ff).values(P[[U_PA, UI_PB]]).tolist()):
        center, radius = m**k * minus.center, abs(m) ** k * minus.radius
        d, r1 = abs(plus.center - center), plus.radius
        scale = max(r1, radius, 1.0)
        assert min(abs(d - (r1 + radius)), abs(d - abs(r1 - radius))) <= 1e-12 * scale
        assert abs(abs(contact - plus.center) - r1) <= 1e-12 * scale
        assert abs(abs(contact - center) - radius) <= 1e-12 * scale
