"""TF's algebraic identities in alpha2, proved once over the symbols c =
cos(alpha2) and s = sin(alpha2) modulo c^2 + s^2 - 1.

`verify.tf_check` decides only from what can fail at a parameter: the
torus exclusion and the bi-tangency (the tangency criterion and the tori's
unbalanced pairs are proved in tests/test_face_family_identities.py, the
complex-line locus on the column delta0 in
tests/test_line_and_contact_identities.py, and the vertices at the ends of
the column delta_v in tests/test_vertex_identities.py).  The facts below hold for
every alpha2, so they are proved here instead of being re-sampled at each
one:

- the real plane {(r, i sqrt2 t, 1)}: |<p_U, x>|^2 and |<p_W, x>|^2 in
  closed form, their difference 4 cos^2(alpha2) (2 t^2 - r), and the gap
  8 cos^2(alpha2) on the line {(r, i sqrt2, 0)} that the plane leaves out;
- the complex line {(mu - 1, 2 i sqrt2 sin(alpha2), mu + 1)}: the two
  squared moduli and the norm 2 (|mu|^2 - 4 cos^2(alpha2) + 3), so that
  its points with |<p_U, x>| = |<p_W, x>| have norm 24 sin^2(alpha2);
- the torus of J_0^- and J_-1^- (torus 0 of `FaceFamily`): C(delta) = <qr,
  B(delta)> = -12 cos^2(alpha2) (2 cos(2 alpha2 - delta) - cos delta),
  real, so that d<V, V>/d sigma factors as -12 sin(sigma) (2 cos(2 alpha2
  - delta) - cos delta) times 2 cos^2(alpha2).

The symbolic points are built (tests/slice_algebra.py) from the closed
forms of `family.rho_s` and `family.rho_t` at alpha1 = 0, and the torus rows
as `reference.box_rows` forms them, J^-1 conj(a x b); the last test ties them to the program's own
point table and torus at a few parameters.
"""

import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import P_U, P_W, UI_PW
from crlab.reference import face_points
from crlab.verify import FaceFamily

import slice_algebra
from oracles import face_torus
from slice_algebra import I, SQ2, box, c, conj, inner, s, zero

r, t, m1, m2, cd, sd = sp.symbols("r t m1 m2 cd sd", real=True)
# the Groebner basis of the two circles (c, s) and (cd, sd) = (cos delta,
# sin delta): they share no variable
CIRCLES = [c**2 + s**2 - 1, cd**2 + sd**2 - 1]
GENS = (c, s, cd, sd, r, t, m1, m2)


def _zero(expr) -> bool:
    """expr vanishes on both circles."""
    return zero(expr, CIRCLES, GENS)


def _points():
    """p_U, p_W, U^-1 p_W (U = S^-1 T) and the torus rows (qr, pr, qp) of
    the lifts (p_U, p_W, U^-1 p_W), over c and s."""
    p_U, p_W, ui_pw = slice_algebra.P_U, slice_algebra.P_W, slice_algebra.UI_PW
    rows = [box(p_W, ui_pw), box(p_U, ui_pw), box(p_W, p_U)]
    return p_U, p_W, ui_pw, [row.expand() for row in rows]


P_UVEC, P_WVEC, UI_PWVEC, (QR, PR, QP) = _points()


def test_real_plane_identities():
    x = sp.Matrix([r, I * SQ2 * t, 1])
    hu, hw = (inner(p, x) * conj(inner(p, x)) for p in (P_UVEC, P_WVEC))
    rs_term = 2 * (r - 1) * t * s
    assert _zero(hu - (r * r + t * t + 1 + 2 * r * (2 * c * c - 1) + rs_term))
    assert _zero(hw - ((8 * c * c + 1) * t * t + r * r + rs_term - 2 * r + 1))
    assert _zero(hw - hu - 4 * c * c * (2 * t * t - r))
    # the ideal line the plane leaves out never meets the locus
    y = sp.Matrix([r, I * SQ2, 0])
    gap = inner(P_WVEC, y) * conj(inner(P_WVEC, y)) - inner(P_UVEC, y) * conj(inner(P_UVEC, y))
    assert _zero(gap - 8 * c * c)


def test_complex_line_identities():
    mu = m1 + I * m2
    x = sp.Matrix([mu - 1, 2 * I * SQ2 * s, mu + 1])
    mu2 = m1 * m1 + m2 * m2
    hu, hw = (inner(p, x) * conj(inner(p, x)) for p in (P_UVEC, P_WVEC))
    assert _zero(hu - 4 * c * c * mu2)
    assert _zero(hw - 4 * (9 - 8 * c * c) * c * c)
    assert _zero(inner(x, x) - 2 * (mu2 - 4 * c * c + 3))
    # where |<p_U, x>| = |<p_W, x>|, mu2 = 9 - 8 c^2 and the norm is 24 s^2
    assert _zero(2 * ((9 - 8 * c * c) - 4 * c * c + 3) - 24 * s * s)


def test_dh_dsigma_factorization():
    # B(delta) = e^{-i delta} pr + e^{i delta} qp and <V, V> = A - 2 Re(e^{-i
    # sigma} C): a real C gives d<V, V>/d sigma = 2 C sin(sigma)
    B = (cd - I * sd) * PR + (cd + I * sd) * QP
    C = inner(QR, B)
    cos_2a_d = (c * c - s * s) * cd + 2 * c * s * sd  # cos(2 alpha2 - delta)
    assert _zero(C + 12 * c * c * (2 * cos_2a_d - cd))


# the proof's rows as one function of (c, s): p_U, p_W, U^-1 p_W, qr, pr, qp
ROWS = sp.lambdify((c, s), sp.Matrix.hstack(P_UVEC, P_WVEC, UI_PWVEC, QR, PR, QP).T, "numpy")


@pytest.mark.parametrize("alpha2", [0.02, 0.3, 0.7, math.pi / 6, 0.9119, 0.973277179451599, 1.2, 1.56])
def test_symbolic_rows_are_the_programs(alpha2):
    # the proof's points and torus rows, evaluated, are the rows of
    # face_points and of the program's first torus
    want = np.asarray(ROWS(math.cos(alpha2), math.sin(alpha2)), dtype=complex)
    P, torus = face_points(alpha2), face_torus(FaceFamily(alpha2))
    rows = [P[P_U], P[P_W], P[UI_PW], torus.qr, torus.pr, torus.qp]
    assert np.array_equal([torus.p, torus.q, torus.r], rows[:3])
    for w, got in zip(want, rows):
        assert np.abs(w - got).max() <= 1e-13 * np.abs(got).max()
