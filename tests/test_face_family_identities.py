"""FaceFamily's preconditions, proved once over every alpha2 in (0, pi/2).

`verify.FaceFamily` forms TF's pass on its first Giraud torus, the
bi-tangency rests on the other two (tests/oracles.py's TORI), and GC reads
its two contacts, without running the kernels `bisector_kinds`,
`pair_kinds` and `tangencies` of tests/oracles.py at a parameter: what
they would decide
there rests on identities of the slice, proved here in exact arithmetic
over c = cos(alpha2), s = sin(alpha2) modulo c^2 + s^2 - 1
(`slice_algebra`):

- <p_U, p_V> = -3/2 and <p_U, p_U> = (8c^2 - 3)/2: <p_U, p_V> is real and
  nonzero, and p_U is null exactly on the unipotent wall 8c^2 = 3, which
  `family.param_side` alone decides.
- S and U are in U(2,1) (S^H J S = J and U^H J U = J), so the second lifts
  p_V = S p_U, p_W = S p_V and U^-1 p_W of the three bisectors of p_U
  (`oracles.BISECTORS`) have the norm of p_U: the equal norms
  `bisector_kinds` required.
- For r = U p_A and r = U^-1 p_B: <r, r> = 0 and <p_U, r> = <p_V, r>, the
  sign eps = +1 of the tangency criterion, while <p_V, p_U> - <p_U, p_U> =
  -4c^2 != 0.  So the line through [p_U] and [r] meets the spinal surface of
  (p_U, p_V) at [r] alone at every alpha2 in (0, pi/2), the wall included:
  GC's two contacts are tangencies.
- A focus f = p_U box q has <f, p_U> = 0 and <f, q'> = det(p_U, q, q'), so
  the membership |<f, p_U>| = |<f, q'>| of a focus in the other extor, which
  `pair_kinds` tests, reads det(p_U, q, q') = 0, and two foci are
  projectively equal only where that determinant vanishes too.
  |det(p_U, q_i, q_j)|^2 is 72c^4 for the torus (J_0^-, J_-1^-), and 8c^4
  (9 - 8c^2) for (J_0^+, J_0^-) and (J_0^+, J_-1^-).  Both
  are positive for t = c^2 in (0, 1), so every torus pair is unbalanced,
  never confocal, on all of (0, pi/2); both tend to 0 only at pi/2.

A sign on an interval is proved by Sturm's root count (`Poly.count_roots`)
and the sign at one point, in exact rational arithmetic.  Each relation is
also perturbed and seen to fail, among them the other sign eps = -1 and the
determinant 72c^4 - c^5.  The last test ties the symbolic products,
contacts and determinants to the program's point table and the box rows
of the three tori (`oracles.torus_rows`, whose torus 0 is the program's
`oracles.passes`), and their Gram table (`oracles.face_gram`), at a few
parameters on each side.
"""

import functools
import math

import numpy as np
import pytest
import sympy as sp

from crlab.family import P_U, P_V, U_PA, UI_PB, alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import BISECTORS, TORI, face_gram, passes, point_table, torus_rows
import slice_algebra as sa
from slice_algebra import J, c, conj, inner, positive, s, zero

t = sp.symbols("t", real=True)  # c^2
SLICE, GENS = [s**2 + c**2 - 1], (s, c)


def _on_slice(v):
    """v with each coordinate reduced modulo c^2 + s^2 - 1: the same vector
    on the slice, in fewer terms."""
    return v.applyfunc(lambda e: sp.reduced(sp.expand(e), SLICE, *GENS)[1])


# the symbolic second lifts, in the order of oracles.BISECTORS
SECONDS = [_on_slice(q) for q in (sa.P_V, sa.P_W, sa.UI_PW)]
CONTACTS = {"U_pA": sa.U_PA, "Ui_pB": sa.UI_PB}
# |det(p_U, q_i, q_j)|^2 for the pairs (i, j) of oracles.TORI
DETERMINANTS = [72 * c**4, 8 * c**4 * (9 - 8 * c**2), 8 * c**4 * (9 - 8 * c**2)]


@functools.cache
def _det(i, j):
    return sp.expand(sp.Matrix.hstack(sa.P_U, SECONDS[i], SECONDS[j]).det())


def _contact(r, eps=1):
    """The expressions that vanish for a tangency of (p_U, p_V) at r with
    sign eps: r is null and <p_U, r> = eps <p_V, r>; and <p_V, p_U> - eps
    <p_U, p_U> + 4c^2, whose closed form -4c^2 is nonzero on the slice."""
    pu, pv = sa.P_U, sa.P_V
    return [inner(r, r), inner(pu, r) - eps * inner(pv, r), inner(pv, pu) - eps * inner(pu, pu) + 4 * c**2]


def _foci():
    """<f_j, p_U> for the foci f_j = p_U box q_j, and <f_j, q_i> - det(p_U,
    q_j, q_i) for the torus pairs (i, j)."""
    f = [sa.box(sa.P_U, q) for q in SECONDS]
    return [inner(x, sa.P_U) for x in f] + [inner(f[j], SECONDS[i]) + _det(i, j) for i, j in TORI]


def _unitary():
    """The entries of S^H J S - J and U^H J U - J, and <q, q> - <p_U, p_U>
    for the three second lifts."""
    entries = [e for M in (sa.S, sa.U) for e in conj(M).T * J * M - J]
    return entries + [inner(q, q) - inner(sa.P_U, sa.P_U) for q in SECONDS]


RELATIONS = {
    "gram": [inner(sa.P_U, sa.P_V) + sp.Rational(3, 2), inner(sa.P_U, sa.P_U) - (8 * c**2 - 3) / 2],
    "unitary": _unitary(),
    **{f"tangency_{name}": _contact(r) for name, r in CONTACTS.items()},
    "foci": _foci(),
    "determinants": [
        sp.expand(_det(i, j) * conj(_det(i, j))) - d for (i, j), d in zip(TORI, DETERMINANTS)
    ],
}


@pytest.mark.parametrize("name", RELATIONS)
def test_relations_hold_on_the_slice(name):
    assert all(zero(e, SLICE, GENS) for e in RELATIONS[name])


@pytest.mark.parametrize("name", RELATIONS)
def test_each_perturbed_relation_fails(name):
    # a reduction that held whatever its input would prove nothing
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, SLICE, GENS) for e in RELATIONS[name])


@pytest.mark.parametrize("name", CONTACTS)
def test_the_other_sign_is_no_contact(name):
    # <p_U, r> = -<p_V, r> fails: the tangency's sign is +1
    assert not zero(_contact(CONTACTS[name], eps=-1)[1], SLICE, GENS)


def test_a_perturbed_determinant_fails():
    (i, j), d = TORI[0], DETERMINANTS[0]
    assert not zero(sp.expand(_det(i, j) * conj(_det(i, j))) - (d - c**5), SLICE, GENS)


def test_contacts_and_pairs_hold_on_the_whole_slice():
    # in t = c^2 on (0, 1): <p_V, p_U> - <p_U, p_U> = -4t != 0, and both
    # squared determinants, 72t^2 and 8t^2 (9 - 8t), are positive; the
    # latter tends to 0 only at t = 0, alpha2 = pi/2
    assert positive(4 * t, 0, 1)
    for d in sorted(set(DETERMINANTS), key=str):
        assert positive(sp.expand(d).subs(c**2, t), 0, 1)


SYMBOLIC = sp.lambdify((c, s), [sp.Matrix.hstack(*CONTACTS.values())], "numpy")


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 2809, 10**4)] + [alpha2_for_length(v) for v in (0.25, 1.75)] + [0.5, math.pi / 6],
)
def test_symbolic_products_are_the_programs(alpha2):
    # the proof's <p_U, p_V>, <p_U, p_U>, contacts and determinants,
    # evaluated at alpha2, are the program's Gram table, point table rows U
    # p_A and U^-1 p_B, and the products of each torus's box row p_U box r
    # with its lift q
    ff = FaceFamily(alpha2)
    co, si = math.cos(alpha2), math.sin(alpha2)
    (contacts,) = (np.array(m, dtype=complex).T for m in SYMBOLIC(co, si))
    G, P, rows = face_gram(ff), point_table(ff), [U_PA, UI_PB]
    scale = np.abs(G).max()
    assert abs(G[P_U, P_V] + 1.5) <= 1e-13 * scale
    assert abs(G[P_U, P_U] - (8 * co**2 - 3) / 2) <= 1e-13 * scale
    assert np.abs(G[BISECTORS, BISECTORS] - G[P_U, P_U]).max() <= 1e-13 * scale
    assert np.abs(contacts - P[rows]).max() <= 1e-13 * np.abs(P[rows]).max()
    assert np.abs(G[rows, rows]).max() <= 1e-13 * scale
    assert np.abs(G[P_U, rows] - G[P_V, rows]).max() <= 1e-13 * scale
    rows = torus_rows(ff)
    assert rows[0].tobytes() == passes(ff)[2:].tobytes()
    foci = rows[:, 1:]
    assert np.abs(ff.space.form(foci, P[P_U])).max() <= 1e-13 * np.abs(foci).max() * np.abs(P[P_U]).max()
    for (i, _), d, pr in zip(TORI, DETERMINANTS, rows[:, 1]):
        want = float(d.subs(c, co))
        got = abs(ff.space.form(pr, P[BISECTORS[i]])) ** 2
        assert got == pytest.approx(want, rel=1e-12, abs=0)
