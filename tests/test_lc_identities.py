"""LC's Giraud disks and the slice's involution, proved once over every
alpha2 in (0, pi/2).

`verify.lc_check` decides only from what can fail at a parameter, TF's
torus-exclusion pass; the incidences and the chart action are proved in
tests/test_incidence_identities.py, and no check samples the involution.
What LC no longer samples is proved here, in exact arithmetic over c =
cos(alpha2), s = sin(alpha2) (`slice_algebra`):

- Both face-boundary intersections, B(p_U, p_V) /\\ B(p_U, p_W) and
  B(p_U, U p_V) /\\ B(p_U, p_W), are the intersections of order-3 symmetric
  triples (p, q, r): the Gram block of (p box q, q box r, r box p) is
  circulant, with the common mixed product k = <p box q, q box r> = -6c^2
  and the common squared norm l = <p box q, p box q> = u k, u = (2/3)(4c^2 -
  3).  So k is real negative for c > 0, 2/3 - u = (8/3) s^2 > 0 for s > 0,
  and the trichotomy (`oracles.symmetric_intersection_type`) reads DISK on the whole
  open interval.  The hypothesis lemma's sign pattern l - k = 2c^2 (9 -
  8c^2) > 0 and l + 2k = -16c^4 < 0 holds too.
- The involution I of `slice_algebra.INVOLUTION` is in U(2,1) (I^H J I =
  J) with det I = -1, I^2 = 1 and I U I = U^-1; it fixes p_U and swaps p_V
  with p_W.  So I U^k = U^-k I, and I carries U^k p_V onto U^-k p_W for
  every k: the bisector families J_k^+ and J_-k^- are swapped.
- For any a, b, Ia box Ib = conj(det I) I (a box b) = -I (a box b).  So I
  maps each box row (qr, pr, qp) of the torus of J_0^+ and J_1^+, lifts
  (p_U, p_V, U p_V), to minus the matching row of the torus of J_0^- and
  J_-1^-, lifts (p_U, p_W, U^-1 p_W), and LC's former pass on the first
  (constraint p_W) onto TF's pass on the second (constraint p_V), as row
  arrays (p_U, neg, qr, pr, qp) with SIGNS: at every (sigma, delta) the
  torus points obey V_minus = -I V_plus.  As I preserves the form and
  carries (p_U, p_W) onto (p_U, p_V), both passes have the same <V, V>,
  hence the same ball arcs, and the same E = |<V, p_U>|^2 - |<V, neg>|^2;
  only the Euclidean |V|^2 that `oracles.column_minima` divides by
  differs.  So the plus pass fails exactly where TF's does, and its
  vertices follow TF's: I p_A = U p_A and I p_B = p_B.

A sign on an interval is proved by Sturm's root count (`Poly.count_roots`)
and the sign at one point, in exact rational arithmetic.  Each relation is
also perturbed and seen to fail, so no reduction holds vacuously.  The
symbolic points, box products and involution are tied to the program's
point table and box rows, and to their Gram table (`oracles.face_gram`),
and the symbolic passes to `oracles.passes` and `oracles.plus_pass`,
at a few parameters on each side.
"""
import math

import numpy as np
import pytest
import sympy as sp

from crlab.core import siegel_model
from crlab.family import P_A, P_B, P_U, P_V, P_W, U_PA, U_PV, UI_PW, alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import (
    column_minima, delta_v, face_gram, gram, involution_matrix, lc_triples, passes, plus_pass, point_table, torus_exclusion,
    torus_pass,
)
from slice_algebra import INVOLUTION, J, U, box, c, conj, inner, inv, positive, s, zero
import slice_algebra

t = sp.symbols("t", real=True)  # c^2
SLICE, GENS = [s**2 + c**2 - 1], (s, c)


def _on_slice(v):
    """v with each coordinate reduced modulo c^2 + s^2 - 1: the same vector
    on the slice, in fewer terms."""
    return v.applyfunc(lambda e: sp.reduced(sp.expand(e), SLICE, *GENS)[1])


TRIPLES = {
    name: tuple(_on_slice(x) for x in triple)
    for name, triple in (
        ("plus_pair", (slice_algebra.P_U, slice_algebra.P_V, slice_algebra.P_W)),
        ("cross_pair", (slice_algebra.P_U, slice_algebra.U_PV, slice_algebra.P_W)),
    )
}
K_OF_C = -6 * c**2
U_OF_C = sp.Rational(2, 3) * (4 * c**2 - 3)


def _boxes(p, q, r):
    return [box(p, q), box(q, r), box(r, p)]


def _triple_relations(name):
    """The expressions that vanish on the slice for a triple: the Gram block
    of its boxes b_i is circulant (it is Hermitian, so its diagonal l_i =
    <b_i, b_i> and its entries k_i = <b_i, b_i+1> above it are all of it),
    with k = -6c^2 and l = u k."""
    b = _boxes(*TRIPLES[name])
    (l0, l1, l2), (k0, k1, k2) = ([inner(b[i], b[(i + j) % 3]) for i in range(3)] for j in (0, 1))
    return [l1 - l0, l2 - l0, k1 - k0, k2 - k0, k0 - K_OF_C, l0 - U_OF_C * k0]


def _involution_relations():
    """The expressions that vanish on the slice for I: I^H J I - J, I^2 - 1,
    I U I - U^-1, det I + 1, and I x - y for x -> y the swaps."""
    I = INVOLUTION
    pts = slice_algebra
    swaps = [(pts.P_U, pts.P_U), (pts.P_V, pts.P_W), (pts.P_W, pts.P_V), (pts.U_PV, pts.UI_PW)]
    matrices = [conj(I).T * J * I - J, I * I - sp.eye(3), I * U * I - inv(U)] + [I * x - y for x, y in swaps]
    return [e for m in matrices for e in m] + [I.det() + 1]


# LC's former pass and TF's pass as row arrays (p_U, neg, qr, pr, qp) of
# the tori (p, q, r), and the signs with which I carries each row of the
# first onto the second
def _pass(p, neg, q, r):
    return [p, neg, box(q, r), box(p, r), box(q, p)]


PASSES = {
    "plus": _pass(slice_algebra.P_U, slice_algebra.P_W, slice_algebra.P_V, slice_algebra.U_PV),
    "minus": _pass(slice_algebra.P_U, slice_algebra.P_V, slice_algebra.P_W, slice_algebra.UI_PW),
}
SIGNS = (1, 1, -1, -1, -1)


def _box_lemma():
    """The coordinates of Ia box Ib - conj(det I) I (a box b) for a and b
    of six real symbols each."""
    x, I = sp.symbols("x:12", real=True), INVOLUTION
    a, b = (sp.Matrix([x[k + 2 * i] + sp.I * x[k + 2 * i + 1] for i in range(3)]) for k in (0, 6))
    return list(box(I * a, I * b) - conj(I.det()) * I * box(a, b))


def _pass_relations():
    """I x - sign y for the rows x of the plus pass and y of the minus pass,
    and I p_A - U p_A, I p_B - p_B."""
    I, pts = INVOLUTION, slice_algebra
    rows = [I * x - sign * y for x, y, sign in zip(PASSES["plus"], PASSES["minus"], SIGNS)]
    return [e for m in rows + [I * pts.P_A - pts.U_PA, I * pts.P_B - pts.P_B] for e in m]


RELATIONS = {name: _triple_relations(name) for name in TRIPLES}
RELATIONS["involution"] = _involution_relations()
RELATIONS["box_lemma"] = _box_lemma()
RELATIONS["passes"] = _pass_relations()


@pytest.mark.parametrize("name", RELATIONS)
def test_relations_hold_on_the_slice(name):
    assert all(zero(e, SLICE, GENS) for e in RELATIONS[name])


@pytest.mark.parametrize("name", RELATIONS)
def test_each_perturbed_relation_fails(name):
    # a reduction that held whatever its input would prove nothing
    eps = sp.Rational(1, 10**6)
    assert not any(zero(e + eps * c * s, SLICE, GENS) for e in RELATIONS[name])


def test_both_triples_are_disks_on_the_whole_slice():
    # u = l / k, and in t = c^2 on (0, 1): 2/3 - u = (8/3)(1 - t) > 0 and
    # k = -6t < 0, so the trichotomy reads DISK for every alpha2 in (0, pi/2)
    assert zero(sp.Rational(2, 3) - U_OF_C - sp.Rational(8, 3) * s**2, SLICE, GENS)
    l_of_c = U_OF_C * K_OF_C
    of_t = {name: sp.expand(e).subs(c**2, t) for name, e in (("u", U_OF_C), ("k", K_OF_C), ("l", l_of_c))}
    assert positive(sp.Rational(2, 3) - of_t["u"], 0, 1) and positive(-of_t["k"], 0, 1)
    # the hypothesis lemma's sign pattern
    assert sp.expand(of_t["l"] - of_t["k"] - 2 * t * (9 - 8 * t)) == 0 and positive(of_t["l"] - of_t["k"], 0, 1)
    assert sp.expand(of_t["l"] + 2 * of_t["k"] + 16 * t**2) == 0 and positive(-(of_t["l"] + 2 * of_t["k"]), 0, 1)


ROWS = [P_U, P_V, P_W, U_PV, UI_PW]
SYMBOLIC = sp.lambdify(
    (c, s),
    [sp.Matrix.hstack(*(TRIPLES["plus_pair"] + (slice_algebra.U_PV, slice_algebra.UI_PW)))]
    + [sp.Matrix.hstack(*_boxes(*TRIPLES[name])) for name in TRIPLES]
    + [INVOLUTION],
    "numpy",
)


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 12, 2809)] + [alpha2_for_length(v) for v in (0.25, 1.0, 1.75)] + [0.5, math.pi / 6, 1e-4],
)
def test_symbolic_triples_and_involution_are_the_programs(alpha2):
    # the proof's points, box products and involution, evaluated at alpha2,
    # are the program's rows ROWS, its box rows, and the oracle's
    # involution; the Gram blocks of the program's box rows carry k = -6c^2
    # and u = (2/3)(4c^2 - 3), and the involution maps its rows
    ff = FaceFamily(alpha2)
    co, si = math.cos(alpha2), math.sin(alpha2)
    points, *boxes, inv_m = (np.array(m, dtype=complex) for m in SYMBOLIC(co, si))
    points, boxes = points.T, [b.T for b in boxes]  # rows, as the program's tables
    P = point_table(ff)[ROWS]
    assert np.abs(points - P).max() <= 1e-13 * np.abs(P).max()
    G = face_gram(ff)[np.ix_(ROWS, ROWS)]
    assert np.abs(gram(points, siegel_model()) - G).max() <= 1e-12 * np.abs(G).max()
    for want, b in zip(boxes, lc_triples(ff)):
        assert np.abs(want - b).max() <= 1e-13 * np.abs(b).max()
        K = gram(b, siegel_model())
        assert abs(K[0, 1] + 6 * co**2) <= 1e-12 and abs(K[0, 0] / K[0, 1].real - (2 / 3) * (4 * co**2 - 3)) <= 1e-12
    I = involution_matrix(alpha2)
    assert np.abs(inv_m - I).max() <= 1e-15
    # I p_U = p_U, I p_V = p_W, I p_W = p_V and I U p_V = U^-1 p_W
    assert np.abs(P[:4] @ I.T - P[[0, 2, 1, 4]]).max() <= 1e-12 * np.abs(P).max()


PASS_SYMBOLIC = sp.lambdify((c, s), [sp.Matrix.hstack(*PASSES[name]) for name in PASSES], "numpy")


@pytest.mark.parametrize(
    "alpha2, grid",
    [(alpha2_for_order(n), 720) for n in (9, 56, 2809)]
    + [(alpha2_for_length(v), 720) for v in (0.25, 1.0, 1.75)]
    + [(1e-4, 720), (1.5, 720), (1.569, 64)],
)
def test_the_involution_carries_the_plus_pass_onto_tfs(alpha2, grid):
    # the proof's passes, evaluated at alpha2, are oracles.plus_pass and
    # oracles.passes; the oracle's I maps the first onto the second row
    # by row with SIGNS, and p_A, p_B onto U p_A, p_B.  On the sampled
    # columns of `oracles.torus_pass` both passes read the same ball arcs, and column minima of the
    # same sign and inf pattern: TF's margin is finite and positive exactly
    # where the plus pass's is (at 1.569 and grid 64 no column meets the
    # ball, and both read inf)
    ff = FaceFamily(alpha2)
    co, si = math.cos(alpha2), math.sin(alpha2)
    plus, minus = plus_pass(ff), passes(ff)
    for want, got in zip(PASS_SYMBOLIC(co, si), (plus, minus)):
        assert np.abs(np.array(want, dtype=complex).T - got).max() <= 1e-13 * np.abs(got).max()
    I = involution_matrix(alpha2)
    assert np.abs(plus @ I.T - np.array(SIGNS)[:, None] * minus).max() <= 1e-13 * np.abs(minus).max()
    P = point_table(ff)
    assert np.abs(P[[P_A, P_B]] @ I.T - P[[U_PA, P_B]]).max() <= 1e-13 * np.abs(P).max()
    m, dv = grid // 2, delta_v(alpha2)
    minima, _, half = column_minima(np.stack([minus, plus]), dv + (np.arange(m) + 0.5) * (math.pi / m), siegel_model())
    live = ~np.isnan(half[0])
    assert np.array_equal(np.isnan(half[1]), ~live) and np.abs(half[0] - half[1])[live].max(initial=0.0) <= 1e-12
    assert np.array_equal(np.sign(minima[0]), np.sign(minima[1])) and np.array_equal(np.isinf(minima[0]), ~live)
    tf, other = torus_exclusion(np.stack([minus, plus]), dv, m, siegel_model())
    assert tf == torus_pass(ff, grid) and (0.0 < tf < math.inf) == (0.0 < other < math.inf)
    assert (0.0 < tf < math.inf) == (alpha2 != 1.569)
