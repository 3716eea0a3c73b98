import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crlab.core import GeometryError, HVec, inner, sesquilinear, siegel_model
from crlab import core, reference
from crlab.family import ALPHA2_LIM, FamilyParams
from crlab.reference import (
    Location,
    ball_model,
    box,
    box_rows,
    custom_model,
    locate,
    proj_distance,
    proj_equal,
    remarkable_points,
)

from oracles import apply, is_autopolar_triple


def cvec(draw_re, draw_im):
    return np.array(draw_re) + 1j * np.array(draw_im)


finite = st.floats(-5, 5, allow_nan=False, allow_infinity=False)
triples = st.tuples(*[finite] * 6).map(
    lambda t: np.array([complex(t[0], t[3]), complex(t[1], t[4]), complex(t[2], t[5])])
)


def test_signatures():
    for sp in (siegel_model(), ball_model()):
        eigs = np.linalg.eigvalsh(sp.J)
        assert (eigs > 0).sum() == 2 and (eigs < 0).sum() == 1


def test_bad_signature_rejected():
    with pytest.raises(GeometryError):
        custom_model(np.eye(3))


def test_inner_examples(siegel):
    e2 = HVec([0, 1, 0], siegel)
    assert inner(e2, e2) == pytest.approx(1.0)
    a2 = ALPHA2_LIM
    pts = remarkable_points(FamilyParams(0, a2))
    # the products pinning the first vertex to its four bisectors
    assert inner(pts.p_A, pts.p_U) == pytest.approx(cmath.exp(2j * a2), abs=1e-14)
    assert inner(pts.p_A, pts.p_V) == pytest.approx(-1.0, abs=1e-14)
    for x in (0.3, 0.9, 1.3):
        p = remarkable_points(FamilyParams(0, x))
        assert inner(p.p_U, p.p_V) == pytest.approx(-1.5, abs=1e-13)
        assert p.p_U.norm() == pytest.approx(4 * math.cos(x) ** 2 - 1.5, abs=1e-13)


def test_inner_conjugate_symmetric(siegel):
    u = HVec([1.0 + 2j, -0.5, 0.25j], siegel)
    v = HVec([0.3, 1j, -2.0], siegel)
    assert inner(u, v) == pytest.approx(inner(v, u).conjugate())
    # conjugate-linear in the first slot
    assert inner(HVec(2j * u.v, siegel), v) == pytest.approx(-2j * inner(u, v))
    assert inner(u, HVec(2j * v.v, siegel)) == pytest.approx(2j * inner(u, v))


def test_inner_space_mismatch(siegel, ball, monkeypatch):
    with pytest.raises(GeometryError):
        inner(HVec([1, 0, 0], siegel), HVec([1, 0, 0], ball))
    with pytest.raises(GeometryError):  # the ball's form under another model tag
        box(HVec([1, 0, 0], custom_model(ball.J)), HVec([0, 1, 0], ball))
    # equal but distinct spaces pass; one space is never compared with itself
    assert inner(HVec([0, 1, 0], siegel_model()), HVec([0, 1, 0], siegel)) == 1.0
    compared = []
    eq = type(siegel).__eq__
    monkeypatch.setattr(type(siegel), "__eq__", lambda a, b: compared.append(1) or eq(a, b))
    u = HVec([1.0, 2j, 0.5], siegel)
    inner(u, u), box(u, u)
    assert compared == []


@settings(max_examples=60, deadline=None)
@given(triples, triples, triples)
# a subnormal entry: LU-based np.linalg.det divides by it and returns NaN
@example(
    u=np.array([3.5j, 1, 7.2e-296]),
    v=np.array([3.5j, 1, 7.2e-296]),
    r=np.array([1, 2j, -3 + 1j]),
)
def test_box_defining_property(u, v, r):
    for sp in (siegel_model(), ball_model()):
        hu, hv, hr = HVec(u, sp), HVec(v, sp), HVec(r, sp)
        det = np.dot(u, np.cross(v, r))  # triple product u . (v x r), no division
        scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(r))
        assert abs(inner(box(hu, hv), hr) - det) <= 1e-10 * scale


def test_box_defining_property_custom_model():
    J = np.array([[2.0, 0.3 + 0.1j, 0], [0.3 - 0.1j, 1.0, 0], [0, 0, -1.5]])
    sp = custom_model(J)
    rng = np.random.default_rng(3)
    for _ in range(20):
        u, v, r = (rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3))
        det = np.dot(u, np.cross(v, r))  # triple product u . (v x r), no division
        got = inner(box(HVec(u, sp), HVec(v, sp)), HVec(r, sp))
        assert abs(got - det) <= 1e-10 * max(1.0, abs(det))


def test_grid_forms_match_inner():
    # the batched kernel keeps the <u, v> = u^H J v convention, also for a
    # form whose matrix is not real symmetric
    J = np.array([[2.0, 0.3 + 0.1j, 0], [0.3 - 0.1j, 1.0, 0], [0, 0, -1.5]])
    rng = np.random.default_rng(11)
    V = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    for sp in (siegel_model(), ball_model(), custom_model(J)):
        forms, norms = sp.form(w, V), sp.form(V, V).real
        assert forms.shape == norms.shape == (4, 5)
        for i, j in np.ndindex(4, 5):
            z = HVec(V[i, j], sp)
            assert abs(forms[i, j] - inner(HVec(w, sp), z)) <= 1e-12
            assert abs(norms[i, j] - z.norm()) <= 1e-12


def test_kernel_rows_keep_their_bits_in_any_array():
    # the form, the Euclidean product and the matrix action are elementwise
    # fixed-order sums: an entry has the same bits alone, in a stack and in
    # a broadcast Gram table, and the values are those of the matrix products
    J = np.array([[2.0, 0.3 + 0.1j, 0], [0.3 - 0.1j, 1.0, 0], [0, 0, -1.5]])
    rng = np.random.default_rng(5)
    X, Y = (rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)) for _ in range(2))
    M = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    for sp in (siegel_model(), ball_model(), custom_model(J)):
        G = sp.form(X[:, None], Y[None])
        assert all(G[i, j] == sp.form(X[i], Y[j]) for i, j in np.ndindex(6, 6))
        assert np.abs(G - X.conj() @ sp.J @ Y.T).max() <= 1e-13 * np.abs(G).max()
    E = sesquilinear(X[:, None], Y[None])
    assert all(E[i, j] == sesquilinear(X[i], Y[j]) for i, j in np.ndindex(6, 6))
    assert np.abs(E - X.conj() @ Y.T).max() <= 1e-13 * np.abs(E).max()
    A = reference.apply(M, X)
    assert all(np.array_equal(A[i], reference.apply(M[i], X[i])) for i in range(6))
    assert np.abs(A - (M @ X[..., None])[..., 0]).max() <= 1e-13 * np.abs(A).max()


def test_box_orthogonality_and_collinear(siegel):
    u = HVec([1, 0, 0], siegel)
    v = HVec([0, 1, 0], siegel)
    b = box(u, v)
    assert abs(inner(u, b)) < 1e-14 and abs(inner(v, b)) < 1e-14
    assert np.abs(box(u, HVec(3.0 * u.v, siegel)).v).max() <= 1e-14


def test_box_closed_form_example(rep07, pts07):
    # p_W box U^-1 p_W = sqrt2 cos(a2) e^{-2i a2} (-3, 0, -3)
    a2 = 0.7
    Ui = rep07.word("s^-1t").inv()
    got = box(pts07.p_W, apply(Ui, pts07.p_W))
    want = math.sqrt(2) * math.cos(a2) * cmath.exp(-2j * a2) * np.array([-3, 0, -3])
    assert np.abs(got.v - want).max() < 1e-12


def test_locate_examples(siegel):
    assert locate(HVec([1, 0, 0], siegel)) is Location.BOUNDARY
    pts = remarkable_points(FamilyParams(0, math.pi / 4))
    # norm is 4 cos^2(pi/4) - 3/2 = 1/2 > 0
    assert pts.p_U.norm() == pytest.approx(0.5)
    assert locate(pts.p_U) is Location.OUTSIDE
    w = HVec([0, 0, 1], ball_model())  # norm -1
    assert locate(w) is Location.INSIDE
    with pytest.raises(GeometryError):
        locate(HVec([0, 0, 0], siegel))


@settings(max_examples=40, deadline=None)
@given(triples, st.floats(0.01, 100), st.floats(0, 2 * math.pi))
def test_locate_scale_invariant(v, r, phase):
    sp = siegel_model()
    hv = HVec(v, sp)
    if np.abs(hv.v).max() <= 1e-6:
        return
    lam = r * cmath.exp(1j * phase)
    assert locate(hv) is locate(HVec(lam * hv.v, sp))


def on_polar(p, q, tol=1e-9):
    """Whether [q] lies on the polar line of [p]: <p, q> = 0 to the scale."""
    return abs(inner(p, q)) <= tol * np.linalg.norm(p.v) * np.linalg.norm(q.v)


def test_polar_pole_roundtrip(siegel, pts07):
    # the pole of the line through two points is their box product
    p, q = pts07.p_U, pts07.p_V
    pole = box(p, q)
    assert on_polar(pole, p) and on_polar(pole, q)
    assert not on_polar(p, q)
    # a boundary point lies on its own polar
    pa = HVec([1, 0, 0], siegel)
    assert on_polar(pa, pa)


def test_polar_of_inside_point_misses_ball(ball):
    p = HVec([0.2, 0.1j, 1.0], ball)
    assert locate(p) is Location.INSIDE
    # parametrize the polar line by two spanning vectors and sample
    _, _, vh = np.linalg.svd((p.v.conj() @ ball.J).reshape(1, 3))
    u1, u2 = vh[1].conj(), vh[2].conj()
    for t in np.linspace(0, 2 * math.pi, 50):
        for s in np.linspace(0.0, 1.0, 7):
            z = HVec(math.cos(s) * u1 + math.sin(s) * cmath.exp(1j * t) * u2, ball)
            assert on_polar(p, z)
            assert locate(z) is Location.OUTSIDE


def test_autopolar_triple(ball):
    e1, e2, e3 = (HVec(v, ball) for v in np.eye(3))
    assert is_autopolar_triple(e1, e2, e3)
    assert not is_autopolar_triple(e1, e2, HVec([1, 1, 0], ball))


def test_proj_equal_phase_and_scale(siegel):
    v = HVec([1.0, 2j, -0.5], siegel)
    assert proj_equal(v, HVec((3.7 * cmath.exp(0.9j)) * v.v, siegel))
    assert not proj_equal(v, HVec([1.0, 2j, -0.4], siegel))
    assert proj_distance(v, HVec(v.v * cmath.exp(2.1j), siegel)) < 1e-14


@settings(max_examples=60, deadline=None)
@given(st.lists(triples, min_size=4, max_size=4))
def test_box_rows_are_box_to_the_bit(vs):
    # a batch of box products has the bits of the box product formed on
    # complex scalars, one pair at a time (zeros up to their sign), which
    # the Giraud tori's rows rely on (their margins keep their bits)
    sp = siegel_model()
    a, b = np.array(vs[:2]), np.array(vs[2:])
    for x, y, got in zip(a, b, box_rows(a, b, sp)):
        scalar = np.array([x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]])
        want = sp.J_inv @ scalar.conj()
        assert np.array_equal(got, want) and np.array_equal(box(HVec(x, sp), HVec(y, sp)).v, want)
