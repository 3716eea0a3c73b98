import cmath
import math

import numpy as np
import pytest

from crlab.core import GeometryError, HVec, inner
from crlab.family import alpha2_for_order
from crlab.isometry import Isometry
from crlab.reference import alpha2_for_length, box
from crlab.verify import FaceFamily
from crlab.visual import VisualChart

from oracles import (
    INF,
    angle_between,
    angular_diameter,
    apply,
    chart,
    chart_multiplier,
    classify_bisector,
    family_U,
    family_points,
    involution_matrix,
    is_autopolar_triple,
    line_spinal_crossings,
    oriented_chart,
    power,
    project_bisector,
    silhouette_circles,
    slice_boundary_circle,
    spinal_samples,
    table,
    tangency,
    u_power_point,
)


def chart_at(a2):
    return FaceFamily(a2)


def test_chart_marked_values_elliptic():
    ff = chart_at(alpha2_for_order(12))
    beta = 2 * math.pi / 12
    ch, pts = oriented_chart(ff), family_points(ff)
    assert chart(ch, pts.p_B.v) == pytest.approx(1.0, abs=1e-12)
    assert chart(ch, pts.p_A.v) == pytest.approx(cmath.exp(-1j * beta), abs=1e-10)
    assert chart(ch, pts.p_U_prime.v) == INF
    assert chart(ch, pts.p_U_dprime.v) == pytest.approx(0.0, abs=1e-12)
    for k in range(1, 6):
        zk = chart(ch, apply(power(family_U(ff), k), pts.p_B).v)
        assert zk == pytest.approx(cmath.exp(2j * k * beta), abs=1e-9)
        ak = chart(ch, apply(power(family_U(ff), k), pts.p_A).v)
        assert ak == pytest.approx(cmath.exp(1j * (2 * k - 1) * beta), abs=1e-9)


def test_chart_marked_values_loxodromic():
    ff = chart_at(0.7)
    ln = ff.side.length
    ch, pts = oriented_chart(ff), family_points(ff)
    assert chart(ch, pts.p_B.v) == pytest.approx(1.0, abs=1e-12)
    assert chart(ch, pts.p_A.v) == pytest.approx(math.exp(-ln), abs=1e-10)
    assert chart(ch, apply(family_U(ff), pts.p_A).v) == pytest.approx(math.exp(ln), abs=1e-9)
    assert chart(ch, apply(family_U(ff).inv(), pts.p_B).v) == pytest.approx(math.exp(-2 * ln), abs=1e-9)


def test_chart_line_invariance():
    ff = chart_at(0.9)
    ch = oriented_chart(ff)
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = HVec(rng.normal(size=3) + 1j * rng.normal(size=3), ff.space)
        lam = complex(rng.normal(), rng.normal())
        q2 = HVec(q.v + lam * ch.base, ff.space)
        assert chart(ch, q.v) == pytest.approx(chart(ch, q2.v), rel=1e-9, abs=0)


def test_chart_autopolar_convention():
    # with an auto-polar triple the second chart point goes to 0
    ff = chart_at(alpha2_for_order(10))
    assert is_autopolar_triple(family_points(ff).p_U, family_points(ff).p_U_prime, family_points(ff).p_U_dprime)


# representatives of lines through the chart's base point, in general position
CHART_SAMPLES = np.array([
    [1.0, 0.3 + 0.1j, -0.2],
    [0.1j, 1.0, 0.7],
    [-0.5, 0.25j, 1.0],
    [0.9, -0.6, 0.33 + 0.75j],
    [0.2, 1.1j, -0.8 + 0.1j],
])


def test_induced_action_rotation_and_homothety():
    # U fixes the chart's 0 and infinity and acts on it as z -> m z: a
    # rotation by 2 beta at order 12, a homothety by e^{2l} at 0.7
    ffe, ffl = chart_at(alpha2_for_order(12)), chart_at(0.7)
    assert chart_multiplier(ffe) == pytest.approx(cmath.exp(2j * 2 * math.pi / 12), abs=1e-12)
    assert chart_multiplier(ffl) == pytest.approx(math.exp(2 * ffl.side.length), abs=1e-12)
    for ff in (ffe, ffl):
        ch, m, U = oriented_chart(ff), chart_multiplier(ff), family_U(ff).M
        z = ch.values(CHART_SAMPLES)
        assert np.abs(ch.values(CHART_SAMPLES @ U.T) - m * z).max() <= 1e-9 * np.abs(m * z).max()
        assert chart(ch, apply(family_U(ff), family_points(ff).p_U_prime).v) == INF
        assert chart(ch, apply(family_U(ff), family_points(ff).p_U_dprime).v) == pytest.approx(0.0, abs=1e-12)
    # iterating the action reproduces the power images
    z = chart(oriented_chart(ffe), family_points(ffe).p_B.v)
    for k in range(1, 6):
        z = chart_multiplier(ffe) * z
        want = chart(oriented_chart(ffe), apply(power(family_U(ffe), k), family_points(ffe).p_B).v)
        assert abs(z - want) < 1e-9


def test_induced_action_involution_is_inversion():
    for a2 in (0.7, alpha2_for_order(9)):
        ff = chart_at(a2)
        I = Isometry(involution_matrix(a2), ff.space)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        z = oriented_chart(ff).values(X)
        assert oriented_chart(ff).values(X @ I.M.T) * z == pytest.approx(np.ones(6), abs=1e-8)
        # the chart's 0 and infinity swap
        assert chart(oriented_chart(ff), apply(I, family_points(ff).p_U_prime).v) == pytest.approx(0.0, abs=1e-12)
        assert chart(oriented_chart(ff), apply(I, family_points(ff).p_U_dprime).v) == INF


def test_tangency_criterion_examples():
    ff = chart_at(0.8)
    pts, U = family_points(ff), family_U(ff)
    UpA = apply(U, pts.p_A)
    UiB = apply(U.inv(), pts.p_B)
    # the lemma's products
    assert inner(pts.p_U, UpA) == pytest.approx(cmath.exp(-2j * 0.8), abs=1e-12)
    assert inner(pts.p_V, UpA) == pytest.approx(cmath.exp(-2j * 0.8), abs=1e-12)
    assert inner(pts.p_U, UiB) == pytest.approx(1.0, abs=1e-12)
    assert inner(pts.p_V, pts.p_U) == pytest.approx(-1.5, abs=1e-12)
    assert tangency(pts.p_U, pts.p_V, UpA)
    assert tangency(pts.p_U, pts.p_V, UiB)
    # a generic spinal point admits no sign and is not a touch point
    circ = slice_boundary_circle(HVec(pts.p_V.v - cmath.exp(0.4j) * pts.p_U.v, ff.space))
    z = HVec(circ(np.array([0.7]))[0], ff.space)
    assert not tangency(pts.p_U, pts.p_V, z)


def test_tangency_vs_crossing_oracle():
    rng = np.random.default_rng(9)
    agree = 0
    total = 0
    for a2 in (0.7, 0.85, 1.05, alpha2_for_order(9), alpha2_for_order(20)):
        ff = chart_at(a2)
        pts = family_points(ff)
        p, q = pts.p_U, pts.p_V
        # engineered touch points: the midpoint-slice boundary circle
        circ_t = slice_boundary_circle(HVec(q.v - p.v, ff.space))
        for t in rng.uniform(0, 2 * math.pi, 5):
            r = HVec(circ_t(np.array([t]))[0], ff.space)
            res = tangency(p, q, r)
            crossings = line_spinal_crossings(p, q, r)
            assert res and crossings == 0
            agree += 1
            total += 1
        # generic spinal points: secant lines (skip slices that miss the ball)
        drawn = 0
        while drawn < 6:
            t = rng.uniform(0, 2 * math.pi)
            alpha = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
            circ = slice_boundary_circle(HVec(q.v - alpha * p.v, ff.space))
            if circ is None:
                continue
            drawn += 1
            r = HVec(circ(np.array([t]))[0], ff.space)
            res = tangency(p, q, r)
            crossings = line_spinal_crossings(p, q, r)
            assert (crossings == 0) == res
            agree += 1
            total += 1
    assert total >= 50 and agree == total


def test_tangency_eps_mismatch_is_false(ball):
    # r with <p,r> = e^{i psi} <q,r> for a non-real available phase: no sign
    # works, so the line through [p] and [r] is secant
    p = HVec([0, 0, 1.0], ball)
    q = HVec([math.sinh(1.5), 0, math.cosh(1.5)], ball)
    # slices (q - alpha p)^perp meet the boundary iff Re(alpha) > 1/cosh(r);
    # pick an admissible phase well away from +-1
    psi = 0.8 * math.acos(1.0 / math.cosh(1.5))
    alpha = cmath.exp(1j * psi)
    circ = slice_boundary_circle(HVec(q.v - alpha * p.v, ball))
    assert circ is not None
    r = HVec(circ(np.array([1.1]))[0], ball)
    pr, qr = inner(p, r), inner(q, r)
    assert abs(pr / qr - alpha) < 1e-9
    assert not tangency(p, q, r)
    assert line_spinal_crossings(p, q, r) == 2


def test_project_bisector_marked_boundary():
    ff = chart_at(0.7)
    b = classify_bisector(family_points(ff).p_U, family_points(ff).p_V)
    disk = project_bisector(oriented_chart(ff), b, n_boundary=2048)
    assert disk.residual < 1e-9
    for point in (apply(family_U(ff), family_points(ff).p_A), apply(family_U(ff).inv(), family_points(ff).p_B)):
        z = chart(oriented_chart(ff), point.v)
        assert abs(abs(z - disk.circle.center) - disk.circle.radius) < 1e-9
    # metric side: the line to [q] projects inside, the focus line outside
    assert disk.contains_zero and b.r_disc < 0
    # the boundary's modulus in the privileged chart lies within the range
    # the spinal surface covers there
    priv = VisualChart(b.p.v, b.focus.v, box(b.p, b.focus).v, b.p.space)
    mods = np.abs(priv.values(spinal_samples(b)))
    mods = mods[np.isfinite(mods)]
    assert mods.min() < disk.priv_radius <= mods.max() + 1e-12


def test_project_bisector_rotation_invariant_radius():
    ff = chart_at(alpha2_for_order(10))
    b = classify_bisector(family_points(ff).p_U, family_points(ff).p_V)
    disk = project_bisector(oriented_chart(ff), b)
    # the privileged chart sees the boundary at one modulus
    assert disk.priv_radius is not None
    assert disk.boundary_eps == 1.0


def test_project_fan_halfplane_normal_form(siegel):
    # Siegel normal form: p = e2, pole at e1; the silhouette half-plane
    # reaches exactly s = -1/8
    p = HVec([0, 1.0, 0], siegel)
    theta = 0.35
    q = HVec([-1.0, cmath.exp(1j * theta), 0.0], siegel)
    b = classify_bisector(p, q)
    assert b.kind.value == "fan"
    smax = -math.inf
    for phi in np.linspace(0, 2 * math.pi, 2000, endpoint=False):
        z3 = cmath.exp(1j * theta) + cmath.exp(1j * phi)
        if abs(z3) < 1e-9:
            continue
        # points [s z3, 1, z3] on the bisector with norm <= 0
        s = -1.0 / (2.0 * abs(z3) ** 2)
        smax = max(smax, s)
    assert smax == pytest.approx(-0.125, abs=1e-6)


def test_angular_diameter_formula_and_limits(ball):
    p = HVec([0, 0, 1.0], ball)
    for r in (0.8, 1.5, 3.0):
        q = HVec([math.sinh(r), 0, math.cosh(r)], ball)
        th = angular_diameter(*table(p, q), 0, 1, 1e-9)
        assert th == pytest.approx(2 * math.acos(math.tanh(r / 2)), abs=1e-12)
        assert th == pytest.approx(angular_diameter(*table(q, p), 0, 1, 1e-9), abs=1e-12)
    # distance to infinity shrinks the diameter to zero
    q_far = HVec([math.sinh(8.0), 0, math.cosh(8.0)], ball)
    assert angular_diameter(*table(p, q_far), 0, 1, 1e-9) < 0.08


def test_angular_diameter_montecarlo_oracle(ball):
    p = HVec([0, 0, 1.0], ball)
    r = 1.2
    q = HVec([math.sinh(r), 0, math.cosh(r)], ball)
    th = angular_diameter(*table(p, q), 0, 1, 1e-9)
    b = classify_bisector(p, q)
    Z = spinal_samples(b, 100, 50)
    angs = np.array([angle_between(p, q, HVec(z, ball)) for z in Z])
    # radius = half the diameter, attained on the spinal surface
    assert angs.max() <= th / 2 + 1e-3
    assert angs.max() >= th / 2 - 1e-2
    # interior bisector points stay within the same cone: each slice meets
    # the ball in a disk em + zeta ep, |zeta| < rho, with the same eigenbasis
    # that parametrizes the boundary circle
    rng = np.random.default_rng(1)
    J = ball.J
    interior_max = 0.0
    for alpha in np.exp(1j * rng.uniform(0, 2 * math.pi, 30)):
        pole = (q.v - alpha * p.v).conj() @ J
        _, _, vh = np.linalg.svd(pole.reshape(1, 3))
        B = np.stack([vh[1].conj(), vh[2].conj()])
        G = B.conj() @ J @ B.T
        evals, evecs = np.linalg.eigh(G)
        if evals[0] >= 0 or evals[1] <= 0:
            continue
        em, ep = evecs[:, 0] @ B, evecs[:, 1] @ B
        rho = math.sqrt(-evals[0] / evals[1])
        for s in (0.0, 0.4, 0.8):
            for t in rng.uniform(0, 2 * math.pi, 4):
                z = HVec(em + s * rho * cmath.exp(1j * t) * ep, ball)
                assert z.norm() < 1e-12
                interior_max = max(interior_max, angle_between(p, q, z))
    assert interior_max <= th / 2 + 1e-9


def test_angle_between_matches_euclidean_at_center(ball):
    p = HVec([0, 0, 1.0], ball)
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = HVec(np.append(rng.normal(size=2) + 1j * rng.normal(size=2), 2.0), ball)
        y = HVec(np.append(rng.normal(size=2) + 1j * rng.normal(size=2), 2.0), ball)
        ax = np.array([x.v[0] / x.v[2], x.v[1] / x.v[2]])
        ay = np.array([y.v[0] / y.v[2], y.v[1] / y.v[2]])
        vx = np.concatenate([ax.real, ax.imag])
        vy = np.concatenate([ay.real, ay.imag])
        c = vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy))
        want = math.acos(min(1, max(-1, c)))
        assert angle_between(p, x, y) == pytest.approx(want, abs=1e-10)


def _lstsq_circle(z):
    """(centre, radius) of the least-squares circle through complex points."""
    A = np.stack([2 * z.real, 2 * z.imag, np.ones(len(z))], axis=1)
    (cx, cy, c), *_ = np.linalg.lstsq(A, np.abs(z) ** 2, rcond=None)
    return complex(cx, cy), math.sqrt(c + cx * cx + cy * cy)


SILHOUETTE_PARAMS = {
    "n9": alpha2_for_order(9),
    "n100": alpha2_for_order(100),
    "n922": alpha2_for_order(922),
    "l0.25": alpha2_for_length(0.25),
    "l1.0": alpha2_for_length(1.0),
    "l1.75": alpha2_for_length(1.75),
    "pi/6": math.pi / 6,
}


@pytest.mark.parametrize("alpha2", SILHOUETTE_PARAMS.values(), ids=SILHOUETTE_PARAMS.keys())
def test_silhouette_circle_matches_projected_boundary(alpha2):
    # the closed-form circle against a least-squares fit of project_bisector's
    # sampled boundary, for J_0^+, J_0^-, J_-1^-, J_-2^- and J_1^- (GC reads
    # J_0^+, J_0^-, J_1^- and J_-2^-)
    ff = chart_at(alpha2)
    bisectors = [classify_bisector(family_points(ff).p_U, family_points(ff).p_V, ff.tol)] + [classify_bisector(family_points(ff).p_U, u_power_point(ff, k, family_points(ff).p_W), ff.tol) for k in (0, -1, -2, 1)]
    for b in bisectors:
        (sil,) = silhouette_circles(oriented_chart(ff), [b])
        disk = project_bisector(oriented_chart(ff), b, n_boundary=512)
        centre, radius = _lstsq_circle(disk.boundary[np.isfinite(disk.boundary)])
        scale = max(abs(centre), radius)
        assert abs(sil.center - centre) <= 1e-10 * scale
        assert abs(sil.radius - radius) <= 1e-10 * scale
        assert sil.eps == disk.boundary_eps
        assert sil.bounded
        assert (disk.circle.center, disk.circle.radius) == (sil.center, sil.radius)
        assert disk.residual <= 1e-10 * scale
    # the batch is the circles one by one, to the bit
    assert silhouette_circles(oriented_chart(ff), bisectors) == [silhouette_circles(oriented_chart(ff), [b])[0] for b in bisectors]


@pytest.mark.parametrize("k", [0, 1, 7, 19])
def test_project_bisector_shares_the_silhouette_slice(k):
    # the disk-projection bisectors (order 20, 768 boundary points): the
    # circle is silhouette_circles', field for field, and the boundary is the
    # chart image of slice_boundary_circle's points on the slice p - eps q
    ff = FaceFamily(alpha2_for_order(20))
    for p in (family_points(ff).p_V, family_points(ff).p_W):
        b = classify_bisector(family_points(ff).p_U, u_power_point(ff, k, p), ff.tol)
        disk = project_bisector(oriented_chart(ff), b, n_boundary=768, tol=ff.tol)
        (sil,) = silhouette_circles(oriented_chart(ff), [b], ff.tol)
        assert (disk.circle.center, disk.circle.radius, disk.circle.eps, disk.circle.bounded) == (
            sil.center, sil.radius, sil.eps, sil.bounded
        )
        assert disk.residual <= 1e-12
        pts = slice_boundary_circle(HVec(b.p.v - sil.eps * b.q.v, b.p.space))(
            np.linspace(0, 2 * math.pi, 768, endpoint=False)
        )
        assert np.array_equal(disk.boundary, oriented_chart(ff).values(pts), equal_nan=True)


def test_silhouette_circle_needs_a_real_pair_and_a_positive_pole(ball, siegel):
    def make_chart(p, u, w):
        return VisualChart(p.v, np.asarray(u, dtype=complex), np.asarray(w, dtype=complex), p.space)

    # the fan in Siegel normal form: <p, q> = e^{i theta} is not real
    p = HVec([0, 1.0, 0], siegel)
    fan = classify_bisector(p, HVec([-1.0, cmath.exp(0.35j), 0.0], siegel))
    assert fan.kind.value == "fan"
    with pytest.raises(GeometryError, match="real nonzero"):
        silhouette_circles(make_chart(p, [1.0, 0, 0], [0, 0, 1.0]), [fan])
    # a Clifford cone of two orthogonal exterior points: <p, q> = 0
    p = HVec([1.0, 0, 0], ball)
    cone = classify_bisector(p, HVec([0, 1.0, 0], ball))
    assert cone.kind.value == "clifford-cone"
    with pytest.raises(GeometryError, match="real nonzero"):
        silhouette_circles(make_chart(p, [0, 1.0, 0], [0, 0, 1.0]), [cone])
    # the fan of an interior point with its negated lift: the pole p - eps q is 0
    p = HVec([0, 0, 1.0], ball)
    fan = classify_bisector(p, HVec([0, 0, -1.0], ball))
    assert fan.kind.value == "fan"
    with pytest.raises(GeometryError, match="pole of norm"):
        silhouette_circles(make_chart(p, [1.0, 0, 0], [0, 1.0, 0]), [fan])
    # a family bisector with a rephased second lift
    ff = chart_at(alpha2_for_order(9))
    b = classify_bisector(family_points(ff).p_U, HVec(cmath.exp(0.3j) * family_points(ff).p_V.v, ff.space))
    with pytest.raises(GeometryError, match="real nonzero"):
        silhouette_circles(oriented_chart(ff), [b])


def test_chart_ratio_is_cross_ratio():
    # psi(q)/psi(q') equals the cross ratio of the four lines, computed
    # independently in a second chart of the same visual sphere
    ff = chart_at(alpha2_for_order(10))
    ch = oriented_chart(ff)
    sp = ff.space
    rng = np.random.default_rng(14)
    # a second chart from two other polar points of the base
    base = ch.base
    J = sp.J
    _, _, vh = np.linalg.svd((base.conj() @ J).reshape(1, 3))
    w1 = vh[1].conj() + 0.3 * vh[2].conj()
    w2 = vh[2].conj() - 0.2j * vh[1].conj()
    ch2 = VisualChart(base, w1, w2, sp)

    def cross_ratio(z1, z2, z3, z4):
        return ((z3 - z1) * (z4 - z2)) / ((z3 - z2) * (z4 - z1))

    for _ in range(8):
        q = HVec(rng.normal(size=3) + 1j * rng.normal(size=3), sp)
        qp = HVec(rng.normal(size=3) + 1j * rng.normal(size=3), sp)
        ratio = chart(ch, qp.v) / chart(ch, q.v)
        cr = cross_ratio(chart(ch2, family_points(ff).p_U_prime.v), chart(ch2, family_points(ff).p_U_dprime.v), chart(ch2, q.v), chart(ch2, qp.v))
        assert ratio == pytest.approx(cr, rel=1e-8, abs=0)


def test_projected_samples_inside_fitted_circle():
    # every chart value of the spinal surface lies inside the silhouette
    # circle (the disk excludes the chart's 0 and infinity here)
    for a2 in (0.7, alpha2_for_order(10)):
        ff = chart_at(a2)
        b = classify_bisector(family_points(ff).p_U, family_points(ff).p_V)
        disk = project_bisector(oriented_chart(ff), b, n_boundary=512)
        vals = spinal_samples(b, 64, 32)
        zs = oriented_chart(ff).values(vals)
        zs = zs[np.isfinite(zs)]
        dist = np.abs(zs - disk.circle.center)
        assert dist.max() <= disk.circle.radius * (1 + 1e-9)
