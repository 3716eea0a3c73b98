import cmath
import math

import numpy as np
import pytest

from crlab.core import GeometryError, HVec, inner
from crlab.bisector import level_g
from crlab.family import ALPHA2_LIM, P_A, P_U, P_V, P_W, FamilyParams, alpha2_for_order, delta0
from crlab.reference import Location, alpha2_for_length, ball_model, box, locate, proj_distance, remarkable_points
from crlab.verify import FaceFamily

from oracles import (
    BisectorKind,
    ExtorPairKind,
    SymmetricKind,
    apply,
    ball_arcs,
    bisector_kind,
    brute_force_symmetric_kind,
    classify_bisector,
    column_forms,
    column_minima,
    count_sublevel_components,
    envelope_minima,
    face_torus,
    family_U,
    family_points,
    giraud_torus,
    membership,
    norm_terms,
    pair_kind,
    passes,
    periodic_components,
    plus_pass,
    plus_torus,
    point,
    point_table,
    real_spine_endpoints,
    slice_boundary_circle,
    symmetric_intersection_type,
    symmetric_kind,
    torus_vectors,
    vertex_angles,
)


def ball_rotation3():
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)


def test_membership_examples(rep07, pts07):
    b = classify_bisector(pts07.p_U, pts07.p_V)
    m = membership(pts07.p_A, b)
    assert m.on_extor and m.on_spinal and m.location is Location.BOUNDARY
    # the first lift itself is not on the extor (its two products differ)
    m2 = membership(pts07.p_U, b)
    assert not m2.on_extor
    # midpoint normalization sits on the bisector for a metric pair
    bm = ball_model()
    p = HVec([0, 0, 1.0], bm)
    q = HVec([math.sinh(0.9), 0, math.cosh(0.9)], bm)
    bpq = classify_bisector(p, q)
    assert bpq.r_disc < 0
    c = inner(p, q)
    alpha = -c.conjugate() / abs(c)  # makes <p, alpha q> real negative
    z = HVec(p.v + alpha * q.v, bm)
    mz = membership(z, bpq)
    assert mz.on_bisector and mz.location is Location.INSIDE


def test_classify_bisector_trichotomy():
    for a2, kind in (
        (0.7, BisectorKind.METRIC_BISECTOR),
        (math.pi / 6, BisectorKind.FAN),
        (0.3, BisectorKind.CLIFFORD_CONE),
    ):
        pts = remarkable_points(FamilyParams(0.0, a2))
        r_disc, got = bisector_kind(pts.p_U, pts.p_V)
        assert got is kind
        want = 4 * math.cos(a2) ** 2 * (4 * math.cos(a2) ** 2 - 3)
        assert r_disc == pytest.approx(want, abs=1e-12)


def test_two_inside_points_always_metric(ball):
    rng = np.random.default_rng(8)
    R = ball_rotation3()
    for _ in range(25):
        v = rng.normal(size=2) * 0.4
        p = HVec([complex(v[0]), complex(v[1]), 1.0], ball)
        if locate(p) is not Location.INSIDE:
            continue
        g = np.linalg.matrix_power(R, int(rng.integers(1, 3)))
        q = HVec(g @ p.v, ball)
        assert bisector_kind(p, q)[1] is BisectorKind.METRIC_BISECTOR


def test_orthogonal_outside_pair_is_cone(ball):
    p = HVec([1.5, 0, 1.0], ball)  # norm 1.25 > 0
    q = HVec([0, 1.5, 1.0], ball)
    assert locate(p) is Location.OUTSIDE and locate(q) is Location.OUTSIDE
    # rephase q to match norms exactly (already equal) and check <p,q> != 0 case vs = 0
    r_disc, kind = bisector_kind(p, q)
    assert r_disc > 0 and kind is BisectorKind.CLIFFORD_CONE


def test_norm_mismatch_rejected(siegel):
    with pytest.raises(GeometryError, match="different norms"):
        bisector_kind(HVec([1, 0, 0], siegel), HVec([0, 1, 0], siegel))


def test_classify_pair_examples(rep07, pts07):
    b1 = classify_bisector(pts07.p_U, pts07.p_V)
    b2 = classify_bisector(pts07.p_W, apply(rep07.word("s^-1t").inv(), pts07.p_W))
    assert pair_kind(b1, b2) is ExtorPairKind.BALANCED
    # the pair's common line has the printed pole
    a2 = 0.7
    pole = np.array([math.sin(a2), -1j * math.sqrt(2) / 2, -math.sin(a2)])
    f1xf2 = box(b1.focus, b2.focus)
    M = np.vstack([f1xf2.v, pole])
    s = np.linalg.svd(M, compute_uv=False)
    assert s[1] / s[0] < 1e-10
    b3 = classify_bisector(pts07.p_U, pts07.p_W)
    assert pair_kind(b1, b3) is ExtorPairKind.UNBALANCED
    # confocal: same focus, different defining circles
    sp = pts07.p_U.space
    lam = cmath.exp(0.83j)
    b4 = classify_bisector(
        HVec(pts07.p_U.v * lam, sp), HVec(pts07.p_V.v * lam, sp)
    )
    # rescaling both lifts by a phase keeps the extor; shift one instead
    mid = HVec(pts07.p_U.v + 0.2 * pts07.p_V.v, sp)
    other = HVec(pts07.p_V.v + 0.2 * pts07.p_U.v, sp)
    b5 = classify_bisector(mid, other)
    assert pair_kind(b1, b5) is ExtorPairKind.CONFOCAL
    with pytest.raises(GeometryError, match="identical"):
        pair_kind(b1, b4)


def test_giraud_torus_samples_on_both_extors(rep07, pts07):
    b1, b2 = classify_bisector(pts07.p_U, pts07.p_V), classify_bisector(pts07.p_U, pts07.p_W)
    gt = giraud_torus(b1, b2)
    rng = np.random.default_rng(5)
    for _ in range(30):
        pt = point(gt, float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)))
        assert membership(pt, b1).on_extor
        assert membership(pt, b2).on_extor


def test_giraud_torus_rejects_confocal(pts07):
    # collinear defining points give a confocal pair, not a torus
    sp = pts07.p_U.space
    r = HVec(pts07.p_V.v + 0.3 * pts07.p_U.v, sp)
    with pytest.raises(GeometryError):
        giraud_torus(classify_bisector(pts07.p_U, pts07.p_V), classify_bisector(pts07.p_U, r))


def test_symmetric_norm_formula(rep07, pts07):
    # <v,v> = 2 k (3u/2 + cos th + cos ph + cos(ph - th)) with k the common
    # cyclic product <p x q, q x r>, directly in the torus angles
    p, q, r = pts07.p_U, pts07.p_V, pts07.p_W
    gt = giraud_torus(classify_bisector(p, q), classify_bisector(p, r))
    si = symmetric_intersection_type(p, q, r)
    k = si.k_value.real
    rng = np.random.default_rng(12)
    for _ in range(25):
        th, ph = rng.uniform(0, 2 * math.pi, 2)
        g = math.cos(th) + math.cos(ph) + math.cos(ph - th)
        want = 2.0 * k * (1.5 * si.u + g)
        assert point(gt, th, ph).norm() == pytest.approx(want, abs=1e-9 * max(1, abs(want)))
    # the zero-angle point is the midpoint-slice point at level 3
    p0 = point(gt, 0.0, 0.0)
    assert p0.norm() == pytest.approx(2.0 * k * (1.5 * si.u + 3.0), abs=1e-10)
    mid = box(HVec(q.v - p.v, p.space), HVec(r.v - p.v, p.space))
    assert proj_distance(p0, mid) < 1e-10


def test_level_function_extrema():
    th = np.linspace(-math.pi, math.pi, 720, endpoint=False)
    G = level_g(th[:, None], th[None, :])
    assert G.max() == pytest.approx(3.0, abs=1e-4)
    assert G.min() == pytest.approx(-1.5, abs=1e-4)
    i, j = np.unravel_index(np.argmin(G), G.shape)
    spot = {round(th[i], 2), round(th[j], 2)}
    assert spot == {round(2 * math.pi / 3, 2), round(-2 * math.pi / 3, 2)}
    assert level_g(0.0, 0.0) == pytest.approx(3.0)


def test_periodic_components_shapes():
    m = np.zeros((48, 48), bool)
    m[2:10, 2:10] = True
    m[30:40, 20:28] = True
    assert periodic_components(m) == 2
    m2 = np.zeros((48, 48), bool)
    m2[44:, 10:20] = True
    m2[:4, 10:20] = True  # wraps across the seam
    assert periodic_components(m2) == 1
    assert periodic_components(np.ones((16, 16), bool)) == 1
    band = np.zeros((32, 32), bool)
    band[:, 28:] = True
    band[:, :3] = True
    assert periodic_components(band) == 1


def test_symmetric_trichotomy_family(rep07):
    # the family triple: u = (2/3)(4cos^2 - 3), always a disk off zero
    for a2 in (0.3, 0.7, 1.2):
        pts = remarkable_points(FamilyParams(0.0, a2))
        si = symmetric_intersection_type(pts.p_U, pts.p_V, pts.p_W)
        u, kind = symmetric_kind(pts.p_U, pts.p_V, pts.p_W)
        assert si.kind is kind is SymmetricKind.DISK
        assert u == pytest.approx((2 / 3) * (4 * math.cos(a2) ** 2 - 3), abs=1e-12)
        assert si.u == pytest.approx(u, abs=1e-12)
        assert si.k_value.real < 0 and abs(si.k_value.imag) < 1e-9
        # Gram sign pattern of the hypothesis lemma
        assert si.l_value - si.k_value.real > 0
        assert si.l_value + 2 * si.k_value.real < 0
    pts0 = remarkable_points(FamilyParams(0.0, 0.0))
    assert symmetric_kind(pts0.p_U, pts0.p_V, pts0.p_W)[1] is SymmetricKind.TRI_CIRCLE_DISK


def test_symmetric_trichotomy_vs_grid_oracle(ball):
    R = ball_rotation3()
    # (a, b) values scanned beforehand to cover both regimes
    cases = [(0.4, 0.3), (1.2, 0.0), (3.0, 1.0), (5.0, 0.0), (5.0, 1.0), (8.0, 2.0)]
    for a, b in cases:
        p = HVec([a, b, 1.0], ball)
        q, r = HVec(R @ p.v, ball), HVec(R @ R @ p.v, ball)
        u, kind = symmetric_kind(p, q, r)
        assert kind is brute_force_symmetric_kind(u, 480)


def test_count_sublevel_components_direct():
    assert count_sublevel_components(0.0, 360) == 1  # disk regime
    assert count_sublevel_components(0.9, 360) == 2  # torus minus two disks


def test_real_spine_endpoints(ball, rep07, pts07):
    p = HVec([0, 0, 1.0], ball)
    q = HVec([math.sinh(1.2), 0, math.cosh(1.2)], ball)
    b = classify_bisector(p, q)
    e1, e2 = real_spine_endpoints(b)
    for e in (e1, e2):
        assert locate(e) is Location.BOUNDARY
        assert membership(e, b).on_spinal
    # the endpoints are swapped or fixed by conjugating the circle parameter
    sp = ball
    c = inner(p, q)
    # reconstruct tau from e = p + e^{i tau} q: it solves the same equation
    # as -conj(tau), so the pair is symmetric under alpha -> conj(alpha)
    taus = []
    for e in (e1, e2):
        lam = (e.v - p.v)[0] / q.v[0]
        taus.append(cmath.phase(lam))
    assert taus[0] == pytest.approx(-taus[1], abs=1e-9)
    # family bisector on the metric side
    b7 = classify_bisector(pts07.p_U, pts07.p_V)
    f1, f2 = real_spine_endpoints(b7)
    for e in (f1, f2):
        assert membership(e, b7, 1e-8).on_spinal
    with pytest.raises(GeometryError):
        pts3 = remarkable_points(FamilyParams(0.0, 0.3))
        real_spine_endpoints(classify_bisector(pts3.p_U, pts3.p_V))


def test_slice_points_on_extor(rep07, pts07):
    # every point of a slice [q - alpha p]^perp satisfies the defining property
    p, q = pts07.p_U, pts07.p_V
    b = classify_bisector(p, q)
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(16):
        alpha = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        pole = HVec(q.v - alpha * p.v, p.space)
        circ = slice_boundary_circle(pole)
        if circ is None:
            continue  # slices with interior pole miss the closed ball
        hits += 1
        for z in circ(rng.uniform(0, 2 * math.pi, 8)):
            m = membership(HVec(z, p.space), b)
            assert m.on_extor
    assert hits >= 4


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("at_delta0", [False, True])
def test_torus_grid_matches_materialized_grid(n, at_delta0):
    # oracle: build every (sigma, delta) point with torus.vectors, normalize
    # the rows and apply the pointwise form kernel
    from crlab.verify import FaceFamily

    rng = np.random.default_rng(41 + n)
    for a2 in rng.uniform(0.05, 1.5, 3):
        ff = FaceFamily(float(a2))
        pts, sp, U = family_points(ff), ff.space, family_U(ff)
        d0 = delta0(ff.alpha2) if at_delta0 else 0.0
        torus_pp = giraud_torus(classify_bisector(pts.p_U, pts.p_V, ff.tol), classify_bisector(pts.p_U, apply(U, pts.p_V), ff.tol), ff.tol)
        for torus in (face_torus(ff), torus_pp):
            sigmas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            deltas = d0 + np.linspace(0.0, math.pi, n // 2, endpoint=False)
            ws = (pts.p_U, pts.p_V, pts.p_W, apply(U, pts.p_A))
            R = np.array([np.concatenate([[a.v, b.v], torus.rows]) for a, b in (ws[:2], ws[2:])])
            (norm, *abs2), (norm_wx, *abs2_wx) = np.moveaxis(column_forms(R, sigmas, deltas, sp), 1, 0)
            V = torus_vectors(torus, sigmas[:, None] + deltas, sigmas[:, None] - deltas)
            V = V / np.linalg.norm(V, axis=-1, keepdims=True)
            norms = sp.form(V, V).real
            for got in (norm, norm_wx):
                assert np.abs(got - norms).max() <= 1e-12 * np.abs(norms).max()
            for w, got in zip(ws, abs2 + abs2_wx):
                want = np.abs(sp.form(w.v, V)) ** 2
                assert np.abs(got - want).max() <= 1e-12 * want.max()


def test_torus_from_bisectors_matches_the_box_products(pts07):
    # the torus of two classified bisectors takes p box r and q box p from
    # their foci: the box products of a torus of the same bisectors
    # classified again; the two bisectors need a common first lift
    p, q, r = pts07.p_U, pts07.p_V, pts07.p_W
    b1, b2 = classify_bisector(p, q), classify_bisector(p, r)
    torus = giraud_torus(b1, b2)
    assert torus.pr.tobytes() == box(p, r).v.tobytes()
    assert np.array_equal(torus.qp, box(q, p).v) and np.array_equal(torus.qr, box(q, r).v)
    assert np.array_equal(giraud_torus(classify_bisector(p, q), classify_bisector(p, r)).qp, torus.qp)
    with pytest.raises(GeometryError, match="common first lift"):
        giraud_torus(b1, classify_bisector(q, r))


def test_torus_norm_terms_match_vectors(pts07):
    # <V, V> = A - 2 Re(e^{-i sigma} C) at theta = sigma + delta, phi = sigma - delta
    gt = giraud_torus(classify_bisector(pts07.p_U, pts07.p_V), classify_bisector(pts07.p_U, pts07.p_W))
    rng = np.random.default_rng(8)
    sigmas, deltas = rng.uniform(0, 2 * math.pi, (2, 20))
    A, C = norm_terms(gt, deltas)
    got = A - 2.0 * (np.exp(-1j * sigmas) * C).real
    V = torus_vectors(gt, sigmas + deltas, sigmas - deltas)
    want = gt.space.form(V, V).real
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _ball_tori(n):
    """(torus, pos, negs, deltas) for five seeded alpha2 on both sides of the
    wall plus 1.56: the torus of J_0^- and J_-1^- with LC's envelope for
    F_0^- /\\ F_-1^-, the plus-plus torus with that for F_0^+ /\\ F_1^+, and
    the n // 2 columns of the grid at delta offsets 0 and delta0."""
    rng = np.random.default_rng(90 + n)
    params = list(rng.uniform(0.02, 0.91, 2)) + list(rng.uniform(0.92, 1.56, 2)) + [1.56]
    for a2 in params:
        ff = FaceFamily(float(a2))
        pts, U, Ui = family_points(ff), family_U(ff), family_U(ff).inv()
        torus_pp = giraud_torus(classify_bisector(pts.p_U, pts.p_V, ff.tol), classify_bisector(pts.p_U, apply(U, pts.p_V), ff.tol), ff.tol)
        for torus, negs in (
            (face_torus(ff), [pts.p_V, apply(U, pts.p_V), apply(Ui, pts.p_V)]),
            (torus_pp, [pts.p_W, apply(Ui, pts.p_W), apply(U, pts.p_W)]),
        ):
            for d0 in (0.0, delta0(ff.alpha2)):
                deltas = d0 + np.linspace(0.0, math.pi, n // 2, endpoint=False)
                yield torus, pts.p_U.v, [w.v for w in negs], deltas


def _sampled_envelope(torus, pos, negs, sigmas, deltas):
    """The envelope max_i |<pos, V>|^2 - |<neg_i, V>|^2 over |V|^2, the
    largest |<w, V>|^2 / |V|^2 that it cancels, and <V, V> / |V|^2, at the
    torus points V(sigma, delta), built one by one."""
    V = torus_vectors(torus, sigmas + deltas, sigmas - deltas)
    sp, sq = torus.space, (np.abs(V) ** 2).sum(axis=-1)
    terms = [np.abs(sp.form(w, V)) ** 2 for w in [pos] + negs]
    env = np.max([terms[0] - t for t in terms[1:]], axis=0)
    return env / sq, np.max(terms, axis=0) / sq, sp.form(V, V).real / sq


def _assert_sampled_minima(got, env, terms):
    """got is the minimum of the sampled envelope rows (sample axis 0): no
    sample is below it, and the least sample exceeds it by at most twice
    the largest step between neighbours (the slope bound at a kink).  Both
    sides round like differences of terms as large as `terms`; the ratios
    agree with a 40-digit evaluation to about 4e-11 relative."""
    least = env.min(axis=0)
    step = np.abs(np.diff(env, axis=0)).max(axis=0)
    slack = 1e-10 * terms.max(axis=0)
    assert np.all(got <= least + slack)
    assert np.all(least - got <= 2.0 * step + slack)


@pytest.mark.parametrize("n", [64, 127, 128, 720])
def test_ball_cells_match_dense_form(n):
    # every cell of the dense float form <V, V> <= 0 on the n x n/2 grid lies
    # on its column's closed-form ball arc, and every cell clear of 0 off it
    cells = 0
    for torus, _, _, deltas in _ball_tori(n):
        sigmas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)[:, None]
        V = torus_vectors(torus, sigmas + deltas, sigmas - deltas)
        form = torus.space.form(V, V).real
        mid, half = ball_arcs(torus, deltas)
        t = np.remainder(sigmas - mid + math.pi, 2.0 * math.pi) - math.pi
        A, C = norm_terms(torus, deltas)
        clear = np.abs(form) > 1e-10 * (np.abs(A) + 2.0 * np.abs(C))
        assert np.array_equal((np.abs(t) <= half)[clear], (form <= 0.0)[clear])
        cells += np.count_nonzero(form <= 0.0)
    assert cells


@pytest.mark.parametrize("n", [64, 127, 128, 720])
def test_ball_sinusoids_match_ball_points(n):
    # oracle: 4001 torus points on each column's ball arc, ends included,
    # and 4001 on the whole column, built explicitly
    for torus, pos, negs, deltas in _ball_tori(n):
        mid, half = ball_arcs(torus, deltas)
        got = envelope_minima(torus, deltas, pos, negs)
        empty = np.isnan(half)
        assert np.array_equal(np.isinf(got), empty) and not empty.all()
        sigmas = mid[~empty] + np.linspace(-1.0, 1.0, 4001)[:, None] * half[~empty]
        env, terms, norm = _sampled_envelope(torus, pos, negs, sigmas, deltas[~empty])
        assert norm.max() <= 1e-10
        _assert_sampled_minima(got[~empty], env, terms)
        whole = deltas[:: len(deltas) // 4]
        sigmas = np.linspace(0.0, 2.0 * math.pi, 4001)[:, None]
        env, terms, _ = _sampled_envelope(torus, pos, negs, sigmas, whole)
        _assert_sampled_minima(envelope_minima(torus, whole, pos, negs, ball=False), env, terms)


@pytest.mark.parametrize("n", [64, 720])
def test_column_minima_is_the_envelope_of_one_constraint(n):
    # the sampled pass's single ratio and the oracle's envelope of one constraint
    # run the same arithmetic: equal to the bit, on the ball arcs
    for torus, pos, negs, deltas in _ball_tori(n):
        for neg in negs:
            got = column_minima(np.concatenate([[pos, neg], torus.rows]), deltas, torus.space)[0]
            assert np.array_equal(got, envelope_minima(torus, deltas, pos, [neg]))


# the parameters of the benchmark's verify-params workload: orders 9, 6 and
# 56, the unipotent wall and a loxodromic length
VERIFY_PARAMS = [alpha2_for_order(9), alpha2_for_order(6), alpha2_for_order(56), ALPHA2_LIM, alpha2_for_length(1.0)]


@pytest.mark.parametrize("alpha2, n", [(a, n) for a in VERIFY_PARAMS for n in (64, 720)] + [(1.569, 64)])
def test_stacked_column_minima_equal_each_block_alone(alpha2, n):
    # each exclusion torus, TF's and the plus torus of LC's former pass,
    # reads (minima, mid, half) with the same bits alone, as R (5, 3), in a
    # pass stack (2, 5, 3) and in a stack of two parameters (2, 2, 5, 3)
    # with delta-columns (2, 1, m + 1), and with the bits of the oracle's
    # envelope of one constraint; the columns are the vertex column and the
    # m pass columns about it.  At alpha2 1.569 and grid 64 no pass column
    # meets the ball, so every one reads inf
    params = VERIFY_PARAMS + [1.569]
    m = n // 2
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    families = [FaceFamily(a) for a in (alpha2, params[(params.index(alpha2) + 1) % len(params)])]
    stack, deltas = [], []
    for ff in families:
        theta, phi = vertex_angles(face_torus(ff).lifts, point_table(ff)[P_A], ff.space)
        dv = ((theta - phi) / 2.0) % math.pi
        stack.append(np.stack([passes(ff), plus_pass(ff)]))
        deltas.append(np.append(dv, dv + offsets))
    space = families[0].space
    both = column_minima(np.array(stack), np.array(deltas)[:, None], space)
    for k, (ff, R, d) in enumerate(zip(families, stack, deltas)):
        each = column_minima(R, d, space)
        P = point_table(ff)
        for i, neg in enumerate((P_V, P_W)):
            alone = column_minima(R[i], d, space)
            for layout in ([x[i] for x in each], [x[k, i] for x in both]):
                assert [x.tobytes() for x in layout] == [x.tobytes() for x in alone]
            torus = (face_torus(ff), plus_torus(ff))[i]
            assert np.array_equal(alone[0], envelope_minima(torus, d, P[P_U], [P[neg]]))
    # an empty arc reads inf, and only an empty arc
    minima, _, half = both
    assert np.isinf(minima[0]).any() and np.array_equal(np.isinf(minima), np.isnan(half))
    if alpha2 == 1.569:
        assert np.isinf(minima[0, :, 1:]).all()


@pytest.mark.parametrize("n", [64, 127, 720])
def test_ball_cells_of_synthetic_columns(n):
    # ball arcs and column minima for an empty arc, C = 0 with A of both
    # signs and 0, tangent arcs from above and below, and a half column,
    # against 64 n + 1 explicit points on each arc
    ff = FaceFamily(0.7)
    pts = family_points(ff)
    C = np.array([1.0 + 1j, 0.0, 0.0, 0.0, 3.0 * np.exp(2j * math.pi * 5 / n), -0.5j, 2.0])
    A = 2.0 * np.abs(C)
    A[0] *= 1.5  # empty
    A[1:4] = [1.0, -1.0, 0.0]  # C = 0: none, all, all
    A[5] = -A[5]  # tangent from below: the whole column
    A[6] = 0.0  # half the column
    torus = face_torus(ff)
    deltas = np.linspace(0.2, 3.0, len(C))
    mid, half = ball_arcs(torus, deltas, (A, C))
    assert np.isnan(half[:2]).all()
    assert list(half[2:]) == [math.pi, math.pi, 0.0, math.pi, pytest.approx(math.pi / 2)]
    assert mid[4] == pytest.approx(2.0 * math.pi * 5 / n)
    pos, negs = pts.p_U.v, [pts.p_V.v, apply(family_U(ff), pts.p_V).v]
    got = envelope_minima(torus, deltas, pos, negs, terms=(A, C))
    assert np.isinf(got[:2]).all() and np.isfinite(got[2:]).all()
    sigmas = mid[2:] + np.linspace(-1.0, 1.0, 64 * n + 1)[:, None] * half[2:]
    env, terms, _ = _sampled_envelope(torus, pos, negs, sigmas, deltas[2:])
    _assert_sampled_minima(got[2:], env, terms)
    # the tangent arc is the single point sigma = arg C
    assert got[4] == pytest.approx(env[0, 2], rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "alpha2", list(np.linspace(0.02, 1.56, 9)) + [math.pi / 6, alpha2_for_order(9), alpha2_for_order(2809)]
)
def test_vertex_arc_ends_are_the_vertices(alpha2):
    # both vertices of each face-family torus sit on one delta-column, at
    # the two ends of its ball arc
    ff = FaceFamily(float(alpha2))
    pts, U = family_points(ff), family_U(ff)
    torus_pp = giraud_torus(classify_bisector(pts.p_U, pts.p_V, ff.tol), classify_bisector(pts.p_U, apply(U, pts.p_V), ff.tol), ff.tol)
    for torus, vertices in ((face_torus(ff), (pts.p_A, pts.p_B)), (torus_pp, (pts.p_B, apply(U, pts.p_A)))):
        (th1, ph1), (th2, ph2) = vertex_angles(torus.lifts, np.array([t.v for t in vertices]), torus.space)
        dv = (th1 - ph1) / 2.0
        assert abs(math.remainder((th2 - ph2) / 2.0 - dv, math.pi)) <= 1e-12
        (mid,), (half,) = ball_arcs(torus, [dv])
        ends = [point(torus, s + dv, s - dv) for s in (mid - half, mid + half)]
        dist = np.array([[proj_distance(e, t) for e in ends] for t in vertices])
        assert max(dist[0, 0], dist[1, 1]) <= 1e-12 or max(dist[0, 1], dist[1, 0]) <= 1e-12
