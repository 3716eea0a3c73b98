import cmath
import math

import numpy as np
import pytest

from crlab.core import GeometryError, HVec, Location, ball_model, box, inner, locate, proj_distance
from crlab.bisector import (
    Bisector,
    BisectorKind,
    ExtorPairKind,
    GiraudTorus,
    SymmetricKind,
    brute_force_symmetric_kind,
    classify_bisector,
    classify_pair,
    count_sublevel_components,
    level_g,
    membership,
    periodic_components,
    real_spine_endpoints,
    symmetric_intersection_type,
)
from crlab.family import FamilyParams, remarkable_points
from crlab.verify import FaceFamily, delta0


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
    z = p + alpha * q
    mz = membership(z, bpq)
    assert mz.on_bisector and mz.location is Location.INSIDE


def test_classify_bisector_trichotomy():
    for a2, kind in (
        (0.7, BisectorKind.METRIC_BISECTOR),
        (math.pi / 6, BisectorKind.FAN),
        (0.3, BisectorKind.CLIFFORD_CONE),
    ):
        pts = remarkable_points(FamilyParams(0.0, a2))
        b = classify_bisector(pts.p_U, pts.p_V)
        assert b.kind is kind
        want = 4 * math.cos(a2) ** 2 * (4 * math.cos(a2) ** 2 - 3)
        assert b.r_disc == pytest.approx(want, abs=1e-12)


def test_two_inside_points_always_metric(ball):
    rng = np.random.default_rng(8)
    R = ball_rotation3()
    for _ in range(25):
        v = rng.normal(size=2) * 0.4
        p = HVec([complex(v[0]), complex(v[1]), 1.0], ball)
        if locate(p) is not Location.INSIDE:
            continue
        g = np.linalg.matrix_power(R, int(rng.integers(1, 3)))
        q = p.apply(g)
        assert classify_bisector(p, q).kind is BisectorKind.METRIC_BISECTOR


def test_orthogonal_outside_pair_is_cone(ball):
    p = HVec([1.5, 0, 1.0], ball)  # norm 1.25 > 0
    q = HVec([0, 1.5, 1.0], ball)
    assert locate(p) is Location.OUTSIDE and locate(q) is Location.OUTSIDE
    # rephase q to match norms exactly (already equal) and check <p,q> != 0 case vs = 0
    b = classify_bisector(p, q)
    assert b.r_disc > 0 and b.kind is BisectorKind.CLIFFORD_CONE


def test_norm_mismatch_rejected(siegel):
    with pytest.raises(GeometryError):
        classify_bisector(HVec([1, 0, 0], siegel), HVec([0, 1, 0], siegel))


def test_classify_pair_examples(rep07, pts07):
    b1 = classify_bisector(pts07.p_U, pts07.p_V)
    b2 = classify_bisector(pts07.p_W, rep07.U.inv().apply(pts07.p_W))
    assert classify_pair(b1, b2) is ExtorPairKind.BALANCED
    # the pair's common line has the printed pole
    a2 = 0.7
    pole = np.array([math.sin(a2), -1j * math.sqrt(2) / 2, -math.sin(a2)])
    f1xf2 = box(b1.focus, b2.focus)
    M = np.vstack([f1xf2.v, pole])
    s = np.linalg.svd(M, compute_uv=False)
    assert s[1] / s[0] < 1e-10
    b3 = classify_bisector(pts07.p_U, pts07.p_W)
    assert classify_pair(b1, b3) is ExtorPairKind.UNBALANCED
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
    assert classify_pair(b1, b5) is ExtorPairKind.CONFOCAL


def test_giraud_torus_samples_on_both_extors(rep07, pts07):
    gt = GiraudTorus(pts07.p_U, pts07.p_V, pts07.p_W)
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = gt.sample(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0, 2 * math.pi)))
        assert membership(s.point, gt.bis1).on_extor
        assert membership(s.point, gt.bis2).on_extor


def test_giraud_torus_rejects_confocal(pts07):
    # collinear defining points give a confocal pair, not a torus
    sp = pts07.p_U.space
    r = HVec(pts07.p_V.v + 0.3 * pts07.p_U.v, sp)
    with pytest.raises(GeometryError):
        GiraudTorus(pts07.p_U, pts07.p_V, r)


def test_symmetric_norm_formula(rep07, pts07):
    # <v,v> = 2 k (3u/2 + cos th + cos ph + cos(ph - th)) with k the common
    # cyclic product <p x q, q x r>, directly in the sampler's angles
    p, q, r = pts07.p_U, pts07.p_V, pts07.p_W
    gt = GiraudTorus(p, q, r)
    si = symmetric_intersection_type(p, q, r)
    k = si.k_value.real
    rng = np.random.default_rng(12)
    for _ in range(25):
        th, ph = rng.uniform(0, 2 * math.pi, 2)
        s = gt.sample(th, ph)
        g = math.cos(th) + math.cos(ph) + math.cos(ph - th)
        want = 2.0 * k * (1.5 * si.u + g)
        assert s.norm == pytest.approx(want, abs=1e-9 * max(1, abs(want)))
    # the zero-angle sample is the midpoint-slice point at level 3
    s0 = gt.sample(0.0, 0.0)
    assert s0.norm == pytest.approx(2.0 * k * (1.5 * si.u + 3.0), abs=1e-10)
    mid = box(HVec(q.v - p.v, p.space), HVec(r.v - p.v, p.space))
    assert proj_distance(s0.point, mid) < 1e-10


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
        assert si.kind is SymmetricKind.DISK
        assert si.u == pytest.approx((2 / 3) * (4 * math.cos(a2) ** 2 - 3), abs=1e-12)
        assert si.k_value.real < 0 and abs(si.k_value.imag) < 1e-9
        # Gram sign pattern of the hypothesis lemma
        assert si.l_value - si.k_value.real > 0
        assert si.l_value + 2 * si.k_value.real < 0
    pts0 = remarkable_points(FamilyParams(0.0, 0.0))
    si0 = symmetric_intersection_type(pts0.p_U, pts0.p_V, pts0.p_W)
    assert si0.kind is SymmetricKind.TRI_CIRCLE_DISK


def test_symmetric_trichotomy_vs_grid_oracle(ball):
    R = ball_rotation3()
    # (a, b) values scanned beforehand to cover both regimes
    cases = [(0.4, 0.3), (1.2, 0.0), (3.0, 1.0), (5.0, 0.0), (5.0, 1.0), (8.0, 2.0)]
    for a, b in cases:
        p = HVec([a, b, 1.0], ball)
        q, r = p.apply(R), p.apply(R @ R)
        si = symmetric_intersection_type(p, q, r)
        oracle = brute_force_symmetric_kind(si.u, 480)
        assert si.kind is oracle


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
        lam = (e - p).v[0] / q.v[0]
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
    from crlab.visual import slice_boundary_circle

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
    from crlab.verify import FaceFamily, delta0

    rng = np.random.default_rng(41 + n)
    for a2 in rng.uniform(0.05, 1.5, 3):
        ff = FaceFamily(float(a2), grid_n=n)
        pts, sp, U = ff.pts, ff.space, ff.U
        d0 = delta0(ff.alpha2) if at_delta0 else 0.0
        for torus in (ff.torus_minus, GiraudTorus(pts.p_U, pts.p_V, U.apply(pts.p_V), ff.tol)):
            grid = torus.sigma_delta(n, d0)
            sigmas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            deltas = d0 + np.linspace(0.0, math.pi, n // 2, endpoint=False)
            assert np.array_equal(grid.sigmas, sigmas) and np.array_equal(grid.deltas, deltas)
            V = torus.vectors(sigmas[:, None] + deltas, sigmas[:, None] - deltas)
            V = V / np.linalg.norm(V, axis=-1, keepdims=True)
            norms = sp.norm_grid(V)
            assert np.abs(grid.norm - norms).max() <= 1e-12 * np.abs(norms).max()
            clear = np.abs(norms) > 1e-9
            assert np.array_equal(grid.ball[clear], norms[clear] <= 0.0)
            Vm = V[grid.ball]
            assert len(grid.ball_points) == len(Vm) > 0
            overlap = np.abs(np.einsum("ik,ik->i", grid.ball_points.conj(), Vm))
            assert np.abs(overlap - 1.0).max() <= 1e-12
            for w in (pts.p_U, pts.p_V, pts.p_W, U.apply(pts.p_A)):
                want = np.abs(sp.inner_grid(w.v, V)) ** 2
                assert np.abs(grid.abs2(w.v) - want).max() <= 1e-12 * want.max()
                want_m = np.abs(sp.inner_grid(w.v, Vm)) ** 2
                assert np.abs(grid.ball_abs2(w.v) - want_m).max() <= 1e-12 * want.max()


def test_torus_norm_terms_match_vectors(pts07):
    # <V, V> = A - 2 Re(e^{-i sigma} C) at theta = sigma + delta, phi = sigma - delta
    gt = GiraudTorus(pts07.p_U, pts07.p_V, pts07.p_W)
    rng = np.random.default_rng(8)
    sigmas, deltas = rng.uniform(0, 2 * math.pi, (2, 20))
    A, C = gt.norm_terms(deltas)
    got = A - 2.0 * (np.exp(-1j * sigmas) * C).real
    want = gt.space.norm_grid(gt.vectors(sigmas + deltas, sigmas - deltas))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _dense_ball_cells(grid):
    return np.nonzero(grid._form <= 0.0)


def _ball_grids(n):
    """(ff, torus, grid) for five seeded alpha2 on both sides of the wall plus
    1.56, the torus_minus and plus-plus tori, and delta offsets 0 and delta0."""
    rng = np.random.default_rng(90 + n)
    params = list(rng.uniform(0.02, 0.91, 2)) + list(rng.uniform(0.92, 1.56, 2)) + [1.56]
    for a2 in params:
        ff = FaceFamily(float(a2), grid_n=n)
        pts = ff.pts
        torus_pp = GiraudTorus(pts.p_U, pts.p_V, ff.U.apply(pts.p_V), ff.tol)
        for torus in (ff.torus_minus, torus_pp):
            for d0 in (0.0, delta0(ff.alpha2)):
                yield ff, torus, torus.sigma_delta(n, d0)


@pytest.mark.parametrize("n", [64, 127, 128, 720])
def test_ball_cells_match_dense_form(n):
    # the cells from the per-column arcs are those of the dense float form,
    # bit for bit, and ball_points follows them in row-major order
    for ff, torus, grid in _ball_grids(n):
        s, d = _dense_ball_cells(grid)
        assert np.array_equal(grid.ball_cells[0], s)
        assert np.array_equal(grid.ball_cells[1], d)
        assert np.array_equal(grid.ball, grid._form <= 0.0)
        V = torus.qr - np.exp(-1j * grid.sigmas[s])[:, None] * torus.delta_rows(grid.deltas[d])
        V /= np.linalg.norm(V, axis=-1, keepdims=True)
        assert np.array_equal(grid.ball_points, V)


@pytest.mark.parametrize("n", [64, 127, 128, 720])
def test_ball_sinusoids_match_ball_points(n):
    # oracle: the unit points ball_points through inner_grid and through the
    # chordal formula sqrt(1 - min(|p^H V|, 1)^2)
    u = 2.0**-53
    for ff, torus, grid in _ball_grids(n):
        pts, U, P = ff.pts, ff.U, grid.ball_points
        for w in (pts.p_U, pts.p_V, pts.p_W, U.apply(pts.p_V), U.inv().apply(pts.p_W)):
            want = np.abs(ff.space.inner_grid(w.v, P)) ** 2
            assert np.abs(grid.ball_abs2(w.v) - want).max(initial=0.0) <= 1e-12 * grid.abs2(w.v).max()
        # Squared distances.  With T = (|qr| + |B_d|)^2 >= A + 2|C| for both
        # |p x V|^2 and |V|^2, and kappa = T / |V|^2 at the cell: the plain
        # sinusoid |p x V|^2 is within 16 u T (TorusGrid) plus 8 u T for its
        # coefficients, and |V|^2 within a few u sqrt(kappa) relative, so the
        # ratio is within 24 u kappa + 4 u; the oracle's V is within 2 u sqrt(T)
        # per component, which moves its overlap^2 by at most 8 u sqrt(kappa) +
        # 16 u.  Hence |got^2 - want^2| <= 32 u (kappa + 1).  Cells within
        # rounding of the target are taken from their points and agree exactly.
        s, d = grid.ball_cells
        B = torus.delta_rows(grid.deltas[d])
        V = torus.qr - np.exp(-1j * grid.sigmas[s])[:, None] * B
        kappa = (np.linalg.norm(torus.qr) + np.linalg.norm(B, axis=1)) ** 2 / (np.abs(V) ** 2).sum(axis=1)
        for t in (pts.p_A, pts.p_B, U.apply(pts.p_A)):
            want = 1.0 - np.minimum(np.abs(P.conj() @ (t.v / np.linalg.norm(t.v))), 1.0) ** 2
            got = grid.ball_chordal(t.v)
            assert np.all(np.abs(got**2 - np.maximum(want, 0.0)) <= 32 * u * (kappa + 1.0))
            near = got <= grid._chordal_floor
            assert np.array_equal(got[near], np.sqrt(np.maximum(want[near], 0.0)))


def test_ball_chordal_at_a_vertex_cell():
    # at the fan parameter both vertices sit on cells of the grid-720 torus;
    # the plain sinusoid there is rounding noise of about 1e-8
    ff = FaceFamily(math.pi / 6.0, grid_n=720)
    grid = ff.torus_minus.sigma_delta(720, delta0(ff.alpha2))
    for t in (ff.pts.p_A, ff.pts.p_B):
        assert grid.ball_chordal(t.v).min() <= 1e-12


class _Columns:
    """A torus stand-in whose norm terms (A, C) are given per column."""

    def __init__(self, A, C):
        self.A, self.C = np.asarray(A, dtype=float), np.asarray(C, dtype=complex)
        self.qr = np.zeros(3, dtype=complex)

    def delta_rows(self, deltas):
        return np.zeros((len(deltas), 3), dtype=complex)

    def norm_terms(self, deltas):
        return self.A, self.C


@pytest.mark.parametrize("n", [64, 127, 720])
def test_ball_cells_of_synthetic_columns(n):
    from crlab.bisector import TorusGrid

    u = 2.0**-53
    rng = np.random.default_rng(n)
    C = np.concatenate(
        [
            [1.0, 1j, -0.5, 3.0 * np.exp(2j * math.pi * 5 / n)],  # tangent at a grid angle
            [np.exp(1e-20j), np.exp(-1e-20j)],  # tangent a hair off the sigma = 0 cell
            rng.normal(size=8) + 1j * rng.normal(size=8),
            [0.0, 0.0, 0.0, 0.0, 1e-300, 1e-300],
        ]
    )
    A = 2.0 * np.abs(C)
    A[6:10] *= 1.0 + u * rng.integers(-4, 5, 4)  # tangent up to a few ulps
    A[10] *= 1.5  # empty
    A[11] = -2.5 * abs(C[11])  # full
    A[12] = -2.0 * abs(C[12])  # tangent from below
    A[13] = 0.0  # arc of half the column
    A[14:18] = [1.0, -1.0, 0.0, -0.0]  # C = 0: all or none by the sign of A
    A[18:20] = [1e-290, -1e-290]
    grid = TorusGrid(_Columns(A, C), np.linspace(0.0, 2.0 * math.pi, n, endpoint=False), np.arange(len(C)))
    s, d = _dense_ball_cells(grid)
    assert np.array_equal(grid.ball_cells[0], s) and np.array_equal(grid.ball_cells[1], d)
    per_column = np.bincount(d, minlength=len(C))
    assert per_column[0] == per_column[4] == per_column[5] == 1  # A = 2|C| touches sigma = 0
    assert per_column[10] == 0 and per_column[11] == n
    assert list(per_column[14:20]) == [0, n, n, n, 0, n]
