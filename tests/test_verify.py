import ast
import importlib
import inspect
import json
import math

import numpy as np
import pytest

from crlab.bisector import GiraudTorus, classify_bisector
from crlab.core import HVec, inner, proj_distance
from crlab.family import ALPHA2_LIM, alpha2_for_length, alpha2_for_order
from crlab.isometry import Isometry
from crlab.verify import (
    _cone_separation,
    _giraud_circle_tangent_at,
    CheckResult,
    FaceFamily,
    VerdictKind,
    cone_angles,
    delta0,
    gc_check_elliptic,
    gc_check_loxodromic,
    incidence_check,
    lc_check,
    surgery_slope_from_type,
    tf_check,
    verify,
)

from conftest import sample_alpha2

GRID = 240


@pytest.fixture(scope="module")
def ff_lox():
    return FaceFamily(0.7, grid_n=GRID)


@pytest.fixture(scope="module")
def ff_n12():
    return FaceFamily(alpha2_for_order(12), grid_n=GRID)


def test_incidence_many_parameters():
    for a2 in sample_alpha2(10, lo=0.2, hi=1.4, seed=3):
        res = incidence_check(FaceFamily(a2, grid_n=64))
        assert res.passed
        assert res.residuals["max_modulus_deviation"] <= 1e-10


def test_incidence_symmetry_both_ways(ff_lox):
    # the involution carries each bisector family onto the mirrored one
    res = incidence_check(ff_lox)
    assert res.residuals["max_involution_symmetry"] <= 1e-10


def test_tf_structure(ff_lox):
    res = tf_check(ff_lox)
    assert res.passed
    assert res.margins["torus_exclusion"] > 0
    assert res.margins["cline_norm"] == pytest.approx(24 * math.sin(0.7) ** 2, abs=1e-12)
    assert res.residuals["dh_dsigma_factorization"] <= 1e-8
    assert res.residuals["cline_locus_at_delta0"] <= 1e-9
    assert max(res.residuals["vertex_pA_distance"], res.residuals["vertex_pB_distance"]) <= 1e-12
    assert res.residuals["bitangency_pA"] <= 1e-4
    assert res.residuals["bitangency_pB"] <= 1e-4


def test_tf_at_unipotent_wall():
    ff = FaceFamily(ALPHA2_LIM, grid_n=GRID)
    res = tf_check(ff)
    assert res.passed
    assert any("unipotent" in n for n in res.notes)


def test_tf_at_fan_and_cone_parameters():
    for a2 in (math.pi / 6, 0.45):
        res = tf_check(FaceFamily(a2, grid_n=GRID))
        assert res.passed


def test_lc_structure(ff_lox):
    res = lc_check(ff_lox)
    assert res.passed
    assert res.margins["u_below_two_thirds"] > 0
    assert res.margins["faces_minus_minus"] > 0
    assert res.margins["faces_plus_plus"] > 0
    assert max(v for k, v in res.residuals.items() if "_vertex_" in k) <= 1e-12


def test_lc_u_value_at_wall():
    ff = FaceFamily(ALPHA2_LIM, grid_n=GRID)
    res = lc_check(ff)
    # u = (2/3)(4 cos^2 - 3) = (2/3)(3/2 - 3) = -1 at the wall
    assert res.margins["u_below_two_thirds"] == pytest.approx(2 / 3 + 1.0, abs=1e-12)
    assert res.passed


def test_lc_fan_focus_identities():
    ff = FaceFamily(math.pi / 6, grid_n=GRID)
    res = lc_check(ff)
    assert res.passed
    assert res.residuals["fan_circle_identities"] <= 1e-8
    # the focus 3 pi/2 sits in the arc [7 pi/6, 11 pi/6] between the
    # corrected vertex labels
    assert res.margins["fan_focus_interior"] == pytest.approx(math.pi / 3, abs=1e-12)


def test_gc_loxodromic(ff_lox):
    res = gc_check_loxodromic(ff_lox)
    assert res.passed
    length = ff_lox.side.length
    assert res.margins["exclusion_chain"] > 0
    assert res.margins["annulus_upper"] > 0 and res.margins["annulus_lower"] > 0
    assert max(res.residuals[k] for k in ("h1_sq", "h2_sq", "h1h2", "h1_conj_h2")) <= 1e-8
    assert res.margins["window_annulus_separation"] >= 0
    # the marked contact value sits inside the annulus
    z = math.exp(-2 * length)
    assert math.exp(-2.5 * length) < z < math.exp(1.5 * length)


@pytest.mark.parametrize("alpha2", [alpha2_for_length(x) for x in (0.25, 1.0, 1.75)] + [math.pi / 6])
def test_gc_annulus_margins_are_symmetric(alpha2):
    # the exact silhouette disks of J_0^+ and J_0^- sit symmetrically in
    # their annuli: all four margins agree
    m = gc_check_loxodromic(FaceFamily(alpha2, grid_n=64)).margins
    keys = ("annulus_upper", "annulus_lower", "annulus_minus_upper", "annulus_minus_lower")
    for k in keys[1:]:
        assert m[k] == pytest.approx(m[keys[0]], rel=1e-12)


@pytest.mark.parametrize("n", [9, 12, 100])
def test_gc_sector_margins_are_symmetric(n):
    # the exact silhouette disk of J_0^+ is centred on the ray -beta/2
    # between the two guard rays
    m = gc_check_elliptic(FaceFamily(alpha2_for_order(n), grid_n=64)).margins
    assert m["sector_upper"] == pytest.approx(m["sector_lower"], rel=1e-12)


@pytest.mark.parametrize("n", [9, 100, 2809])
def test_gc_p_maximum_is_exact(n):
    # P(k) = c0 + c1 k + c2 k^2 has its maximum over k >= 0 at the vertex
    # here; a dense sampling of P never exceeds the reported maximum
    m = gc_check_elliptic(FaceFamily(alpha2_for_order(n), grid_n=64)).margins
    beta = 2 * math.pi / n
    c0, c2 = -m["P_constant_negative"], -m["P_leading_negative"]
    c1 = 24 * math.cos(2 * beta) * (2 * math.cos(beta) + 1) * math.cos(beta / 2)
    ks = np.linspace(0.0, -c1 / c2, 100001)
    sampled = (c0 + c1 * ks + c2 * ks * ks).max()
    assert sampled <= -m["P_sampled_max"] + 1e-12 * abs(c0)
    assert -m["P_sampled_max"] == pytest.approx(sampled, abs=1e-8 * abs(c0))


def test_gc_h_identities_at_05():
    ff = FaceFamily(0.5, grid_n=128)
    res = gc_check_loxodromic(ff)
    assert max(res.residuals[k] for k in ("h1_sq", "h2_sq", "h1h2", "h1_conj_h2")) <= 1e-8
    assert res.passed


def test_gc_elliptic(ff_n12):
    res = gc_check_elliptic(ff_n12)
    assert res.passed
    beta = 2 * math.pi / 12
    assert res.margins["discriminant_sign"] > 0
    assert res.margins["P_constant_negative"] > 0
    assert res.margins["P_leading_negative"] > 0
    assert res.margins["P_discriminant_negative"] > 0
    assert res.margins["sector_width_below_4beta"] > 0
    assert res.margins["cone_separation"] > 0
    assert res.residuals["h2_conj_h1"] <= 1e-8
    # h2 conj(h1) = 12 e^{i beta/2}(2cos b + 1) cos(b/2) checked inside;
    # the product identity too
    assert res.residuals["h_product"] <= 1e-8


def test_gc_elliptic_n9_true_diameter_note():
    ff = FaceFamily(alpha2_for_order(9), grid_n=128)
    res = gc_check_elliptic(ff)
    assert res.passed
    assert res.residuals["value_true_angular_diameter"] > math.pi / 3
    assert any("pairwise cone margins" in n for n in res.notes)


def test_gc_elliptic_n8_inconclusive():
    ff = FaceFamily(alpha2_for_order(8), grid_n=96)
    res = gc_check_elliptic(ff)
    assert res.skipped and not res.passed
    # the discriminant sign test indeed flips below order 9
    beta = 2 * math.pi / 8
    assert 2 + 4 * math.cos(beta) - 9 * math.cos(beta) ** 2 > 0
    beta9 = 2 * math.pi / 9
    assert 2 + 4 * math.cos(beta9) - 9 * math.cos(beta9) ** 2 < 0


def test_gc_elliptic_cone_separation_n922():
    # a margin taken from floating-point powers U^k drifts negative here for
    # k near n; the closed-form angles of cone_angles keep it near 2.5e-3
    ff = FaceFamily(alpha2_for_order(922), grid_n=64)
    res = gc_check_elliptic(ff)
    assert res.passed and not res.skipped
    assert res.counts["order"] == 922
    assert res.margins["cone_separation"] > 1e-3


def _mp_cone_reference(n, ks):
    """Angles at p_U from p_V to U^k p_V and to U^k p_W, and the cone
    radius, from a 60-digit rebuild of rho_s, rho_t at the order-n parameter
    with explicit powers of U."""
    import mpmath as mp

    with mp.workdps(60):
        e = mp.expj(mp.acos(mp.sqrt((2 * mp.cos(2 * mp.pi / n) + 1) / 8)))
        x1 = mp.sqrt(2)
        S = mp.matrix([[1, x1 * mp.conj(e), -1], [-x1 * e, -1, 0], [-1, 0, 0]])
        T = mp.matrix([[0, 0, -1], [0, -1, -x1 * mp.conj(e)], [-1, x1 * e, 1]])
        J = mp.matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        U = S**-1 * T
        pU = mp.matrix([1, -x1 / 2 * e, e * e])
        pV = S * pU
        pW = S * pV

        def ip(u, v):
            return (u.H * J * v)[0]

        def direction(x):
            px = ip(pU, x)
            x = x * (-mp.conj(px) / abs(px))
            return x - pU * (ip(pU, x) / ip(pU, pU))

        def angle(y):
            u, v = direction(pV), direction(y)
            return mp.acos(mp.re(ip(u, v)) / mp.sqrt(mp.re(ip(u, u)) * mp.re(ip(v, v))))

        angles = [[float(angle(U**k * t)) for t in (pV, pW)] for k in ks]
        c2 = mp.re(abs(ip(pU, pV)) ** 2 / (ip(pU, pU) * ip(pV, pV)))
        rho = float(mp.acos(mp.tanh(mp.acosh(mp.sqrt(c2)) / 2)))
    return np.array(angles), rho


@pytest.mark.parametrize("n", [9, 100, 922, 2809, 10**4])
def test_cone_angles_match_mpmath_reference(n):
    ff = FaceFamily(alpha2_for_order(n), grid_n=64)
    res = CheckResult("gc", True)
    _cone_separation(ff, res, n)
    k_note, fam_note = res.notes[-1].removeprefix("tightest cone pair: k=").split(",")
    ks = sorted({2, 3, n // 2 - 1, n // 2 + 1, n - 3, int(k_note)})
    ref, rho = _mp_cone_reference(n, ks)
    assert np.abs(cone_angles(ff, ks) - ref).max() <= 1e-9
    assert res.residuals["value_cone_radius"] == pytest.approx(rho, abs=1e-9)
    # the reported margin is the true margin of the named pair, and no
    # sampled pair is tighter; (n - 2, minus) is the vertex-contact pair, at
    # margin 0, which the tangency check covers
    margins = ref - 2.0 * rho
    named = margins[ks.index(int(k_note)), ("plus", "minus").index(fam_note)]
    assert res.margins["cone_separation"] == pytest.approx(named, abs=1e-9)
    if n - 2 in ks:
        assert margins[ks.index(n - 2), 1] == pytest.approx(0.0, abs=1e-9)
        margins[ks.index(n - 2), 1] = math.inf
    assert res.margins["cone_separation"] <= margins.min() + 1e-9


@pytest.mark.parametrize("n", [10, 50, 56, 100, 1000])
def test_tightest_cone_pair_note_names_the_smallest_tie(n):
    # k = 2 and k = n - 2 of the plus family have the same exact angle 2 beta;
    # rounding alone orders them, and the note names k = 2
    ff = FaceFamily(alpha2_for_order(n), grid_n=64)
    res = CheckResult("gc", True)
    _cone_separation(ff, res, n)
    assert res.notes[-1] == "tightest cone pair: k=2,plus"
    ks = np.arange(2, n - 1)
    margins = cone_angles(ff, ks) - 2.0 * res.residuals["value_cone_radius"]
    margins[-1, 1] = math.inf
    assert res.margins["cone_separation"] == margins.min()
    assert abs(margins[0, 0] - margins[-1, 0]) <= 8 * np.spacing(math.pi)


def test_verify_forms_no_dense_torus_grid():
    # TF and LC read the Giraud tori per delta-column in closed form
    # (GiraudTorus.column_minima): verify never evaluates the figures'
    # (sigma, delta) grid (GiraudTorus.column_forms)
    tree = ast.parse(inspect.getsource(importlib.import_module("crlab.verify")))
    called = {
        n.func.attr for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
    }
    assert "column_forms" not in called
    assert "column_minima" in called


def test_gc_elliptic_powers_of_u_do_not_grow_with_order(monkeypatch):
    calls = []
    power = Isometry.power
    monkeypatch.setattr(Isometry, "power", lambda g, k: calls.append(k) or power(g, k))
    counts = []
    for n in (100, 1000):
        ff = FaceFamily(alpha2_for_order(n), grid_n=64)
        calls.clear()
        assert gc_check_elliptic(ff).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 5


def test_marking_arithmetic_integers():
    # with l0 = m1 and m0 = 3 m1 - l1, the filled curve n l0 + p m0 reads
    # -p l1 + (n + 3p) m1 in the original marking
    for n in range(1, 30):
        for p in range(-10, 11):
            l1_coeff = -p
            m1_coeff = n + 3 * p
            # n*(0,1) + p*(-1,3) in (l1, m1)-coordinates
            assert (n * 0 + p * -1, n * 1 + p * 3) == (l1_coeff, m1_coeff)
    assert surgery_slope_from_type(1, -1, 9) == (1, 6)
    assert surgery_slope_from_type(-1, 1, 12) == (1, 9)


def test_verdicts():
    r9 = verify(alpha2_for_order(9), grid_n=GRID)
    assert r9.verdict.kind is VerdictKind.SURGERY and (r9.verdict.p, r9.verdict.q) == (1, 6)
    r05 = verify(0.5, grid_n=GRID)
    assert r05.verdict.kind is VerdictKind.SURGERY and (r05.verdict.p, r05.verdict.q) == (1, -3)
    r4 = verify(alpha2_for_order(4), grid_n=96)
    assert r4.verdict.kind is VerdictKind.INCONCLUSIVE
    assert "order" in r4.verdict.reason or "9" in r4.verdict.reason
    assert r4.tf.passed and r4.lc.passed
    rlim = verify(ALPHA2_LIM, grid_n=GRID)
    assert rlim.verdict.kind is VerdictKind.NOT_APPLICABLE
    assert rlim.tf.passed and rlim.lc.passed
    r_irr = verify(1.25, grid_n=96)
    assert r_irr.verdict.kind is VerdictKind.INCONCLUSIVE


@pytest.mark.parametrize("n", [56, 100, 1000])
def test_verdicts_high_orders(n):
    r = verify(alpha2_for_order(n), grid_n=128)
    assert r.verdict.kind is VerdictKind.SURGERY and (r.verdict.p, r.verdict.q) == (1, n - 3)
    assert all(c.passed for c in (r.incidence, r.tf, r.lc, r.gc) if not c.skipped)


@pytest.mark.parametrize(
    "alpha2", [alpha2_for_order(10**4), ALPHA2_LIM - 1e-6, ALPHA2_LIM + 1e-6]
)
def test_verify_near_the_wall_reports(alpha2):
    # parameters too close to the wall for the tangency criterion still get a
    # report; an inconclusive one says what could not be certified
    r = verify(alpha2, grid_n=64)
    if r.verdict.kind is VerdictKind.SURGERY:
        assert r.all_passed()
        return
    assert r.verdict.kind is VerdictKind.INCONCLUSIVE
    notes = [n for c in (r.incidence, r.tf, r.lc, r.gc) if not c.passed for n in c.notes]
    assert r.verdict.reason != "a check failed" or any("not evaluated" in n for n in notes)


def test_report_schema():
    r = verify(0.7, grid_n=96)
    d = r.to_dict()
    assert d["schema"] == "report-v1"
    payload = json.dumps(d, sort_keys=True)
    back = json.loads(payload)
    assert back["checks"]["tf"]["passed"] is True
    assert back["verdict"]["slope"] == [1, -3]
    assert back["side"]["kind"] == "loxodromic"
    assert back["tr_u"] == pytest.approx(8 * math.cos(0.7) ** 2)


def test_family_translation_compatibility(ff_lox):
    # J_k is the U^k-translate: membership is preserved under the action
    pts, U = ff_lox.pts, ff_lox.U
    rng = np.random.default_rng(0)
    for k in (1, 2, -1):
        q = ff_lox.u_power_point(k, pts.p_V)
        for _ in range(10):
            z = HVec(rng.normal(size=3) + 1j * rng.normal(size=3), ff_lox.space)
            r0 = abs(inner(z, pts.p_U)) - abs(inner(z, pts.p_V))
            zk = U.power(k).apply(z)
            rk = abs(inner(zk, pts.p_U)) - abs(inner(zk, q))
            assert rk == pytest.approx(r0, abs=1e-9 * max(1.0, abs(r0)))


def test_u_power_point_bisectors_build_at_orders_30_to_100():
    # a product of k matrices drifted the norm of U^k p until classify_bisector
    # rejected the pair (orders 90 and 100, k = n - 1)
    for n in range(30, 101):
        ff = FaceFamily(alpha2_for_order(n), grid_n=64)
        for p in (ff.pts.p_V, ff.pts.p_W):
            for k in range(n):
                classify_bisector(ff.pts.p_U, ff.u_power_point(k, p), ff.tol)


def _mp_u_powers(alpha2, ks):
    """U^k p_V for each k, from a 60-digit rebuild of rho_s, rho_t at the
    float parameter with explicit powers of U."""
    import mpmath as mp

    with mp.workdps(60):
        e = mp.expj(mp.mpf(alpha2))
        x1 = mp.sqrt(2)
        S = mp.matrix([[1, x1 * mp.conj(e), -1], [-x1 * e, -1, 0], [-1, 0, 0]])
        T = mp.matrix([[0, 0, -1], [0, -1, -x1 * mp.conj(e)], [-1, x1 * e, 1]])
        U = S**-1 * T
        pV = S * mp.matrix([1, -x1 / 2 * e, e * e])
        return [np.array([complex(z) for z in U**k * pV]) for k in ks]


@pytest.mark.parametrize("n", [9, 100])
def test_u_power_point_matches_mpmath_powers(n):
    ff = FaceFamily(alpha2_for_order(n), grid_n=64)
    pts = ff.pts
    for p in (pts.p_V, pts.p_W, pts.p_A, pts.p_B):
        # k = 0 is p itself, bit for bit, so the k = 0 bisectors do not move
        assert ff.u_power_point(0, p).v.tobytes() == p.v.tobytes()
        assert np.abs(ff.u_power_point(n, p).v - p.v).max() <= 1e-12
    ks = sorted({-2, -1, 1, 2, n // 4, n // 2, n - 2, n - 1})
    for k, want in zip(ks, _mp_u_powers(ff.alpha2, ks)):
        got = ff.u_power_point(k, pts.p_V)
        # the matrix power was 4.9e-6 off at (100, 99)
        assert np.abs(got.v - want).max() <= 1e-10
        assert got.norm() == pytest.approx(pts.p_V.norm(), rel=1e-6)


def test_u_power_point_is_the_matrix_power_off_the_elliptic_side(ff_lox):
    for k in (-2, -1, 0, 1, 2):
        for p in (ff_lox.pts.p_V, ff_lox.pts.p_W):
            assert np.array_equal(ff_lox.u_power_point(k, p).v, ff_lox.U.power(k).apply(p).v)


def test_balanced_pair_decomposition_sampling(ff_lox):
    # 200 sampled intersection points of the balanced extor pair lie on the
    # real plane or on the shared complex line
    import cmath

    pts = ff_lox.pts
    a2 = ff_lox.alpha2
    sp = ff_lox.space
    J = sp.J
    pW, UipW = pts.p_W, ff_lox.U.inv().apply(pts.p_W)
    lpole = np.array([math.sin(a2), -1j * math.sqrt(2) / 2, -math.sin(a2)])
    lpole /= np.linalg.norm(lpole)

    def rcirc_points(alpha, count):
        # slice of E(p_U, p_V) at phase alpha, cut by the second extor
        from crlab.visual import slice_boundary_circle

        pole = HVec(pts.p_V.v - alpha * pts.p_U.v, sp)
        w = pole.v.conj() @ J
        _, _, vh = np.linalg.svd(w.reshape(1, 3))
        u1, u2 = vh[1].conj(), vh[2].conj()
        a = complex(pW.v.conj() @ J @ u1)
        b = complex(pW.v.conj() @ J @ u2)
        c = complex(UipW.v.conj() @ J @ u1)
        d = complex(UipW.v.conj() @ J @ u2)
        # |a + b zeta| = |c + d zeta|: A |zeta|^2 + 2 Re(K zeta) + C = 0
        A = abs(b) ** 2 - abs(d) ** 2
        K = a.conjugate() * b - c.conjugate() * d
        C = abs(a) ** 2 - abs(c) ** 2
        out = []
        if abs(A) > 1e-12:
            centre = -K.conjugate() / A
            r2 = (abs(K) ** 2 / A**2) - C / A
            if r2 <= 0:
                return out
            for t in np.linspace(0, 2 * math.pi, count, endpoint=False):
                zeta = centre + math.sqrt(r2) * cmath.exp(1j * t)
                out.append(u1 + zeta * u2)
        elif abs(K) > 1e-12:
            zeta0 = -C * K.conjugate() / (2 * abs(K) ** 2)
            direction = 1j * K.conjugate() / abs(K)
            for s in np.linspace(-4, 4, count):
                out.append(u1 + (zeta0 + s * direction) * u2)
        return out

    samples = []
    rng = np.random.default_rng(31)
    while len(samples) < 200:
        alpha = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        samples.extend(rcirc_points(alpha, 8))
    samples = samples[:200]
    worst = 0.0
    for v in samples:
        v = v / np.linalg.norm(v)
        # membership residuals on both extors (sanity)
        m1 = abs(abs(v.conj() @ J @ pts.p_U.v) - abs(v.conj() @ J @ pts.p_V.v))
        m2 = abs(abs(v.conj() @ J @ pW.v) - abs(v.conj() @ J @ UipW.v))
        assert max(m1, m2) < 1e-9
        d_line = abs(np.conj(lpole) @ J @ v)
        if abs(v[2]) > 1e-6:
            w = v / v[2]
            d_plane = max(abs(w[0].imag), abs(w[1].real)) / max(1.0, np.abs(w).max())
        elif abs(v[0]) > 1e-6:
            w = v / v[0]
            d_plane = max(abs(w[0].imag), abs(w[1].real))
        else:
            d_plane = 0.0
        worst = max(worst, min(d_line, d_plane))
    assert worst <= 1e-7


def test_monotone_exclusion_finite_differences(ff_lox):
    # h(. , delta1) decreases on [0, pi] and increases on [pi, 2 pi] for
    # every delta1 strictly between the two line-locus values
    torus = ff_lox.torus_minus
    sigmas = np.linspace(0, 2 * math.pi, 101)
    for d1 in delta0(ff_lox.alpha2) + np.linspace(0.05, math.pi - 0.05, 9):
        V = torus.vectors(sigmas[:, None] + d1, sigmas[:, None] - d1)
        h = ff_lox.space.norm_grid(V)[:, 0]
        dh = np.diff(h)
        half = len(dh) // 2
        assert (dh[:half] <= 1e-10).all()
        assert (dh[half:] >= -1e-10).all()


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 12, 50)]
    + [ALPHA2_LIM]
    + [alpha2_for_length(ln) for ln in (0.3, 1.0, 1.7)],
)
def test_vertex_location_closed_form(alpha2):
    # both Giraud circles bounding the first face pass through p_A and p_B,
    # and the closed-form angles land on each vertex to rounding
    ff = FaceFamily(alpha2, grid_n=64)
    pts = ff.pts
    for r in (pts.p_W, ff.U.inv().apply(pts.p_W)):
        circle = GiraudTorus(pts.p_U, pts.p_V, r, ff.tol)
        for target in (pts.p_A, pts.p_B):
            _, lift, d = _giraud_circle_tangent_at(circle, target)
            assert d <= 1e-12
            assert proj_distance(HVec(lift, ff.space), target) <= 1e-12


def test_h_identities_twenty_parameters_per_side():
    from crlab.verify import _gc_h_values

    rng = np.random.default_rng(77)
    for a2 in rng.uniform(0.05, ALPHA2_LIM - 0.02, 20):
        ff = FaceFamily(float(a2), grid_n=64)
        h1, h2 = _gc_h_values(ff)
        ln = ff.side.length
        t = 2 * math.cosh(ln) + 1
        ch = math.cosh(ln / 2)
        assert abs(abs(h1) ** 2 - 12 * math.exp(ln / 2) * t * ch) <= 1e-8 * abs(h1) ** 2
        assert abs(abs(h2) ** 2 - 12 * math.exp(-ln / 2) * t * ch) <= 1e-8 * max(1, abs(h2) ** 2)
    for a2 in rng.uniform(ALPHA2_LIM + 0.02, math.pi / 2 - 0.05, 20):
        ff = FaceFamily(float(a2), grid_n=64)
        h1, h2 = _gc_h_values(ff)
        beta = ff.side.beta
        cb = math.cos(beta)
        prod = 72 * (2 * cb + 1) ** 2 * (cb + 1)
        assert abs(abs(h1) ** 2 * abs(h2) ** 2 - prod) <= 1e-8 * max(1, prod)
        want = 12 * np.exp(1j * beta / 2) * (2 * cb + 1) * math.cos(beta / 2)
        assert abs(h2 * np.conj(h1) - want) <= 1e-8 * max(1, abs(want))
        # discriminant closed form
        a_h1, a_h2 = abs(h1) ** 2, abs(h2) ** 2
        c0 = a_h2 * (1 - a_h1 / 18)
        c2 = a_h1 * (1 - a_h2 / 18)
        c1 = 24 * math.cos(2 * beta) * (2 * cb + 1) * math.cos(beta / 2)
        disc = c1 * c1 - 4 * c0 * c2
        closed = 4 * a_h1 * a_h2 * (4 / 9) * math.sin(beta) ** 2 * (2 + 4 * cb - 9 * cb * cb)
        assert abs(disc - closed) <= 1e-6 * max(1.0, abs(closed))


def test_incidence_printed_value(ff_lox):
    # <p_B, U p_V> = 1 exactly, one of the vertex products
    pts = ff_lox.pts
    val = inner(pts.p_B, ff_lox.U.apply(pts.p_V))
    assert abs(val - 1.0) < 1e-12


@pytest.mark.parametrize("grid", [128, 720])
@pytest.mark.parametrize("alpha2", [1.4395, 1.5, 1.5205, 1.56])
def test_tf_lc_pass_where_the_ball_band_is_thin(alpha2, grid):
    # near alpha2 = pi/2 the ball part of the tori is a thin band in delta
    # around the vertex column; no sampled cell came near the vertices there,
    # while the closed-form arcs end on them
    rep = verify(alpha2, grid_n=grid)
    for check in (rep.tf, rep.lc):
        assert check.passed
        assert min(check.margins.values()) > 0
        assert max(v for k, v in check.residuals.items() if "vertex" in k) <= 1e-12


@pytest.mark.parametrize("alpha2", [3e-4, 1e-4, 1e-6, 1e-8])
def test_lc_passes_near_alpha2_zero(alpha2):
    # there u = (2/3)(4 cos^2 alpha2 - 3) sits in the band around 2/3 that
    # reads TRI_CIRCLE_DISK; the closed form 2/3 - u = (8/3) sin^2 alpha2
    # decides the disk type
    rep = verify(alpha2)
    assert rep.verdict.kind is VerdictKind.SURGERY and (rep.verdict.p, rep.verdict.q) == (1, -3)
    assert all(c.passed for c in (rep.incidence, rep.tf, rep.lc, rep.gc) if not c.skipped)
    assert rep.lc.margins["u_below_two_thirds"] == pytest.approx(8.0 / 3.0 * math.sin(alpha2) ** 2, rel=1e-15)
    assert rep.lc.residuals["u_plus_pair"] <= 1e-6 and rep.lc.residuals["u_cross_pair"] <= 1e-6


@pytest.mark.parametrize("alpha2, fails", [(1e-10, True), (1e-8, False)])
def test_failing_vertex_gate_is_named(alpha2, fails):
    # at alpha2 = 1e-10 LC fails with every margin positive: a vertex
    # residual of the near-degenerate torus exceeds the 1e3 tol gate, and a
    # note names it
    rep = verify(alpha2, grid_n=128)
    assert min(rep.lc.margins.values()) > 0 and rep.lc.passed != fails
    over = [k for k, v in rep.lc.residuals.items() if "_vertex_" in k and v > 1e3 * rep.tol]
    notes = [n for n in rep.lc.notes if "exceeds the gate" in n]
    assert [n.split(":")[0] for n in notes] == over
    assert bool(over) == fails


@pytest.mark.parametrize("alpha2, grid, empty", [(1.569, 64, True), (1.56, 720, False)])
def test_empty_ball_band_is_named(alpha2, grid, empty):
    # where the ball band at delta_v is narrower than the column spacing no
    # sampled column meets the ball: the margin reads inf and a note says why
    rep = verify(alpha2, grid_n=grid)
    for check, keys in ((rep.tf, ["torus_exclusion"]), (rep.lc, ["faces_minus_minus", "faces_plus_plus"])):
        notes = [n for n in check.notes if "no sampled delta-column meets the ball" in n]
        assert [n.split(":")[0] for n in notes] == (keys if empty else [])
        assert all(math.isinf(check.margins[k]) == empty for k in keys)
        assert check.passed


def test_torus_margins_do_not_depend_on_the_grid():
    # grid_n sets only the number of delta-columns; the margins on 64 and
    # 360 columns agree to 1e-3
    for a2 in (alpha2_for_order(9), alpha2_for_order(2809), alpha2_for_length(1.0), math.pi / 6):
        coarse, fine = FaceFamily(a2, grid_n=128), FaceFamily(a2, grid_n=720)
        assert tf_check(coarse).margins["torus_exclusion"] == pytest.approx(
            tf_check(fine).margins["torus_exclusion"], rel=1e-3
        )
        lc_coarse, lc_fine = lc_check(coarse).margins, lc_check(fine).margins
        for key in ("faces_minus_minus", "faces_plus_plus"):
            assert lc_coarse[key] == pytest.approx(lc_fine[key], rel=1e-3)


@pytest.mark.parametrize("alpha2", [math.pi / 6, 0.7, alpha2_for_order(9)])
def test_batched_residuals_match_per_sample_loops(alpha2):
    # reference: the per-sample loops the batched form kernel replaced
    ff = FaceFamily(alpha2, grid_n=64)
    pts, a2 = ff.pts, ff.alpha2
    cos2, sin_a2 = math.cos(a2) ** 2, math.sin(a2)
    tf = tf_check(ff)
    worst_rp = 0.0
    for r, s in np.random.default_rng(20260810).uniform(-5.0, 5.0, size=(64, 2)):
        q = HVec([r, 1j * math.sqrt(2.0) * s, 1.0], ff.space)
        lhs_u, lhs_w = abs(inner(pts.p_U, q)) ** 2, abs(inner(pts.p_W, q)) ** 2
        rhs_u = r * r + s * s + 1.0 + 2.0 * r * (2.0 * cos2 - 1.0) + 2.0 * (r - 1.0) * s * sin_a2
        rhs_w = (8.0 * cos2 + 1.0) * s * s + r * r + 2.0 * (r - 1.0) * s * sin_a2 - 2.0 * r + 1.0
        locus = lhs_w - lhs_u - 4.0 * cos2 * (2.0 * s * s - r)
        worst_rp = max(worst_rp, abs(lhs_u - rhs_u), abs(lhs_w - rhs_w), abs(locus))
    assert abs(tf.residuals["rplane_identities"] - worst_rp) <= 1e-12
    gap = min(
        abs(inner(pts.p_W, q)) ** 2 - abs(inner(pts.p_U, q)) ** 2
        for q in (HVec([r, 1j * math.sqrt(2.0), 0.0], ff.space) for r in np.linspace(-6, 6, 41))
    )
    assert tf.margins["rplane_ideal_line_gap"] == pytest.approx(gap, rel=1e-12)
    torus, d0 = ff.torus_minus, delta0(a2)
    worst_d = 0.0
    for dl in np.linspace(d0 + 0.15, d0 + math.pi - 0.15, 7):
        for sg in np.linspace(0.1, 2 * math.pi - 0.1, 15):
            v = torus.vectors(sg + dl, sg - dl)
            dv = 1j * (np.exp(-1j * (sg + dl)) * torus.pr + np.exp(-1j * (sg - dl)) * torus.qp)
            dh = 2.0 * (v.conj() @ ff.space.J @ dv).real / (2.0 * cos2)
            closed = -12.0 * math.sin(sg) * (2.0 * math.cos(2 * a2 - dl) - math.cos(dl))
            worst_d = max(worst_d, abs(dh - closed))
    assert abs(tf.residuals["dh_dsigma_factorization"] - worst_d) <= 1e-12
    if abs(a2 - math.pi / 6) > 1e-9:
        return
    lc = lc_check(ff)
    UipW = ff.U.inv().apply(pts.p_W)
    worst, member = 0.0, []
    for th in np.linspace(0.0, 2.0 * math.pi, 1441):
        q = HVec([1.0, math.sqrt(2.0) * np.exp(1j * th), -1.0], ff.space)
        mu, mw, muw = (abs(inner(w, q)) ** 2 for w in (pts.p_U, pts.p_W, UipW))
        worst = max(
            worst,
            abs(mu - 2.0 * (1.0 + math.sin(th))),
            abs(mw - (6.0 * math.sqrt(3.0) * math.cos(th) + 2.0 * math.sin(th) + 11.0)),
            abs(muw - (-6.0 * math.sqrt(3.0) * math.cos(th) + 2.0 * math.sin(th) + 11.0)),
        )
        member.append(mu <= min(mw, muw) + 1e-12)
    assert abs(lc.residuals["fan_circle_identities"] - worst) <= 1e-12
    # the arc through the focus theta = 3 pi / 2 runs from 7 pi / 6 to 11 pi / 6
    assert member[1080] and not member[839] and not member[1321]
    assert all(member[840:1321])
    assert lc.margins["fan_focus_interior"] == pytest.approx(math.pi / 3, abs=1e-12)
