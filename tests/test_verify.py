import ast
import cmath
import collections
import importlib
import inspect
import sys
import json
import math

import numpy as np
import pytest

from crlab.bisector import GiraudTorus, giraud_circle_tangents, torus_exclusion
from crlab.core import GeometryError, HVec, inner
from crlab.family import (
    ALPHA2_LIM, P_A, P_B, P_U, P_U1, P_U2, P_V, P_W, U_PV, U_PW, UI_PV, UI_PW, SideKind, alpha2_for_order, param_side,
)
from crlab.reference import alpha2_for_length, proj_distance
from crlab.visual import angular_diameter
from crlab.verify import (
    _cone_separation,
    CheckResult,
    FaceFamily,
    TORI,
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
from oracles import (
    apply,
    classify_bisector,
    classify_pair,
    envelope_minima,
    family_U,
    family_points,
    giraud_torus,
    power,
    silhouette_circles,
    symmetric_intersection_type,
    tangency_check,
    torus_vectors,
    u_power_point,
)
from test_golden_verdicts import parameters as golden_parameters

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


@pytest.mark.parametrize("n", [9789, 60636])
def test_incidence_near_the_wall(n):
    # U^k p from the eigenbasis lost digits near the wall, where p_U' and
    # p_U'' tend to one null point: the symmetry residual read 1.9e-4 at
    # order 60636; Newton's form on the eigenvalues needs no eigenvector
    res = incidence_check(FaceFamily(alpha2_for_order(n), grid_n=64))
    assert res.passed
    assert set(res.residuals) == {
        "max_modulus_deviation", "max_translation_incidence", "max_involution_symmetry", "chart_action"
    }
    assert max(res.residuals.values()) <= 1e-11


@pytest.mark.parametrize("alpha2", [0.7, alpha2_for_length(1.75), alpha2_for_order(9), alpha2_for_order(2809)])
def test_incidence_checks_the_chart_multiplier(alpha2):
    # chart(U x) = m chart(x) on both sides of the wall, with m = e^{2l} or
    # e^{2 i beta}; a multiplier turned the wrong way fails the gate
    ff = FaceFamily(alpha2, grid_n=64)
    m = ff.chart_multiplier
    if ff.side.length is not None:
        assert m == math.exp(2 * ff.side.length)
    else:
        assert m == pytest.approx(complex(math.cos(2 * ff.side.beta), math.sin(2 * ff.side.beta)), abs=1e-15)
    res = incidence_check(ff)
    assert res.passed and res.residuals["chart_action"] <= 1e-12
    ff.chart_multiplier = m.conjugate() if ff.side.length is None else 1 / m
    res = incidence_check(ff)
    assert not res.passed and res.residuals["chart_action"] > 1e-3


def test_chart_action_is_skipped_on_the_wall():
    ff = FaceFamily(ALPHA2_LIM, grid_n=64)
    assert ff.chart is None and ff.chart_multiplier is None
    res = incidence_check(ff)
    assert "chart_action" not in res.residuals
    assert res.notes == ["chart_action skipped: U acts on no chart by a multiplier at the unipotent parameter"]


@pytest.mark.parametrize("tol", [1e-14, 1e-9])
def test_chart_exists_exactly_off_the_wall(tol):
    # one wall: the chart is None exactly where param_side reads unipotent,
    # whatever the tolerance, with |tr U - 3| below and above 1e-12
    for a2 in ALPHA2_LIM + np.array([0.0, 1e-13, -1e-13, 1e-10, -1e-10]):
        ff = FaceFamily(float(a2), tol)
        unipotent = param_side(float(a2), tol).kind is SideKind.UNIPOTENT
        assert (ff.chart is None) == unipotent and (ff.chart_multiplier is None) == unipotent


@pytest.mark.parametrize("offset", [1e-13, 2e-14])
def test_wall_at_the_least_tolerance_gets_a_verdict(offset):
    # off the wall by param_side at tol 1e-14, with |tr U - 3| below 1e-12:
    # every check runs on p_U' and p_U'', and the report is inconclusive
    r = verify(ALPHA2_LIM - offset, tol=1e-14, grid_n=128)
    assert r.side.kind is SideKind.LOXODROMIC
    assert r.verdict.kind is VerdictKind.INCONCLUSIVE and r.verdict.reason == "a check failed"


def test_tf_structure(ff_lox):
    res = tf_check(ff_lox)
    assert res.passed
    assert res.margins["torus_exclusion"] > 0
    assert res.residuals["cline_locus_at_delta0"] <= 1e-9
    assert max(res.residuals["vertex_pA_distance"], res.residuals["vertex_pB_distance"]) <= 1e-12
    assert res.residuals["bitangency_pA"] <= 1e-4
    assert res.residuals["bitangency_pB"] <= 1e-4
    # TF reports only what can fail at a parameter; its identities in
    # alpha2 are proved in tests/test_tf_identities.py
    assert sorted(res.margins) == ["cline_locus_off_delta0", "torus_exclusion"]
    assert sorted(res.residuals) == [
        "bitangency_pA", "bitangency_pB", "cline_locus_at_delta0", "vertex_pA_distance", "vertex_pB_distance",
    ]


@pytest.mark.parametrize("alpha2", [1e-12, 1e-13, 1e-14])
def test_tf_reads_the_complex_line_at_delta0_near_zero(alpha2):
    # delta0 tends to -pi/2 as alpha2 -> 0 and is that limit at 0: TF finds
    # the complex-line locus on the column at delta0 and keeps clear of it
    # at delta0 + pi/2 down to the least parameters; the verdict still
    # fails on LC's vertex gate: faces_plus_plus_vertex_pB grows like
    # 1/alpha2^2 (1.7e-6 at 1e-10)
    assert delta0(0.0) == -math.pi / 2
    assert delta0(alpha2) == pytest.approx(-math.pi / 2, abs=1e-11)
    r = verify(alpha2, grid_n=128)
    assert r.tf.residuals["cline_locus_at_delta0"] <= 1e-15
    assert r.tf.margins["cline_locus_off_delta0"] == pytest.approx(math.sqrt(0.1), rel=1e-9)
    assert r.lc.residuals["faces_plus_plus_vertex_pB"] > 1e3 * r.tol and not r.lc.passed
    assert any(n.startswith("faces_plus_plus_vertex_pB: vertex residual") and "exceeds the gate" in n for n in r.lc.notes)
    assert r.verdict.kind is VerdictKind.INCONCLUSIVE


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
    _cone_separation(ff, res, n, angular_diameter(ff.G, ff.lengths, P_U, P_V, ff.tol))
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
    _cone_separation(ff, res, n, angular_diameter(ff.G, ff.lengths, P_U, P_V, ff.tol))
    assert res.notes[-1] == "tightest cone pair: k=2,plus"
    ks = np.arange(2, n - 1)
    margins = cone_angles(ff, ks) - 2.0 * res.residuals["value_cone_radius"]
    margins[-1, 1] = math.inf
    assert res.margins["cone_separation"] == margins.min()
    assert abs(margins[0, 0] - margins[-1, 0]) <= 8 * np.spacing(math.pi)


def test_verify_forms_no_dense_torus_grid():
    # TF and LC read the Giraud tori per delta-column in closed form
    # (bisector.column_minima, through bisector.torus_exclusion): verify
    # never evaluates the figures' (sigma, delta) grid (GiraudTorus.column_forms)
    sources = (inspect.getsource(importlib.import_module("crlab.verify")), inspect.getsource(torus_exclusion))
    called = {
        n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
        for source in sources
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Attribute, ast.Name))
    }
    assert "column_forms" not in called
    assert "column_minima" in called


def test_gc_elliptic_powers_of_u_do_not_grow_with_order(monkeypatch):
    # every translate comes from the chart multiplier and the point table's
    # U^k rows (|k| <= 2): no matrix power is taken at any order
    calls = []
    power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power", lambda M, k: calls.append(k) or power(M, k))
    counts = []
    for n in (100, 1000):
        ff = FaceFamily(alpha2_for_order(n), grid_n=64)
        calls.clear()
        assert gc_check_elliptic(ff).passed
        counts.append(len(calls))
    assert counts[0] == counts[1] == 0


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
    assert d["schema"] == "report-v2"
    payload = json.dumps(d, sort_keys=True)
    back = json.loads(payload)
    assert back["checks"]["tf"]["passed"] is True
    assert back["verdict"]["slope"] == [1, -3]
    assert back["side"]["kind"] == "loxodromic"
    assert back["tr_u"] == pytest.approx(8 * math.cos(0.7) ** 2)


def test_family_translation_compatibility(ff_lox):
    # J_k is the U^k-translate: membership is preserved under the action
    pts, U = family_points(ff_lox), family_U(ff_lox)
    rng = np.random.default_rng(0)
    for k in (1, 2, -1):
        q = u_power_point(ff_lox, k, pts.p_V)
        for _ in range(10):
            z = HVec(rng.normal(size=3) + 1j * rng.normal(size=3), ff_lox.space)
            r0 = abs(inner(z, pts.p_U)) - abs(inner(z, pts.p_V))
            zk = apply(power(U, k), z)
            rk = abs(inner(zk, pts.p_U)) - abs(inner(zk, q))
            assert rk == pytest.approx(r0, abs=1e-9 * max(1.0, abs(r0)))


def test_u_power_point_bisectors_build_at_orders_30_to_100():
    # a product of k matrices drifted the norm of U^k p until classify_bisector
    # rejected the pair (orders 90 and 100, k = n - 1)
    for n in range(30, 101):
        ff = FaceFamily(alpha2_for_order(n), grid_n=64)
        for p in (family_points(ff).p_V, family_points(ff).p_W):
            for k in range(n):
                classify_bisector(family_points(ff).p_U, u_power_point(ff, k, p), ff.tol)


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
    pts = family_points(ff)
    for p in (pts.p_V, pts.p_W, pts.p_A, pts.p_B):
        # k = 0 is p itself, bit for bit, so the k = 0 bisectors do not move
        assert u_power_point(ff, 0, p).v.tobytes() == p.v.tobytes()
        assert np.abs(u_power_point(ff, n, p).v - p.v).max() <= 1e-12
    ks = sorted({-2, -1, 1, 2, n // 4, n // 2, n - 2, n - 1})
    for k, want in zip(ks, _mp_u_powers(ff.alpha2, ks)):
        got = u_power_point(ff, k, pts.p_V)
        # the matrix power was 4.9e-6 off at (100, 99)
        assert np.abs(got.v - want).max() <= 1e-10
        assert got.norm() == pytest.approx(pts.p_V.norm(), rel=1e-6)


@pytest.mark.parametrize("n", [2809, 9789, 60636])
def test_u_power_point_keeps_its_digits_near_the_wall(n):
    # at |k| <= 2, where incidence reads it: the eigenbasis form was 3e-4
    # off at order 60636 and the difference quotient for f[1,a,b] 1.3e-11;
    # the closed form is within 1e-14
    ff = FaceFamily(alpha2_for_order(n), grid_n=64)
    ks = [-2, -1, 1, 2]
    for k, want in zip(ks, _mp_u_powers(ff.alpha2, ks)):
        assert np.abs(u_power_point(ff, k, family_points(ff).p_V).v - want).max() <= 1e-13


def test_u_power_point_is_the_matrix_power_off_the_elliptic_side(ff_lox):
    for k in (-2, -1, 0, 1, 2):
        for p in (family_points(ff_lox).p_V, family_points(ff_lox).p_W):
            assert np.array_equal(u_power_point(ff_lox, k, p).v, apply(power(family_U(ff_lox), k), p).v)


def test_balanced_pair_decomposition_sampling(ff_lox):
    # 200 sampled intersection points of the balanced extor pair lie on the
    # real plane or on the shared complex line
    import cmath

    pts = family_points(ff_lox)
    a2 = ff_lox.alpha2
    sp = ff_lox.space
    J = sp.J
    pW, UipW = pts.p_W, apply(family_U(ff_lox).inv(), pts.p_W)
    lpole = np.array([math.sin(a2), -1j * math.sqrt(2) / 2, -math.sin(a2)])
    lpole /= np.linalg.norm(lpole)

    def rcirc_points(alpha, count):
        # slice of E(p_U, p_V) at phase alpha, cut by the second extor
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
    torus = ff_lox.tori[0]
    sigmas = np.linspace(0, 2 * math.pi, 101)
    for d1 in delta0(ff_lox.alpha2) + np.linspace(0.05, math.pi - 0.05, 9):
        V = torus_vectors(torus, sigmas[:, None] + d1, sigmas[:, None] - d1)
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
    pts = family_points(ff)
    for r in (pts.p_W, apply(family_U(ff).inv(), pts.p_W)):
        circle = giraud_torus(classify_bisector(pts.p_U, pts.p_V, ff.tol), classify_bisector(pts.p_U, r, ff.tol), ff.tol)
        _, lifts, dist = giraud_circle_tangents([(circle, t.v) for t in (pts.p_A, pts.p_B)])
        assert dist.max() <= 1e-12
        for lift, target in zip(lifts, (pts.p_A, pts.p_B)):
            assert proj_distance(HVec(lift, ff.space), target) <= 1e-12


def test_h_identities_twenty_parameters_per_side():
    # h1 = <p_U', p_V> and h2 = <p_U'', p_V>, GC's reads of the Gram table
    rng = np.random.default_rng(77)
    for a2 in rng.uniform(0.05, ALPHA2_LIM - 0.02, 20):
        ff = FaceFamily(float(a2), grid_n=64)
        h1, h2 = ff.G[[P_U1, P_U2], P_V]
        ln = ff.side.length
        t = 2 * math.cosh(ln) + 1
        ch = math.cosh(ln / 2)
        assert abs(abs(h1) ** 2 - 12 * math.exp(ln / 2) * t * ch) <= 1e-8 * abs(h1) ** 2
        assert abs(abs(h2) ** 2 - 12 * math.exp(-ln / 2) * t * ch) <= 1e-8 * max(1, abs(h2) ** 2)
    for a2 in rng.uniform(ALPHA2_LIM + 0.02, math.pi / 2 - 0.05, 20):
        ff = FaceFamily(float(a2), grid_n=64)
        h1, h2 = ff.G[[P_U1, P_U2], P_V]
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
    pts = family_points(ff_lox)
    val = inner(pts.p_B, apply(family_U(ff_lox), pts.p_V))
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


@pytest.mark.parametrize("grid", [128, 720])
@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(9), alpha2_for_order(56), alpha2_for_order(922), alpha2_for_length(0.25),
     alpha2_for_length(1.75), 1.44, 1.56, 1e-8],
)
def test_lc_common_constraint_matches_the_three_constraint_envelope(alpha2, grid):
    # oracle: LC's former envelope of all three constraints of each face
    # pair.  The pair's common constraint alone is a lower bound of it on
    # every column, so the reported margin can never exceed the envelope's;
    # on these parameters the two are equal.  The points and their
    # U-translates are the rows of the program's table
    ff = FaceFamily(alpha2, grid_n=grid)
    lc = lc_check(ff)
    p_A, p_B, p_U, p_V, p_W, UpV, UpW, UipV, UipW = (
        HVec(ff.P[i], ff.space) for i in (P_A, P_B, P_U, P_V, P_W, U_PV, U_PW, UI_PV, UI_PW)
    )
    m = grid // 2
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    for key, torus, negs, vertex in (
        ("faces_minus_minus", giraud_torus(classify_bisector(p_U, p_W), classify_bisector(p_U, UipW)), [p_V, UpV, UipV], p_A),
        ("faces_plus_plus", giraud_torus(classify_bisector(p_U, p_V), classify_bisector(p_U, UpV)), [p_W, UipW, UpW], p_B),
    ):
        pt = inner(HVec(torus.p, ff.space), vertex)
        theta, phi = (-cmath.phase(inner(HVec(w, ff.space), vertex) / pt) for w in (torus.q, torus.r))
        dv = ((theta - phi) / 2.0) % math.pi
        minima = envelope_minima(torus, dv + offsets, p_U.v, [w.v for w in negs])
        envelope = float((minima / np.sin(offsets) ** 2).min())
        assert envelope >= lc.margins[key]
        assert envelope == lc.margins[key]


@pytest.mark.parametrize("alpha2", [alpha2_for_order(9), alpha2_for_length(1.0)])
def test_verify_runs_one_exclusion_pass_per_torus(alpha2, monkeypatch):
    # one stacked column call per verify: TF's torus_exclusion and LC's
    # faces_minus_minus share the pass over the J_0^-/J_-1^- torus, LC's
    # faces_plus_plus is the second pass, then come each pass's delta_v
    # column alone and TF's two complex-line reads, whole-column blocks of
    # one column each; every block reads a single constraint, and TF and GC
    # share the two criterion tangencies, one call for both points
    module, bisector = importlib.import_module("crlab.verify"), importlib.import_module("crlab.bisector")
    calls, tangencies = [], []
    column_minima, tangency_kernel = bisector.column_minima, module.tangencies

    def counted_minima(blocks):
        calls.append([(b, len(d), np.shape(w)) for _, d, _, w, b in blocks])
        return column_minima(blocks)

    def counted_tangency(*args):
        tangencies.append(args)
        return tangency_kernel(*args)

    monkeypatch.setattr(bisector, "column_minima", counted_minima)
    monkeypatch.setattr(module, "tangencies", counted_tangency)
    rep = verify(alpha2, grid_n=720)
    assert rep.all_passed()
    (blocks,) = calls
    assert [(ball, n) for ball, n, _ in blocks] == [(True, 360), (True, 360), (True, 1), (True, 1), (False, 1), (False, 1)]
    assert all(shape == (3,) for *_, shape in blocks)
    assert [len(args[4]) for args in tangencies] == [2]


def test_verify_and_the_spinal_trace_share_one_column_stage(tmp_path, monkeypatch):
    # one engine forms the torus columns' sinusoids: a verify calls it once,
    # with the six blocks of the exclusion passes and the complex-line
    # reads, and a spinal-trace figure once, with its one block of whole
    # columns
    bisector, figures = (importlib.import_module(f"crlab.{name}") for name in ("bisector", "figures"))
    calls, stage = [], bisector._column_sinusoids

    def counted(blocks):
        calls.append([(b, len(d)) for _, d, _, _, b in blocks])
        return stage(blocks)

    monkeypatch.setattr(bisector, "_column_sinusoids", counted)
    assert verify(alpha2_for_order(9), grid_n=720).all_passed()
    assert calls == [[(True, 360), (True, 360), (True, 1), (True, 1), (False, 1), (False, 1)]]
    calls.clear()
    figures.figure_spinal_trace(str(tmp_path / "spinal-trace"), resolution=181)
    assert calls == [[(False, 90)]]


# scalar core.inner and box calls, and HVec constructions, of
# verify(alpha2, grid_n=720): none since FaceFamily reads every decision from
# its point table, Gram table and box rows (79 inner calls at order 9 and 64
# at length 1.0 before; 229 and 214 when every bisector and torus was built
# per use and incidence looped)
INNER_CALLS_BOUND = 0


@pytest.mark.parametrize("alpha2", [alpha2_for_order(9), alpha2_for_length(1.0)])
def test_verify_builds_each_bisector_and_torus_once(alpha2, monkeypatch):
    # FaceFamily builds its four Giraud tori once, from its table's box
    # rows, two of which the bi-tangency reads; from FaceFamily.__init__
    # through torus_pass and the four checks no scalar Hermitian product,
    # box product or HVec is formed
    core, reference, module = (importlib.import_module(f"crlab.{name}") for name in ("core", "reference", "verify"))
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in [m for key, m in sys.modules.items() if key.startswith("crlab")]:
        for name, home in (("inner", core), ("box", reference)):
            if getattr(mod, name, None) is getattr(home, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(home, name)))
    monkeypatch.setattr(HVec, "__post_init__", counted("HVec", HVec.__post_init__))
    monkeypatch.setattr(GiraudTorus, "__init__", counted("torus", GiraudTorus.__init__))
    bitangency = module._bitangency

    def counted_bitangency(*args):
        before = calls["torus"]
        try:
            return bitangency(*args)
        finally:
            calls["bitangency_torus"] += calls["torus"] - before

    monkeypatch.setattr(module, "_bitangency", counted_bitangency)
    ff = FaceFamily(alpha2, grid_n=720)
    ff.torus_pass
    assert calls["inner"] == calls["box"] == calls["HVec"] == 0
    assert verify(alpha2, grid_n=720).all_passed()
    assert calls["torus"] == 8 and calls["bitangency_torus"] == 0
    assert calls["inner"] + calls["box"] + calls["HVec"] <= INNER_CALLS_BOUND


def test_fan_residuals_match_per_sample_loops():
    # reference: the per-sample loop the batched fan-circle kernel replaced
    ff = FaceFamily(math.pi / 6, grid_n=64)
    pts = family_points(ff)
    lc = lc_check(ff)
    UipW = apply(family_U(ff).inv(), pts.p_W)
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


def _outcome(fn):
    # a decision's value, or the message it raises with
    try:
        return fn()
    except GeometryError as exc:
        return f"raises: {exc}"


@pytest.mark.parametrize(
    "alpha2",
    [a for _, a in golden_parameters()] + [ALPHA2_LIM + d for d in (-1e-6, 1e-6, -1e-10, 1e-10)],
)
def test_array_decisions_equal_the_per_object_oracle(alpha2):
    # FaceFamily's Gram-table decisions against the per-object forms of
    # tests/oracles.py (scalar inner and box on single HVecs): bisector
    # kinds, pair kinds, the symmetric u, the criterion tangencies and the
    # silhouettes, on the golden-verdict parameters and near the wall
    ff = FaceFamily(alpha2, grid_n=128)
    pts, U = family_points(ff), family_U(ff)
    Ui = U.inv()
    seconds = [pts.p_V, pts.p_W, apply(U, pts.p_V), apply(Ui, pts.p_W)]
    bs = [_outcome(lambda q=q: classify_bisector(pts.p_U, q, ff.tol)) for q in seconds]
    got = _outcome(lambda: ff.bisector_kinds)
    if isinstance(got, str):
        assert got in bs
        return
    assert got[1] == [b.kind for b in bs]
    assert np.allclose(got[0], [b.r_disc for b in bs], rtol=1e-12, atol=1e-12)
    assert _outcome(lambda: ff.pair_kinds) == [_outcome(lambda: classify_pair(bs[i], bs[j], ff.tol)) for i, j in TORI]
    triples = [(pts.p_U, pts.p_V, pts.p_W), (pts.p_U, seconds[2], pts.p_W)]
    want = [_outcome(lambda t=t: symmetric_intersection_type(*t, ff.tol)) for t in triples]
    sym = _outcome(lambda: ff.symmetric)
    if isinstance(sym, str):
        assert sym == want[0] if isinstance(want[0], str) else sym == want[1]
    else:
        assert sym[1] == [w.kind for w in want]
        assert np.allclose(sym[0], [w.u for w in want], rtol=0.0, atol=1e-12)
    want = [_outcome(lambda x=x: tangency_check(pts.p_U, pts.p_V, x, ff.tol)) for x in (apply(U, pts.p_A), apply(Ui, pts.p_B))]
    got = _outcome(lambda: ff.criterion_tangencies)
    assert got == (next((w for w in want if isinstance(w, str)), want))
    if ff.chart is not None:
        assert _outcome(lambda: ff.silhouettes[0]) == _outcome(lambda: silhouette_circles(ff.chart, bs[:2], ff.tol))
