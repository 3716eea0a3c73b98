import cmath
import json
import math
import warnings

import numpy as np
import pytest

from crlab.core import GeometryError, HVec, inner, siegel_model
from crlab.family import (
    ALPHA2_LIM, P_A, P_B, P_U, P_U1, P_U2, P_V, P_W, U_PA, U_PB, U_PV, U_PW, SideKind,
    alpha2_for_order,
    delta0,
    elliptic_disks,
    exclusion_margin,
    param_side,
)
from crlab.reference import alpha2_for_length, proj_distance
from crlab.verify import (
    FaceFamily,
    VerdictKind,
    gc_check_elliptic,
    gc_check_loxodromic,
    lc_check,
    surgery_slope_from_type,
    tf_check,
    verify,
)

from conftest import sample_alpha2
from oracles import (
    TORI,
    TRANSLATION_INCIDENCES,
    ExtorPairKind,
    SymmetricKind,
    apply,
    chart_multiplier,
    classify_bisector,
    classify_pair,
    cone_angles,
    face_gram,
    face_silhouettes,
    face_torus,
    family_U,
    family_points,
    giraud_circle_tangents,
    giraud_torus,
    oriented_chart,
    point_table,
    power,
    silhouette_circles,
    symmetric_intersection_type,
    torus_pass,
    u_power_point,
    vertex_products,
)
from test_golden_verdicts import parameters as golden_parameters
from test_lint import run_fresh

GRID = 240


@pytest.fixture(scope="module")
def ff_lox():
    return FaceFamily(0.7)


@pytest.fixture(scope="module")
def ff_n12():
    return FaceFamily(alpha2_for_order(12))


def test_incidence_many_parameters():
    # the ten vertex products of the point table have modulus 1 at every
    # alpha2 (tests/test_incidence_identities.py, tied to face_points there)
    for a2 in sample_alpha2(10, lo=0.2, hi=1.4, seed=3):
        assert np.abs(np.abs(vertex_products(FaceFamily(a2))) - 1.0).max() <= 1e-10


@pytest.mark.parametrize("n", [9789, 60636])
def test_incidence_near_the_wall(n):
    # near the wall p_U' and p_U'' tend to one null point; the point table's
    # rows U^k p need no eigenvector, so the products of the incidence proof
    # keep their digits there
    ff = FaceFamily(alpha2_for_order(n))
    G = face_gram(ff)
    assert np.abs(np.abs(vertex_products(ff)) - 1.0).max() <= 1e-11
    assert max(abs(abs(G[z, P_U]) - abs(G[z, q])) for z, q in TRANSLATION_INCIDENCES) <= 1e-11


@pytest.mark.parametrize("alpha2", [0.7, alpha2_for_length(1.75), alpha2_for_order(9), alpha2_for_order(2809)])
def test_incidence_checks_the_chart_multiplier(alpha2):
    # chart(U x) = m chart(x) in the oracles' chart on both sides of the
    # wall, with m = e^{2l} or e^{2 i beta} (tests/test_incidence_identities.py,
    # tests/test_gc_disk_identities.py), at the vertices and at p_V, p_W; a
    # multiplier turned the wrong way does not act
    ff = FaceFamily(alpha2)
    m = chart_multiplier(ff)
    if ff.side.length is not None:
        assert m == math.exp(2 * ff.side.length)
    else:
        assert m == pytest.approx(complex(math.cos(2 * ff.side.beta), math.sin(2 * ff.side.beta)), abs=1e-15)
    z = oriented_chart(ff).values(point_table(ff)[[P_A, P_B, P_V, P_W, U_PA, U_PB, U_PV, U_PW]])

    def action(m):
        mz = m * z[:4]
        return float((np.abs(z[4:] - mz) / np.maximum(1.0, np.abs(mz))).max())

    assert action(m) <= 1e-12
    assert action(m.conjugate() if ff.side.length is None else 1 / m) > 1e-3


@pytest.mark.parametrize("tol", [1e-14, 1e-9])
def test_chart_exists_exactly_off_the_wall(tol):
    # one wall: the chart is None exactly where param_side reads unipotent,
    # whatever the tolerance, with |tr U - 3| below and above 1e-12
    for a2 in ALPHA2_LIM + np.array([0.0, 1e-13, -1e-13, 1e-10, -1e-10]):
        ff = FaceFamily(float(a2), tol)
        unipotent = param_side(float(a2), tol).kind is SideKind.UNIPOTENT
        assert (oriented_chart(ff) is None) == unipotent and (chart_multiplier(ff) is None) == unipotent


@pytest.mark.parametrize("offset", [1e-13, 2e-14])
def test_wall_at_the_least_tolerance_gets_a_verdict(offset):
    # off the wall by param_side at tol 1e-14, with |tr U - 3| below 1e-12:
    # every check runs on p_U' and p_U'', and, param_side being the one
    # wall, the loxodromic side's slope follows
    r = verify(ALPHA2_LIM - offset, tol=1e-14, grid_n=128)
    assert r.side.kind is SideKind.LOXODROMIC
    assert r.verdict.kind is VerdictKind.SURGERY and (r.verdict.p, r.verdict.q) == (1, -3)
    assert r.all_passed()


@pytest.mark.parametrize(
    "label, alpha2",
    [(n, alpha2_for_order(n)) for n in (2810, 3000, 10**4, 5 * 10**4)]
    + [(-d, ALPHA2_LIM - d) for d in (1e-6, 2e-7, 1e-8)],
)
def test_verdict_near_the_wall_does_not_depend_on_tol(label, alpha2):
    # param_side alone decides the wall: wherever it reads a side, every
    # tol gives that side's slope, 1/(n - 3) at order n and -1/3 beside the
    # wall on the loxodromic side
    want = (1, label - 3) if label > 0 else (1, -3)
    for tol in (1e-7, 1e-9, 1e-11, 1e-14):
        if param_side(alpha2, tol).kind is SideKind.UNIPOTENT:
            continue
        v = verify(alpha2, tol=tol, grid_n=128).verdict
        assert (v.kind, v.p, v.q) == (VerdictKind.SURGERY, *want), tol


@pytest.mark.parametrize("offset", [1e-9, 1e-12, 1.2e-15])
def test_degenerate_tori_near_pi_over_2_fail_without_warnings(offset):
    # the tori collapse as cos^4(alpha2) -> 0 (tests/test_face_family_identities.py):
    # the sampled pass of 64 columns (oracles.torus_pass) meets no ball
    # there and fails, reading inf, while verify reads TF's margin at the
    # band edge, which tends to 2/3 (tests/test_tf_margin_identities.py), and
    # TF and LC pass; no floating-point warning is raised on either way
    alpha2 = math.pi / 2 - offset
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sampled = torus_pass(FaceFamily(alpha2), 128)
        r = verify(alpha2, grid_n=128)
    assert math.isinf(sampled)
    assert r.verdict.kind is VerdictKind.INCONCLUSIVE and r.gc.skipped
    assert r.tf.passed and r.lc.passed and r.lc.notes == []
    assert r.tf.margins["torus_exclusion"] == pytest.approx(2 / 3, rel=1e-12, abs=0)
    assert [n for n in r.tf.notes if "band edge" in n] == r.tf.notes != []


@pytest.mark.parametrize("alpha2", [math.pi / 2 - 1e-8, math.pi / 2 - 1e-12])
def test_order_three_near_pi_over_2_has_its_own_note(alpha2):
    # within about 1.3e-8 of pi/2, tr U = 8 cos^2(alpha2) falls in the window
    # of the turn 1/3, and param_side reads order 3, which --n refuses: GC's
    # skip note names order 3 as the slice's limit at pi/2, not among the
    # orders 4..8 of the triangle-group literature, whose note keeps its bytes
    rep = verify(alpha2)
    note = (
        "angular-sector method requires order >= 9; "
        "order 3 is the alpha2 -> pi/2 limit of the slice, where tr U = 8 cos^2(alpha2) -> 0"
    )
    assert rep.side.n == 3 and rep.gc.skipped and not rep.gc.passed and rep.gc.notes == [note]
    assert rep.verdict.kind is VerdictKind.INCONCLUSIVE and rep.verdict.reason == note
    literature = (
        "angular-sector method requires order >= 9; "
        "orders 4..8 are settled in the triangle-group literature by other techniques"
    )
    assert [verify(alpha2_for_order(n)).gc.notes for n in range(4, 9)] == [[literature]] * 5


@pytest.mark.parametrize("alpha2", [0.0, -0.3, math.pi / 2, 1.6, 3.0, math.nan, math.inf, -math.inf])
def test_verify_refuses_a_parameter_outside_the_slice(alpha2):
    # every proof behind a report holds on (0, pi/2) alone: outside it, and
    # at nan, verify raises GeometryError (it read slope -1/3 with every
    # check passed at 0, -0.3 and 3.0, and raised a bare ValueError from the
    # trace rule at nan), which the CLI's one-parameter runner reports as
    # that parameter's error line
    from crlab.cli import _verify_one

    with pytest.raises(GeometryError, match="outside"):
        verify(alpha2)
    line, failed = _verify_one((alpha2, 720, None, None))
    assert failed and line.startswith(f"alpha2={'%.17g' % alpha2}: error (") and "outside (0, pi/2)" in line


@pytest.mark.parametrize(
    "alpha2",
    [5e-324, 1e-16, math.nextafter(math.pi / 2, 0.0)]
    + [alpha2_for_order(9), alpha2_for_order(56), ALPHA2_LIM, alpha2_for_length(1.0), 1.3, 1.569, math.pi / 2 - 1e-9],
)
def test_verify_reports_up_to_the_ends_of_the_slice(alpha2):
    # the last doubles inside (0, pi/2) still get a report, and no warning,
    # as do parameters on both sides of the wall and of ALPHA2_STAR, up to
    # pi/2 - 1e-9, where the sampled pass reads inf: TF and LC pass, and
    # TF's bi-tangency residuals are the proved zeros
    # (tests/test_bitangency_identities.py)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = verify(alpha2)
    assert r.alpha2 == alpha2 and r.tf.passed and r.lc.passed
    assert r.tf.residuals == {"bitangency_pA": 0.0, "bitangency_pB": 0.0}


def test_tf_structure(ff_lox):
    res = tf_check(ff_lox)
    assert res.passed
    assert res.margins["torus_exclusion"] > 0
    assert res.residuals["bitangency_pA"] <= 1e-4
    assert res.residuals["bitangency_pB"] <= 1e-4
    # TF reports only what can fail at a parameter; its identities in
    # alpha2 are proved in tests/test_tf_identities.py, its complex-line
    # locus in tests/test_line_and_contact_identities.py, and its vertices
    # at the ends of the column delta_v in tests/test_vertex_identities.py
    assert sorted(res.margins) == ["torus_exclusion"]
    assert sorted(res.residuals) == ["bitangency_pA", "bitangency_pB"]


@pytest.mark.parametrize("alpha2", [1e-12, 1e-13, 1e-14])
def test_tf_reads_the_complex_line_at_delta0_near_zero(alpha2):
    # delta0 tends to -pi/2 as alpha2 -> 0 and is that limit at 0.  TF's
    # complex-line locus meets the first torus on the column delta0 mod pi
    # (tests/test_line_and_contact_identities.py): on the program's rows,
    # <lpole, qr> and <lpole, B(delta0)> vanish to rounding down to the least
    # parameters, and |<lpole, B(delta0 + pi/2)>| = 2 |<lpole, pr>| = 2 sqrt2
    # c^2 sqrt(8 s^2 + 1).  Every check passes, and the slope is -1/3
    assert delta0(0.0) == -math.pi / 2
    assert delta0(alpha2) == pytest.approx(-math.pi / 2, abs=1e-11)
    r = verify(alpha2, grid_n=128)
    torus, c, s = face_torus(FaceFamily(alpha2)), math.cos(alpha2), math.sin(alpha2)
    lpole = np.array([s, -1j * math.sqrt(2.0) / 2.0, -s])
    d0 = delta0(alpha2)
    at, off = (abs(torus.space.form(lpole, np.exp(-1j * d) * torus.pr + np.exp(1j * d) * torus.qp)) for d in (d0, d0 + math.pi / 2))
    assert abs(torus.space.form(lpole, torus.qr)) <= 1e-15 * np.abs(torus.qr).max()
    assert at <= 1e-15 * np.abs(torus.pr).max()
    assert off == pytest.approx(2.0 * math.sqrt(2.0) * c * c * math.sqrt(8.0 * s * s + 1.0), rel=1e-12, abs=0)
    assert r.all_passed()
    assert (r.verdict.kind, r.verdict.p, r.verdict.q) == (VerdictKind.SURGERY, 1, -3)


def test_tf_at_unipotent_wall():
    # the tangency criterion holds on the wall too
    # (tests/test_face_family_identities.py): TF skips nothing there
    ff = FaceFamily(ALPHA2_LIM)
    res = tf_check(ff)
    assert res.passed
    assert not any("criterion" in n or "unipotent" in n for n in res.notes)


def test_tf_at_fan_and_cone_parameters():
    for a2 in (math.pi / 6, 0.45):
        res = tf_check(FaceFamily(a2))
        assert res.passed


def test_lc_structure(ff_lox):
    res = lc_check(ff_lox)
    assert res.passed
    # LC's claims on both face pairs rest on TF's pass, whose margin TF
    # reports once; the slice's involution carries the plus pair's pass onto
    # it (tests/test_lc_identities.py), so LC reports no margin of its own
    assert res.margins == {} and res.notes == []
    # TF's margin at 0.7 is the closed form (tests/test_tf_margin_identities.py),
    # LC forms no array, and the sampled pass is never below the margin
    fresh = FaceFamily(0.7)
    assert lc_check(fresh).passed and sorted(vars(fresh)) == ["alpha2", "side", "tf_margin", "tol"]
    assert tf_check(ff_lox).margins["torus_exclusion"] == ff_lox.tf_margin == exclusion_margin(0.7) > 0
    assert torus_pass(ff_lox, GRID) >= ff_lox.tf_margin
    # the vertices at the ends of the column delta_v are proved once
    # (tests/test_vertex_identities.py)
    assert res.residuals == {}


@pytest.mark.parametrize("minus", [-1e-3, 0.0, math.inf, math.nan])
def test_a_failing_tf_pass_fails_lc(minus, monkeypatch):
    # LC's claims on both face pairs rest on TF's margin, which LC does
    # not report: where that margin is not finite and positive, LC fails
    # with TF, and its one note names both pairs and TF's margin without
    # repeating it
    monkeypatch.setattr(FaceFamily, "tf_margin", property(lambda self: minus))
    r = verify(0.7, grid_n=128)
    assert not r.tf.passed and not r.lc.passed
    assert r.lc.margins == {}
    (note,) = r.lc.notes
    assert all(key in note for key in ("tf.torus_exclusion", "faces_minus_minus", "faces_plus_plus"))
    assert repr(minus) not in note and not any(ch.isdigit() for ch in note)
    assert r.verdict.kind is VerdictKind.INCONCLUSIVE and r.verdict.reason == "a check failed"


def _lc_triple_types(ff):
    """`symmetric_intersection_type` of LC's triples (p_U, p_V, p_W) and
    (p_U, U p_V, p_W) at a FaceFamily's parameter."""
    pts = family_points(ff)
    return [symmetric_intersection_type(pts.p_U, q, pts.p_W, ff.tol) for q in (pts.p_V, apply(family_U(ff), pts.p_V))]


def test_lc_u_value_at_wall():
    ff = FaceFamily(ALPHA2_LIM)
    res = lc_check(ff)
    # u = (2/3)(4 cos^2 - 3) = (2/3)(3/2 - 3) = -1 at the wall, read by the
    # per-object oracle on LC's two triples
    sym = _lc_triple_types(ff)
    assert [s.u for s in sym] == pytest.approx([-1.0, -1.0], abs=1e-12)
    assert [s.kind for s in sym] == [SymmetricKind.DISK] * 2
    assert res.passed


def test_lc_fan_focus_identities():
    ff = FaceFamily(math.pi / 6)
    res = lc_check(ff)
    assert res.passed
    # the slice-circle identities are proved in
    # tests/test_gc_identities.py::test_fan_slice_circle_identities; by them
    # the focus 3 pi/2 sits in the arc [7 pi/6, 11 pi/6] between the
    # corrected vertex labels, so LC reads only TF's pass here too
    assert res.margins == {} and res.notes == []


def test_gc_loxodromic(ff_lox):
    res = gc_check_loxodromic(ff_lox)
    assert res.passed
    length = ff_lox.side.length
    # the disk, its mirror and the margin 2l - w > 0 hold at every length:
    # tests/test_gc_disk_identities.py; the mirror's margin is the same
    # number and is not reported
    assert res.margins["annulus_upper"] > 0
    assert sorted(res.margins) == ["annulus_upper"]
    # the marked contact value sits inside the annulus
    z = math.exp(-2 * length)
    assert math.exp(-2.5 * length) < z < math.exp(1.5 * length)


def _silhouette_extents(ff):
    """(log(|c| - r), log(|c| + r), arg c, asin(r/|c|)) of the numeric
    silhouettes of J_0^+ and J_0^- (`oracles.face_silhouettes`)."""
    out = []
    for sil in face_silhouettes(ff)[0]:
        c, r = abs(sil.center), sil.radius
        out.append((math.log(c - r), math.log(c + r), cmath.phase(sil.center), math.asin(r / c)))
    return out


@pytest.mark.parametrize("alpha2", [alpha2_for_length(x) for x in (0.25, 1.0, 1.75)] + [math.pi / 6])
def test_gc_annulus_margins_are_symmetric(alpha2):
    # the numeric silhouette disks of J_0^+ and J_0^- sit symmetrically in
    # their annuli (-5l/2, 3l/2) and (-3l/2, 5l/2): all four margins read
    # from them are the one closed-form margin verify reports
    ff = FaceFamily(alpha2)
    m = gc_check_loxodromic(ff).margins
    length = ff.side.length
    (lo_p, hi_p, _, _), (lo_m, hi_m, _, _) = _silhouette_extents(ff)
    for margin in (1.5 * length - hi_p, lo_p + 2.5 * length, 2.5 * length - hi_m, lo_m + 1.5 * length):
        assert margin == pytest.approx(m["annulus_upper"], rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [9, 12, 100])
def test_gc_sector_margins_are_symmetric(n):
    # the numeric silhouette disk of J_0^+ is centred on the ray -beta/2
    # between the two guard rays -5 beta/2 and 3 beta/2, and J_0^-'s on its
    # mirror: both sides of both are the one closed-form margin
    ff = FaceFamily(alpha2_for_order(n))
    m = gc_check_elliptic(ff).margins
    beta = 2 * math.pi / n
    (_, _, mid_p, half_p), (_, _, mid_m, half_m) = _silhouette_extents(ff)
    for margin in (1.5 * beta - (mid_p + half_p), (mid_p - half_p) + 2.5 * beta, 2.5 * beta - (mid_m + half_m), (mid_m - half_m) + 1.5 * beta):
        assert margin == pytest.approx(m["sector_upper"], rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [9, 100, 2809])
def test_gc_p_maximum_is_exact(n):
    # the guard-ray polynomial P(k) = c0 + c1 k + c2 k^2 that
    # tests/test_gc_identities.py proves negative, from the program's h1, h2:
    # its maximum over k >= 0 is the vertex value, negative, and a dense
    # sampling of P never exceeds it
    ff = FaceFamily(alpha2_for_order(n))
    a_h1, a_h2 = np.abs(face_gram(ff)[[P_U1, P_U2], P_V]) ** 2
    beta = 2 * math.pi / n
    c0, c2 = a_h2 * (1 - a_h1 / 18), a_h1 * (1 - a_h2 / 18)
    c1 = 24 * math.cos(2 * beta) * (2 * math.cos(beta) + 1) * math.cos(beta / 2)
    p_max = c0 - c1 * c1 / (4 * c2)
    assert c0 < 0 and c2 < 0 < c1 and p_max < 0
    ks = np.linspace(0.0, -c1 / c2, 100001)
    sampled = (c0 + c1 * ks + c2 * ks * ks).max()
    assert sampled <= p_max + 1e-12 * abs(c0)
    assert p_max == pytest.approx(sampled, abs=1e-8 * abs(c0))


def test_gc_h_identities_at_05():
    ff = FaceFamily(0.5)
    res = gc_check_loxodromic(ff)
    # the h identities: tests/test_gc_identities.py, tied to the Gram table
    # at 0.5 by test_symbolic_h_are_the_programs
    assert res.passed


def test_gc_elliptic(ff_n12):
    res = gc_check_elliptic(ff_n12)
    assert res.passed
    # the certificate's signs and the h identities hold at every order
    # n >= 9: tests/test_gc_identities.py
    assert sorted(res.margins) == ["cone_separation", "sector_upper"]
    assert res.margins["sector_upper"] > 0
    assert res.margins["cone_separation"] > 0


def test_gc_elliptic_n9_true_diameter_note():
    ff = FaceFamily(alpha2_for_order(9))
    res = gc_check_elliptic(ff)
    assert res.passed
    assert res.residuals["value_true_angular_diameter"] > math.pi / 3
    assert any("pairwise cone margins" in n for n in res.notes)


def test_gc_elliptic_n8_inconclusive():
    ff = FaceFamily(alpha2_for_order(8))
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
    ff = FaceFamily(alpha2_for_order(922))
    res = gc_check_elliptic(ff)
    assert res.passed and not res.skipped
    assert ff.side.n == 922
    assert res.margins["cone_separation"] > 1e-3


def _mp_cone_reference(n=None, alpha2=None, ks=()):
    """A 60-digit rebuild of rho_s, rho_t at the order-n parameter or at the
    float alpha2, with explicit powers of U: the angles at p_U from p_V to
    U^k p_V and to U^k p_W (k in ks), the cone radius rho, and the guard
    margins of J_0^+'s projected disk, sector_* on the elliptic side (with
    beta and rho) and annulus_* on the loxodromic side, as floats; and
    "disks", the (centre, radius) of the projected disks of J_0^+ and J_0^-.

    The disk of J_0^+ is the chart image of the null circle of the slice
    with pole p_U - eps p_V, eps = -sign <p_U, p_V>, read off three of its
    points: the circle through their images; that of J_0^- alike, with p_W.  The chart rows are `face_points`'
    eigenvectors, in the order `FaceFamily` takes them."""
    import mpmath as mp

    with mp.workdps(60):
        a2 = mp.acos(mp.sqrt((2 * mp.cos(2 * mp.pi / n) + 1) / 8)) if n else mp.mpf(alpha2)
        e = mp.expj(a2)
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

        tr = 8 * mp.cos(a2) ** 2
        elliptic = tr < 3
        out = {"angles": np.array([[float(angle(U**k * t)) for t in (pV, pW)] for k in ks])}
        if elliptic:
            c2 = mp.re(abs(ip(pU, pV)) ** 2 / (ip(pU, pU) * ip(pV, pV)))
            out["rho"] = float(mp.acos(mp.tanh(mp.acosh(mp.sqrt(c2)) / 2)))

        delta = mp.sqrt(mp.mpc((tr - 3) * (tr + 1)))

        def eigenvector(dl):
            return mp.matrix([2 * (2 * e * e + 1), -x1 * e * (2 * e * e + 1 + dl), -(tr + 1) - dl])

        p1, p2 = (eigenvector(delta), eigenvector(-delta)) if elliptic else (eigenvector(-delta), eigenvector(delta))

        def disk(q):
            # the slice of pole p_U + sign(<p_U, q>) q: w z = 0 for w = conj(J
            # pole), spanned by a and b off the largest |w_k|; its null points a
            # + tau b lie on |tau - tau0| = radius, and three of them give the
            # circle through their chart images
            pole = pU + mp.sign(mp.re(ip(pU, q))) * q
            w = [mp.conj(v) for v in J * pole]
            k = max(range(3), key=lambda i: abs(w[i]))
            ia, ib = [m for m in range(3) if m != k]
            a, b = mp.matrix(3, 1), mp.matrix(3, 1)
            a[ia], a[k], b[ib], b[k] = w[k], -w[ia], w[k], -w[ib]
            baa, bab, bbb = mp.re(ip(a, a)), ip(a, b), mp.re(ip(b, b))
            tau0 = -mp.conj(bab) / bbb
            radius = mp.sqrt(abs(bab) ** 2 - baa * bbb) / abs(bbb)
            z1, z2, z3 = (
                ip(p1, z) / ip(p2, z)
                for z in (a + (tau0 + radius * mp.expj(2 * mp.pi * j / 3)) * b for j in range(3))
            )
            num = abs(z1) ** 2 * (z2 - z3) + abs(z2) ** 2 * (z3 - z1) + abs(z3) ** 2 * (z1 - z2)
            den = mp.conj(z1) * (z2 - z3) + mp.conj(z2) * (z3 - z1) + mp.conj(z3) * (z1 - z2)
            centre = num / den
            return centre, abs(z1 - centre)

        disks = [disk(q) for q in (pV, pW)]
        out["disks"] = [(complex(centre), float(r)) for centre, r in disks]
        (centre, r), c = disks[0], abs(disks[0][0])
        if elliptic and r < c:
            # a disk that misses 0 (every order n >= 9) has a sector
            beta, mid, half = mp.acos((tr - 1) / 2), mp.arg(centre), mp.asin(r / c)
            out.update(beta=float(beta), sector_upper=float(1.5 * beta - (mid + half)), sector_lower=float(mid - half + 2.5 * beta))
        elif not elliptic:
            length = mp.acosh((tr - 1) / 2)
            out.update(annulus_upper=float(1.5 * length - mp.log(c + r)), annulus_lower=float(mp.log(c - r) + 2.5 * length))
    return out


@pytest.mark.parametrize("n", [9, 100, 922, 2809, 10**4])
def test_cone_angles_match_mpmath_reference(n):
    # the Gram-table cone rows (oracles.cone_angles) and the closed-form cone
    # margin against 60 digits: the reported margin is the pair (2, plus),
    # and no sampled pair is tighter; (n - 2, minus) is the vertex-contact
    # pair, at margin 0, which the tangency proof covers
    ff = FaceFamily(alpha2_for_order(n))
    res = gc_check_elliptic(ff)
    ks = sorted({2, 3, n // 2 - 1, n // 2 + 1, n - 3, n - 2})
    ref = _mp_cone_reference(n=n, ks=ks)
    assert np.abs(cone_angles(ff, ks) - ref["angles"]).max() <= 1e-9
    assert res.residuals["value_true_angular_diameter"] == pytest.approx(2 * ref["rho"], rel=1e-12, abs=0)
    margins = ref["angles"] - 2.0 * ref["rho"]
    assert margins[ks.index(n - 2), 1] == pytest.approx(0.0, abs=1e-9)
    margins[ks.index(n - 2), 1] = math.inf
    assert res.margins["cone_separation"] == pytest.approx(margins[0, 0], rel=1e-12, abs=0)
    assert margins.min() == margins[0, 0]


@pytest.mark.parametrize("n", [9, 100, 922, 2809, 10**4])
def test_gc_sector_margins_match_mpmath_reference(n):
    # the closed-form sector margin is both margins of the 60-digit disk (the
    # rotated-sector gap, their sum, is not reported)
    res = gc_check_elliptic(FaceFamily(alpha2_for_order(n)))
    ref = _mp_cone_reference(n=n)
    assert ref["beta"] == pytest.approx(2 * math.pi / n, rel=1e-15, abs=0)
    for key in ("sector_upper", "sector_lower"):
        assert res.margins["sector_upper"] == pytest.approx(ref[key], rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [4, 5, 8, 9, 20, 100, 2809, 10**4])
def test_elliptic_disks_match_mpmath_reference(n):
    # the closed-form centres and radii of family.elliptic_disks against the
    # 60-digit circles, on both sides of the sign changes of the centres'
    # denominators (orders 4..5 and 8..9)
    plus, minus, sin_half = elliptic_disks(n)
    for centre, (want, radius) in zip((plus, minus), _mp_cone_reference(n=n)["disks"]):
        assert abs(centre - want) <= 1e-12 * abs(want)
        assert abs(centre) * sin_half == pytest.approx(radius, rel=1e-12, abs=0)


@pytest.mark.parametrize("length", [0.25, 1.0, 1.75, 1e-2, 1e-4, 1e-5])
def test_gc_annulus_margins_match_mpmath_reference(length):
    # relative to the margin, which shrinks with l: param_side's length keeps
    # its relative digits up to the wall, and so does 2l - w (the parent's
    # acosh form of l was 2e-8 off at length 1e-5)
    alpha2 = alpha2_for_length(length)
    res = gc_check_loxodromic(FaceFamily(alpha2, tol=1e-14))
    ref = _mp_cone_reference(alpha2=alpha2)
    # the one reported margin is both margins of the 60-digit disk
    for key in ("annulus_upper", "annulus_lower"):
        assert abs(res.margins["annulus_upper"] - ref[key]) <= 1e-12 * ref[key]


@pytest.mark.parametrize("n", [10, 50, 56, 100, 1000])
def test_tightest_cone_pair_note_names_the_smallest_tie(n):
    # the tightest pair is proved (tests/test_gc_disk_identities.py), so GC
    # names none: k = 2 and k = n - 2 of the plus family have the same exact
    # angle 2 beta, rounding alone orders them in the oracle rows, and no
    # other pair is within rounding of them
    ff = FaceFamily(alpha2_for_order(n))
    res = gc_check_elliptic(ff)
    ks = np.arange(2, n - 1)
    margins = cone_angles(ff, ks) - res.residuals["value_true_angular_diameter"]
    margins[-1, 1] = math.inf
    ties = np.argwhere(margins <= margins.min() + 8 * np.spacing(math.pi)).tolist()
    assert ties == [[0, 0], [n - 4, 0]]
    assert res.margins["cone_separation"] == pytest.approx(margins.min(), abs=1e-14)
    assert res.notes == []


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
    assert all(c.passed for c in (r.tf, r.lc, r.gc) if not c.skipped)


@pytest.mark.parametrize(
    "alpha2", [alpha2_for_order(10**4), ALPHA2_LIM - 1e-6, ALPHA2_LIM + 1e-6]
)
def test_verify_near_the_wall_reports(alpha2):
    # parameters close to the wall get a report; an inconclusive one says
    # what could not be certified: every check that fails carries a note
    r = verify(alpha2, grid_n=64)
    if r.verdict.kind is VerdictKind.SURGERY:
        assert r.all_passed()
        return
    assert r.verdict.kind is VerdictKind.INCONCLUSIVE
    assert all(c.notes for c in (r.tf, r.lc, r.gc) if not c.passed)


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 12, 56)]
    + [alpha2_for_length(x) for x in (0.25, 1.0, 1.75)]
    + np.linspace(0.05, 1.5, 12).tolist(),
)
def test_each_margin_is_reported_once(alpha2):
    # no two margins of a report are the same number, or one twice the
    # other: report-v9 carried faces_minus_minus = torus_exclusion,
    # annulus_lower = annulus_upper and rotated_sector_gap = 2 sector_upper
    r = verify(alpha2)
    margins = [(f"{c.name}.{k}", v) for c in (r.tf, r.lc, r.gc) for k, v in c.margins.items()]
    assert margins[0][0] == "tf.torus_exclusion" and r.lc.margins == {}
    for i, (a, x) in enumerate(margins):
        for b, y in margins[i + 1 :]:
            assert not any(math.isclose(x, ratio * y, rel_tol=1e-9) for ratio in (0.5, 1.0, 2.0)), (a, b, x, y)


def _key_paths(d, prefix=""):
    """The dotted paths of a report dict's leaves; an empty dict is a leaf."""
    out = []
    for k, v in d.items():
        out += _key_paths(v, f"{prefix}{k}.") if isinstance(v, dict) and v else [prefix + k]
    return sorted(out)


@pytest.mark.parametrize(
    "alpha2, gc_margins, gc_residuals",
    [
        (alpha2_for_length(1.0), ["annulus_upper"], []),
        (alpha2_for_order(9), ["cone_separation", "sector_upper"], ["value_true_angular_diameter"]),
        (alpha2_for_order(100), ["cone_separation", "sector_upper"], ["value_true_angular_diameter"]),
        (alpha2_for_order(6), [], []),
        (ALPHA2_LIM, [], []),
    ],
    ids=["loxodromic", "order 9", "order 100", "order 6", "wall"],
)
def test_report_v10_key_sets(alpha2, gc_margins, gc_residuals):
    # every report-v11 key, pinned per side: no counts, no top-level notes,
    # and each margin once; LC reports none
    def check(name, margins, residuals):
        keys = [f"checks.{name}.{k}" for k in ("name", "notes", "passed", "skipped")]
        for group, names in (("margins", margins), ("residuals", residuals)):
            keys += [f"checks.{name}.{group}.{k}" for k in names] or [f"checks.{name}.{group}"]
        return keys

    top = ["alpha2", "grid_n", "schema", "tolerance", "tr_u", "verdict.kind", "verdict.reason", "verdict.slope"]
    side = [f"side.{k}" for k in ("beta", "delta", "kind", "length", "n")]
    want = top + side + check("tf", ["torus_exclusion"], ["bitangency_pA", "bitangency_pB"])
    want += check("lc", [], []) + check("gc", gc_margins, gc_residuals)
    assert _key_paths(verify(alpha2, grid_n=128).to_dict()) == sorted(want)


def test_report_schema():
    r = verify(0.7, grid_n=96)
    d = r.to_dict()
    assert d["schema"] == "report-v11"
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
            z = HVec(rng.normal(size=3) + 1j * rng.normal(size=3), siegel_model())
            r0 = abs(inner(z, pts.p_U)) - abs(inner(z, pts.p_V))
            zk = apply(power(U, k), z)
            rk = abs(inner(zk, pts.p_U)) - abs(inner(zk, q))
            assert rk == pytest.approx(r0, abs=1e-9 * max(1.0, abs(r0)))


def test_u_power_point_bisectors_build_at_orders_30_to_100():
    # a product of k matrices drifted the norm of U^k p until classify_bisector
    # rejected the pair (orders 90 and 100, k = n - 1)
    for n in range(30, 101):
        ff = FaceFamily(alpha2_for_order(n))
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
    ff = FaceFamily(alpha2_for_order(n))
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
        assert got.norm() == pytest.approx(pts.p_V.norm(), rel=1e-6, abs=0)


@pytest.mark.parametrize("n", [2809, 9789, 60636])
def test_u_power_point_keeps_its_digits_near_the_wall(n):
    # at |k| <= 2, the point table's translates: the eigenbasis form was 3e-4
    # off at order 60636 and the difference quotient for f[1,a,b] 1.3e-11;
    # the closed form is within 1e-14
    ff = FaceFamily(alpha2_for_order(n))
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
    sp = siegel_model()
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


@pytest.mark.parametrize(
    "alpha2",
    [alpha2_for_order(n) for n in (9, 12, 50)]
    + [ALPHA2_LIM]
    + [alpha2_for_length(ln) for ln in (0.3, 1.0, 1.7)],
)
def test_vertex_location_closed_form(alpha2):
    # both Giraud circles bounding the first face pass through p_A and p_B,
    # and the closed-form angles land on each vertex to rounding
    ff = FaceFamily(alpha2)
    pts = family_points(ff)
    for r in (pts.p_W, apply(family_U(ff).inv(), pts.p_W)):
        circle = giraud_torus(classify_bisector(pts.p_U, pts.p_V, ff.tol), classify_bisector(pts.p_U, r, ff.tol), ff.tol)
        _, lifts, dist = giraud_circle_tangents(circle.lifts, circle.rows, np.array([pts.p_A.v, pts.p_B.v]), siegel_model())
        assert dist.max() <= 1e-12
        for lift, target in zip(lifts, (pts.p_A, pts.p_B)):
            assert proj_distance(HVec(lift, siegel_model()), target) <= 1e-12


def test_h_identities_twenty_parameters_per_side():
    # h1 = <p_U', p_V> and h2 = <p_U'', p_V>, GC's reads of the Gram table
    rng = np.random.default_rng(77)
    for a2 in rng.uniform(0.05, ALPHA2_LIM - 0.02, 20):
        ff = FaceFamily(float(a2))
        h1, h2 = face_gram(ff)[[P_U1, P_U2], P_V]
        ln = ff.side.length
        t = 2 * math.cosh(ln) + 1
        ch = math.cosh(ln / 2)
        assert abs(abs(h1) ** 2 - 12 * math.exp(ln / 2) * t * ch) <= 1e-8 * abs(h1) ** 2
        assert abs(abs(h2) ** 2 - 12 * math.exp(-ln / 2) * t * ch) <= 1e-8 * max(1, abs(h2) ** 2)
    for a2 in rng.uniform(ALPHA2_LIM + 0.02, math.pi / 2 - 0.05, 20):
        ff = FaceFamily(float(a2))
        h1, h2 = face_gram(ff)[[P_U1, P_U2], P_V]
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
    # around the vertex column; TF's margin is read at the band's edge in
    # closed form (tests/test_tf_margin_identities.py), so every margin is
    # finite, and a coarse grid reports the checks of the default one
    rep = verify(alpha2, grid_n=grid)
    for check in (rep.tf, rep.lc):
        assert check.passed
        assert all(0.0 < m < math.inf for m in check.margins.values())
    assert rep.to_dict()["checks"] == verify(alpha2).to_dict()["checks"]


@pytest.mark.parametrize("alpha2", [3e-4, 1e-4, 1e-6, 1e-8])
def test_lc_passes_near_alpha2_zero(alpha2):
    # there u = (2/3)(4 cos^2 alpha2 - 3) sits in the per-object oracle's band
    # around 2/3, which reads TRI_CIRCLE_DISK; the disk type is proved at
    # every alpha2 (2/3 - u = (8/3) sin^2 alpha2, tests/test_lc_identities.py)
    rep = verify(alpha2)
    assert rep.verdict.kind is VerdictKind.SURGERY and (rep.verdict.p, rep.verdict.q) == (1, -3)
    assert all(c.passed for c in (rep.tf, rep.lc, rep.gc) if not c.skipped)
    sym = _lc_triple_types(FaceFamily(alpha2))
    assert [s.u for s in sym] == pytest.approx([(2 / 3) * (4 * math.cos(alpha2) ** 2 - 3)] * 2, abs=1e-6)
    assert [s.kind for s in sym] == [SymmetricKind.TRI_CIRCLE_DISK] * 2


@pytest.mark.parametrize("alpha2", [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-5, 1e-3])
def test_alpha2_zero_end_reads_minus_one_third_at_every_tol(alpha2):
    # the vertices are the ends of the column delta_v at every alpha2
    # (tests/test_vertex_identities.py), so TF and LC decide from their
    # margins, which stay put as alpha2 -> 0: every check passes and the
    # slope is -1/3 at every tol
    for tol in (1e-7, 1e-9, 1e-11, 1e-14):
        r = verify(alpha2, tol=tol)
        assert r.all_passed(), tol
        assert (r.verdict.kind, r.verdict.p, r.verdict.q) == (VerdictKind.SURGERY, 1, -3), tol


def test_one_verdict_at_every_tol_near_pi_over_2():
    # 1.569 is no finite-order rotation: inconclusive at every tol, with the
    # same flags, since no check reads a gate in tol there
    reports = [verify(1.569, tol=tol) for tol in (1e-7, 1e-9, 1e-11, 1e-14)]
    outcomes = {(r.verdict.kind, r.verdict.reason, tuple(c.passed for c in (r.tf, r.lc, r.gc))) for r in reports}
    assert len(outcomes) == 1
    assert reports[0].verdict.kind is VerdictKind.INCONCLUSIVE


@pytest.mark.parametrize("alpha2, grid, empty", [(1.569, 64, True), (1.56, 720, False)])
def test_empty_ball_band_is_named(alpha2, grid, empty):
    # where the ball band at delta_v is narrower than the column spacing no
    # sampled column meets the ball, and the sampled pass (oracles.torus_pass)
    # reads inf; verify reads no column: its margin is the band edge's closed
    # form at every grid, finite and never above the sampled pass, and its
    # one TF note names the band edge, so TF and LC pass with no note of an
    # empty sample
    rep = verify(alpha2, grid_n=grid)
    sampled = torus_pass(FaceFamily(alpha2), grid)
    assert math.isinf(sampled) == empty
    margin = rep.tf.margins["torus_exclusion"]
    assert margin == exclusion_margin(alpha2)
    assert 0.0 < margin < sampled
    (note,) = rep.tf.notes
    assert "band edge" in note and "sampled" not in note
    assert rep.tf.passed and rep.lc.passed and rep.lc.notes == []


def test_grid_below_two_is_rejected():
    # the grid sets nothing in verify, which echoes it as grid_n; the command
    # line rejects every grid outside [64, MAX_GRID], so grids 0 and 1 among
    # them, with exit code 2 before any parameter is verified
    from crlab import cli

    for grid in ("0", "1", "63"):
        assert cli.main(["verify", "--n", "9", "--grid", grid]) == 2
    assert verify(0.5, grid_n=2).grid_n == 2
    assert verify(0.5, grid_n=2).to_dict()["checks"] == verify(0.5, grid_n=720).to_dict()["checks"]


def test_torus_margins_do_not_depend_on_the_grid():
    # TF's margin is a closed form at every alpha2: 24c^2 / (8c^2 + 1) up to
    # ALPHA2_STAR and the band edge's above it, so grids 128 and 720 report
    # the same margin, exactly, below and above alpha* alike
    params = [alpha2_for_order(9), alpha2_for_order(2809), alpha2_for_length(1.0), math.pi / 6, 1.3, 1.5, 1.569]
    for a2 in params:
        margins = [verify(a2, grid_n=grid).tf.margins["torus_exclusion"] for grid in (128, 720)]
        assert margins[0] == margins[1] == exclusion_margin(a2), a2


# parameters on both sides of ALPHA2_STAR, up to pi/2 - 1e-9, where the
# sampled pass read inf
NO_COLUMN_PARAMS = [alpha2_for_order(9), alpha2_for_length(1.0), 1.3, 1.569, math.pi / 2 - 1e-9]
POINT_TABLE_PARAMS = [alpha2_for_order(9), alpha2_for_order(56), ALPHA2_LIM] + NO_COLUMN_PARAMS[1:]
COLUMN_STAGE = ("_column_sinusoids", "column_forms", "column_minima", "torus_exclusion", "passes", "torus_pass")
POINT_TABLE = ("face_points", "box_rows", "point_table")


@pytest.fixture(scope="module")
def fresh_verifies():
    # one fresh interpreter runs verify(alpha2, grid_n=720) at each parameter
    # and prints, after each, the crlab modules then loaded, which of them
    # define a column-stage or point-table name (read from the module's
    # namespace: the package's lazy exports are not loaded by the read),
    # whether numpy or the oracles are loaded, and TF's and LC's results
    code = (
        "import json, sys\n"
        "from crlab.verify import verify\n"
        "names = json.loads(sys.argv[1])\n"
        "for a2 in json.loads(sys.argv[2]):\n"
        "    r = verify(a2, grid_n=720)\n"
        "    mods = sorted(k for k in sys.modules if k.split('.')[0] in ('crlab', 'numpy', 'oracles'))\n"
        "    crlab = [k for k in mods if k.split('.')[0] == 'crlab']\n"
        "    defined = sorted(k + '.' + n for k in crlab for n in names if n in vars(sys.modules[k]))\n"
        "    print(json.dumps([a2, mods, defined, r.tf.passed, r.lc.passed, r.tf.residuals]))\n"
    )
    params = sorted(set(NO_COLUMN_PARAMS + POINT_TABLE_PARAMS))
    proc = run_fresh(code, json.dumps(COLUMN_STAGE + POINT_TABLE), json.dumps(params))
    assert proc.returncode == 0, proc.stderr
    runs = {a2: rest for a2, *rest in map(json.loads, proc.stdout.splitlines())}
    assert sorted(runs) == params
    return runs


@pytest.mark.parametrize("alpha2", NO_COLUMN_PARAMS)
def test_verify_runs_no_column_stage(alpha2, fresh_verifies):
    # TF's margin is the closed form scalar.exclusion_margin at every alpha2
    # in (0, pi/2) (tests/test_tf_margin_identities.py), on which LC's claims
    # for both face pairs rest (the slice's involution carries the plus
    # pair's pass onto TF's, tests/test_lc_identities.py): a verify in a
    # fresh interpreter loads only the modules of its import table
    # (tests/test_lint.py::PROGRAM_IMPORTS), neither numpy nor the oracles,
    # and no loaded module defines a column-stage name, below alpha* and
    # above it alike; the oracles' column stage agrees with TF and LC there
    mods, defined, tf_passed, lc_passed, _ = fresh_verifies[alpha2]
    assert mods == ["crlab", "crlab.report", "crlab.scalar", "crlab.verify"]
    assert [d for d in defined if d.rsplit(".", 1)[1] in COLUMN_STAGE] == []
    assert tf_passed and lc_passed
    ff = FaceFamily(alpha2)
    assert lc_check(ff).passed and tf_check(ff).passed


@pytest.mark.parametrize("alpha2", POINT_TABLE_PARAMS)
def test_verify_builds_no_point_table(alpha2, fresh_verifies):
    # a verify reads the side, the closed-form margin and GC: TF's margin is
    # scalar.exclusion_margin at every alpha2 (tests/test_tf_margin_identities.py)
    # and the tangency of the first face's circles is proved
    # (tests/test_bitangency_identities.py), so a verify in a fresh
    # interpreter loads neither the point table's module (crlab.reference)
    # nor the scalar products' (crlab.core), below alpha* and above it alike
    mods, defined, tf_passed, lc_passed, residuals = fresh_verifies[alpha2]
    assert "crlab.reference" not in mods and "crlab.core" not in mods
    assert [d for d in defined if d.rsplit(".", 1)[1] in POINT_TABLE] == []
    assert residuals == {"bitangency_pA": 0.0, "bitangency_pB": 0.0}
    assert tf_passed and lc_passed


def test_fan_residuals_match_per_sample_loops():
    # the fan's slice-circle identities and its arc, sampled one point at a
    # time on the scalar path
    ff = FaceFamily(math.pi / 6)
    pts = family_points(ff)
    UipW = apply(family_U(ff).inv(), pts.p_W)
    worst, member = 0.0, []
    for th in np.linspace(0.0, 2.0 * math.pi, 1441):
        q = HVec([1.0, math.sqrt(2.0) * np.exp(1j * th), -1.0], siegel_model())
        mu, mw, muw = (abs(inner(w, q)) ** 2 for w in (pts.p_U, pts.p_W, UipW))
        worst = max(
            worst,
            abs(mu - 2.0 * (1.0 + math.sin(th))),
            abs(mw - (6.0 * math.sqrt(3.0) * math.cos(th) + 2.0 * math.sin(th) + 11.0)),
            abs(muw - (-6.0 * math.sqrt(3.0) * math.cos(th) + 2.0 * math.sin(th) + 11.0)),
        )
        member.append(mu <= min(mw, muw) + 1e-12)
    # the identities of tests/test_gc_identities.py, on the scalar path
    assert worst <= 1e-12
    # the arc through the focus theta = 3 pi / 2 runs from 7 pi / 6 to 11 pi / 6
    assert member[1080] and not member[839] and not member[1321]
    assert all(member[840:1321])


@pytest.mark.parametrize(
    "alpha2",
    [a for _, a in golden_parameters()] + [ALPHA2_LIM + d for d in (-1e-6, 1e-6, -1e-10, 1e-10)],
)
def test_array_decisions_equal_the_per_object_oracle(alpha2):
    # on the golden-verdict parameters and near the wall, the per-object
    # forms of tests/oracles.py (scalar inner and box on single HVecs) read
    # what tests/test_face_family_identities.py and tests/test_lc_identities.py
    # prove at every alpha2: the three bisectors of p_U have equal-norm lifts
    # and one product -3/2 with p_U, so one kind, the pairs of TORI are
    # unbalanced, and both LC triples are disks, 2/3 - u =
    # (8/3) sin^2(alpha2), within the band 1e3 tol about 2/3 a tri-circle
    # disk.  With an order, the closed-form disks of family.elliptic_disks
    # are the per-object silhouettes of J_0^+ and J_0^-
    ff = FaceFamily(alpha2)
    pts, U = family_points(ff), family_U(ff)
    bs = [classify_bisector(pts.p_U, q, ff.tol) for q in (pts.p_V, pts.p_W, apply(U.inv(), pts.p_W))]
    assert len({b.kind for b in bs}) == 1
    assert [classify_pair(bs[i], bs[j], ff.tol) for i, j in TORI] == [ExtorPairKind.UNBALANCED] * 3
    disk = (8 / 3) * math.sin(alpha2) ** 2 > 1e3 * ff.tol
    assert [s.kind for s in _lc_triple_types(ff)] == [SymmetricKind.DISK if disk else SymmetricKind.TRI_CIRCLE_DISK] * 2
    if ff.side.n is not None:
        for sil, centre in zip(silhouette_circles(oriented_chart(ff), bs[:2], ff.tol), elliptic_disks(ff.side.n)[:2]):
            assert abs(sil.center - centre) <= 1e-11 * abs(centre)
