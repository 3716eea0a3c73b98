import cmath
import math

import numpy as np
import pytest

from crlab.core import HVec
from crlab.family import (
    ALPHA2_LIM,
    ALPHA2_LIM_REM,
    FamilyParams,
    FamilyRep,
    SideKind,
    alpha2_for_order,
    char_P,
    char_Q,
    discriminant_D,
    param_side,
    parse_word,
    schwartz_point,
)
from crlab.isometry import OMEGA, IsometryKind, verify_su21
from crlab.reference import (
    WORD_L1,
    WORD_L2,
    WORD_L2_LONG,
    WORD_M1,
    WORD_M2,
    WORD_RELATOR,
    alpha2_for_length,
    build_rep,
    char_variety_residuals,
    peripheral_type,
    proj_distance,
    proj_equal,
    region_Z,
    remarkable_points,
    schwartz_peripheral_matrix,
    trace_coords,
)

from conftest import sample_alpha2

from oracles import apply, involution_matrix, power


def proj_identity_residual(M):
    return min(np.abs(M - OMEGA**k * np.eye(3)).max() for k in range(3))


def test_build_rep_printed_matrices(siegel):
    rep = build_rep(FamilyParams(0.0, ALPHA2_LIM))
    s3, s5 = math.sqrt(3) / 2, math.sqrt(5) / 2
    S = np.array([[1, s3 - 1j * s5, -1], [-s3 - 1j * s5, -1, 0], [-1, 0, 0]])
    T = np.array([[0, 0, -1], [0, -1, -s3 + 1j * s5], [-1, s3 + 1j * s5, 1]])
    assert np.abs(rep.S.M - S).max() < 1e-12
    assert np.abs(rep.T.M - T).max() < 1e-12


def test_unipotent_product_and_real_point():
    for a1, a2 in ((0.0, 0.3), (0.4, -0.8), (-1.1, 1.2), (0.0, 0.0)):
        rep = build_rep(FamilyParams(a1, a2))
        assert abs((rep.S @ rep.T).trace() - 3.0) < 1e-12
        assert abs((rep.T @ rep.S).trace() - 3.0) < 1e-12
    rep0 = build_rep(FamilyParams(0.0, 0.0))
    assert np.abs(rep0.S.M.imag).max() < 1e-14
    assert rep0.word("s^-1t").trace() == pytest.approx(8.0)


def test_group_relations_random_params():
    rng = np.random.default_rng(42)
    for _ in range(20):
        a1 = float(rng.uniform(-1.4, 1.4))
        a2 = float(rng.uniform(-1.5, 1.5))
        rep = FamilyRep(FamilyParams(a1, a2))
        assert np.abs(np.linalg.matrix_power(rep.S.M, 3) - np.eye(3)).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(rep.T.M, 3) - np.eye(3)).max() < 1e-12
        assert proj_identity_residual(rep.word(WORD_RELATOR).M) < 1e-12
        m1, l1 = rep.word(WORD_M1), rep.word(WORD_L1)
        assert np.abs(l1.M - power(m1, 3).M).max() < 1e-12
        m2, l2 = rep.word(WORD_M2), rep.word(WORD_L2)
        assert np.abs(l2.M - power(m2, 3).M).max() < 1e-12
        # the two spellings of the second longitude agree projectively
        assert proj_identity_residual(
            rep.word(WORD_L2).inv().M @ rep.word(WORD_L2_LONG).M
        ) < 1e-12


def test_word_powers_are_read_mod_three():
    # rho(s)^3 = rho(t)^3 = I, so a power is read mod 3 with its sign: a
    # power of three billion is the identity at once (one matrix product
    # per unit of exponent would run for hours), and s^-3000000001 is the
    # exact inverse of s^-1, not a power of s
    rep = FamilyRep(FamilyParams(0.0, 0.5))
    assert np.array_equal(rep.word("s^3000000000").M, np.eye(3))
    assert rep.word("t^-3000000000s^3").M.tobytes() == np.eye(3, dtype=complex).tobytes()
    assert rep.word("s^-3000000001").M.tobytes() == rep.word("s^-1").M.tobytes()
    assert np.array_equal(rep.word("s^-1").M, rep.S.inv().M)
    assert rep.word("t^3000000002").M.tobytes() == rep.word("t^2").M.tobytes()


def test_parse_word():
    assert parse_word("ts^-1ts^2") == [("t", 1), ("s", -1), ("t", 1), ("s", 2)]
    assert parse_word("s^-2t^3") == [("s", -2), ("t", 3)]


def test_remarkable_points_fixed(rep07, pts07):
    pairs = [
        (rep07.S @ rep07.T, pts07.p_A),
        (rep07.T @ rep07.S, pts07.p_B),
        (rep07.word("s^-1t"), pts07.p_U),
        (rep07.T @ rep07.S.inv(), pts07.p_V),
        (rep07.S @ rep07.T @ rep07.S, pts07.p_W),
    ]
    for g, p in pairs:
        assert proj_distance(apply(g, p), p) < 1e-8
    # translation structure p_V = S p_U, p_W = S p_V, plus printed p_W
    assert proj_equal(pts07.p_V, apply(rep07.S, pts07.p_U))
    e = cmath.exp(0.7j)
    pW = np.array([-e * e, math.sqrt(2) * e**3 + math.sqrt(2) / 2 * e, e * e])
    assert np.abs(pts07.p_W.v - pW).max() < 1e-12


def test_delta_trace_identity():
    for a2 in sample_alpha2(10, seed=1):
        c8 = 8 * math.cos(a2) ** 2
        lhs = (c8 - 3) * (c8 + 1)
        rep = FamilyRep(FamilyParams(0.0, a2))
        tr = rep.word("s^-1t").trace().real
        assert lhs == pytest.approx((tr - 3) * (tr + 1), abs=1e-10)


def test_prime_vectors_are_eigenvectors(rep07, pts07):
    for vec, lam_kind in ((pts07.p_U_prime, "big"), (pts07.p_U_dprime, "small")):
        img = apply(rep07.word("s^-1t"), vec)
        assert proj_distance(img, vec) < 1e-8


def test_trace_coords_at_uniformization(rep_lim):
    tc = trace_coords(rep_lim)
    x0 = 7.5 - 1.5j * math.sqrt(15)
    assert abs(tc.z - 3) < 1e-12
    assert abs(tc.w - 3) < 1e-12
    assert abs(tc.x - x0) < 1e-12
    r1, r2 = char_variety_residuals(tc)
    assert r1 < 1e-9 and r2 < 1e-9
    assert char_Q(3, 3) == pytest.approx(15.0)
    assert char_P(3, 3) == pytest.approx(90.0)
    assert abs(tc.x) ** 2 == pytest.approx(90.0, abs=1e-10)


def test_char_variety_residuals_generic():
    for a1, a2 in ((0.0, 0.4), (0.5, 1.0), (-0.9, -0.2)):
        tc = trace_coords(FamilyRep(FamilyParams(a1, a2)))
        r1, r2 = char_variety_residuals(tc)
        assert r1 < 1e-9 and r2 < 1e-9
        assert abs(tc.z - 3.0) < 1e-12  # the slice coordinate


def test_order4_point_w_equals_one():
    rep = FamilyRep(FamilyParams(0.0, math.atan(math.sqrt(7))))
    tc = trace_coords(rep)
    assert abs(tc.w - 1.0) < 1e-12
    tst = rep.word("tst")
    assert proj_identity_residual(power(tst, 4).M) < 1e-12


def test_region_Z():
    assert discriminant_D(4.0, 4.0) == pytest.approx(1225.0)
    assert discriminant_D(4.0, 0.0) == pytest.approx(-135.0)
    inside, margin = region_Z(FamilyParams(0.0, 0.0))
    assert inside and margin == pytest.approx(1225.0)
    # the boundary crossing along alpha1 = 0 brackets between 0 and pi/2
    lo, hi = 0.0, math.pi / 2 - 1e-6
    assert region_Z(FamilyParams(0.0, lo))[0] and not region_Z(FamilyParams(0.0, hi))[0]
    for _ in range(60):
        mid = (lo + hi) / 2
        if region_Z(FamilyParams(0.0, mid))[0]:
            lo = mid
        else:
            hi = mid
    assert 0.0 < lo < math.pi / 2 and hi - lo < 1e-12


def test_peripheral_type_examples():
    assert peripheral_type(FamilyParams(0.0, ALPHA2_LIM)).kind is IsometryKind.UNIPOTENT
    assert peripheral_type(FamilyParams(0.0, 0.5)).kind is IsometryKind.LOXODROMIC
    assert peripheral_type(FamilyParams(0.0, 2 * math.pi / 5)).kind is IsometryKind.REGULAR_ELLIPTIC


def test_alpha2_for_order():
    # n -> infinity recovers the unipotent wall
    assert alpha2_for_order(10**9) == pytest.approx(ALPHA2_LIM, abs=1e-8)
    assert alpha2_for_order(4) == pytest.approx(math.atan(math.sqrt(7)), abs=1e-14)
    a9 = alpha2_for_order(9)
    U9 = FamilyRep(FamilyParams(0.0, a9)).word("s^-1t")
    assert np.abs(power(U9, 9).M - np.eye(3)).max() < 1e-7
    assert abs(8 * math.cos(a9) ** 2 - (2 * math.cos(2 * math.pi / 9) + 1)) < 1e-12


def test_param_side_consistency():
    for n in (5, 9, 12):
        side = param_side(alpha2_for_order(n))
        assert side.kind is SideKind.ELLIPTIC and side.n == n
        assert side.beta == pytest.approx(2 * math.pi / n, abs=1e-12)
        assert side.delta == pytest.approx(2j * math.sin(side.beta), abs=1e-10)
    side = param_side(0.5)
    assert side.kind is SideKind.LOXODROMIC
    assert side.delta == pytest.approx(2 * math.sinh(side.length), abs=1e-10)
    assert param_side(ALPHA2_LIM).kind is SideKind.UNIPOTENT


def test_wall_remainder_matches_mpmath():
    # ALPHA2_LIM_REM is arccos sqrt(3/8) - ALPHA2_LIM to the last bit
    import mpmath as mp

    with mp.workdps(50):
        assert ALPHA2_LIM_REM == float(mp.acos(mp.sqrt(mp.mpf(3) / 8)) - mp.mpf(ALPHA2_LIM))


@pytest.mark.parametrize("length", [0.25, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_alpha2_for_length_is_within_one_ulp(length):
    # against 50 digits the result is the nearest float to the exact alpha2
    # or one ulp from it, and the nearest float's own length is within the
    # docstring's bound ulp(alpha2) / (4 (L - alpha2)) of l: floats sample
    # alpha2 no finer near the wall, so no formula pins l closer
    import mpmath as mp

    got = alpha2_for_length(length)
    with mp.workdps(50):
        L = mp.acos(mp.sqrt(mp.mpf(3) / 8))
        exact = mp.acos(mp.sqrt((2 * mp.cosh(mp.mpf(length)) + 1) / 8))
        nearest = float(exact)
        assert abs(got - nearest) <= math.ulp(nearest)
        gap = L - mp.mpf(nearest)
        dl = 2 * mp.asinh(mp.sqrt(2 * mp.sin(gap) * mp.sin(L + mp.mpf(nearest)))) / length - 1
        assert abs(dl) <= math.ulp(nearest) / (4 * gap)


@pytest.mark.parametrize("offset", [-1e-5, -1e-8, -1e-10, -0.3, -0.8, 1e-10, 1e-8, 1e-5, 0.3])
def test_param_side_keeps_its_digits_at_the_wall(offset):
    # the length and delta at the float alpha2 itself against 50 digits:
    # 8 sin(L - alpha2) sin(L + alpha2) keeps the relative digits of tr U - 3
    # that 8 cos^2 alpha2 - 3 loses there (acosh((tr U - 1)/2) was 4.6e-12,
    # 2.8e-9 and 2.3e-8 off at ALPHA2_LIM - 1e-5, 1e-8 and 1e-10)
    import mpmath as mp

    alpha2 = ALPHA2_LIM + offset
    side = param_side(alpha2, tol=1e-14)
    with mp.workdps(50):
        tr = 8 * mp.cos(mp.mpf(alpha2)) ** 2
        delta = mp.sqrt(abs((tr - 3) * (tr + 1)))
        if offset < 0:
            assert side.kind is SideKind.LOXODROMIC and side.delta.imag == 0.0
            pairs = [(side.length, mp.acosh((tr - 1) / 2)), (side.delta.real, delta)]
        else:
            assert side.kind is SideKind.ELLIPTIC and side.delta.real == 0.0
            pairs = [(side.delta.imag, delta)]
        assert all(abs(got - want) <= 4e-16 * want for got, want in pairs)


def test_involution(rep07, pts07):
    I = involution_matrix(0.7)
    assert np.abs(I @ I - np.eye(3)).max() < 1e-12
    assert np.abs(I @ rep07.word("s^-1t").M @ I - rep07.word("s^-1t").inv().M).max() < 1e-10
    sp = rep07.space
    assert proj_equal(HVec(I @ pts07.p_U.v, sp), pts07.p_U)
    assert proj_equal(HVec(I @ pts07.p_V.v, sp), pts07.p_W)
    assert proj_equal(HVec(I @ pts07.p_W.v, sp), pts07.p_V)
    # I is unitary for the form but not special
    assert np.abs(I.conj().T @ sp.J @ I - sp.J).max() < 1e-12
    assert np.linalg.det(I) == pytest.approx(-1.0, abs=1e-12)


def test_involution_at_wall(rep_lim):
    pts = remarkable_points(rep_lim.params)
    I = involution_matrix(ALPHA2_LIM)
    assert proj_equal(HVec(I @ pts.p_V.v, rep_lim.space), pts.p_W)


def test_schwartz_point():
    w = schwartz_point()
    assert abs(w - (1.09062813494126 + 0.557252430478823j)) < 1e-12
    # the peripheral conjugate's trace matches e^{i theta}(2 + e^{-3 i theta})
    theta = math.acos(-7 / 8) / 3
    P = schwartz_peripheral_matrix()
    assert abs(np.trace(P) - cmath.exp(1j * theta) * (2 + cmath.exp(-3j * theta))) < 1e-12
    # the slice sits on the unipotent trace locus
    from crlab.isometry import goldman_f

    assert goldman_f(3.0) == pytest.approx(0.0, abs=1e-12)


def test_one_siegel_space_per_process(monkeypatch, capsys):
    # every representation and `crlab classify` share the one Siegel space,
    # whose form is checked once, and a FaceFamily builds none
    from crlab.cli import main
    from crlab.core import HermitianSpace, siegel_model
    from crlab.verify import FaceFamily

    reps = [FamilyRep(FamilyParams(0.0, a2)) for a2 in (0.7, 1.2)]
    assert reps[0].space is reps[1].space is siegel_model()
    FaceFamily(0.7)
    built = []
    real = HermitianSpace.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(HermitianSpace, "__post_init__", counted)
    FaceFamily(alpha2_for_order(9))
    assert main(["classify", "--word", "ts^-1", "--alpha2", "0.7"]) == 0
    assert built == []
