import cmath
import math

import numpy as np
import pytest

from crlab.core import HVec, siegel_model
from crlab.family import (
    ALPHA2_LIM,
    FamilyParams,
    FamilyRep,
    SideKind,
    alpha2_for_order,
    param_side,
)
from crlab.isometry import (
    OMEGA,
    Isometry,
    IsometryKind,
    MAX_ORDER,
    TURN_SLACK,
    classify,
    eigen,
    elliptic_type,
    goldman_f,
    verify_su21,
)
from crlab.reference import (
    Location,
    canonical_fixed_point,
    locate,
    proj_distance,
    proj_equal,
    schwartz_peripheral_matrix,
)

from conftest import sample_alpha2

from oracles import power


def U_at(a2):
    return FamilyRep(FamilyParams(0.0, a2)).word("s^-1t")


def test_verify_su21_examples(siegel):
    # the uniformization's printed generator: entries (+-sqrt3/2 +- i sqrt5/2)
    s3, s5 = math.sqrt(3) / 2, math.sqrt(5) / 2
    S = np.array(
        [[1, s3 - 1j * s5, -1], [-s3 - 1j * s5, -1, 0], [-1, 0, 0]], dtype=complex
    )
    ok, u_res, d_res = verify_su21(S, siegel)
    assert ok and u_res < 1e-12 and d_res < 1e-12
    # it agrees with the family at the distinguished parameter
    assert np.abs(S - FamilyRep(FamilyParams(0, ALPHA2_LIM)).S.M).max() < 1e-12
    assert verify_su21(np.eye(3), siegel)[0]
    ok, _, det_res = verify_su21(2.0 * np.eye(3), siegel)
    assert not ok and det_res == pytest.approx(7.0)


def test_goldman_values():
    assert goldman_f(3.0) == pytest.approx(0.0, abs=1e-12)
    assert goldman_f(0.0) == pytest.approx(-27.0)
    assert goldman_f(8 * math.cos(0.5) ** 2) > 0
    z = 1.3 - 0.4j
    for k in (1, 2):
        assert goldman_f(z * OMEGA**k) == pytest.approx(goldman_f(z), rel=1e-12, abs=0)


def test_classify_examples():
    assert classify(U_at(ALPHA2_LIM)).kind is IsometryKind.UNIPOTENT
    assert classify(U_at(0.5)).kind is IsometryKind.LOXODROMIC
    U9 = U_at(alpha2_for_order(9))
    assert classify(U9).kind is IsometryKind.REGULAR_ELLIPTIC
    assert np.abs(power(U9, 9).M - np.eye(3)).max() < 1e-7
    assert classify(Isometry(np.eye(3), siegel_model())).kind is IsometryKind.IDENTITY


def test_classify_agrees_with_param_side():
    # regularity comes from eigenvalue separation, so the triple zero of f at
    # tr = 3 no longer turns high-order rotations elliptic-parabolic
    kinds = {
        SideKind.ELLIPTIC: IsometryKind.REGULAR_ELLIPTIC,
        SideKind.LOXODROMIC: IsometryKind.LOXODROMIC,
        SideKind.UNIPOTENT: IsometryKind.UNIPOTENT,
    }
    orders = list(range(4, 64)) + [100, 517, 1000, 2809, 3000, 5000, 10**4, 3 * 10**4, 6 * 10**4]
    params = [alpha2_for_order(n) for n in orders]
    params += [float(a) for a in np.linspace(0.01, 1.56, 200)]
    params += [ALPHA2_LIM + s * d for d in (1e-4, 1e-6, 1e-8) for s in (1, -1)] + [ALPHA2_LIM]
    for a2 in params:
        assert classify(U_at(a2)).kind is kinds[param_side(a2).kind], a2


@pytest.mark.parametrize("tol", [1e-9, 1e-14])
def test_the_two_classifiers_agree_on_the_slice(tol):
    # classify and elliptic_type on s^-1 t against param_side: the same
    # side, and type (1, -1, n) with the same n, for every order to 200 and
    # strided on to MAX_ORDER, and on both sides next to the wall; at tol
    # 1e-9 the band 10 tol of the wall starts at order 62,832
    kinds = {
        SideKind.ELLIPTIC: IsometryKind.REGULAR_ELLIPTIC,
        SideKind.LOXODROMIC: IsometryKind.LOXODROMIC,
        SideKind.UNIPOTENT: IsometryKind.UNIPOTENT,
    }
    orders = list(range(4, 201)) + list(range(211, MAX_ORDER, 1499)) + [62831, 62832, MAX_ORDER]
    for n in orders:
        a2, U = alpha2_for_order(n), U_at(alpha2_for_order(n))
        side = param_side(a2, tol)
        assert side.kind is (SideKind.UNIPOTENT if tol == 1e-9 and n > 62831 else SideKind.ELLIPTIC), n
        assert classify(U, tol).kind is kinds[side.kind], n
        if side.kind is SideKind.ELLIPTIC:
            et = elliptic_type(U, tol)
            assert side.n == n and (et.p, et.q, et.n) == (1, -1, n), n
    for a2 in [ALPHA2_LIM + s * d for d in (1e-8, 1e-10, 1e-12) for s in (1, -1)]:
        assert classify(U_at(a2), tol).kind is kinds[param_side(a2, tol).kind], a2


def test_max_order_is_the_largest_order_the_window_pins():
    assert 2 * TURN_SLACK * MAX_ORDER**3 <= 1 < 2 * TURN_SLACK * (MAX_ORDER + 1) ** 3


def test_classify_conjugation_invariance():
    rng = np.random.default_rng(11)
    sp = siegel_model()
    words = ["st", "ts^-1", "s^-1t", "tst", "st^-1s"]
    for a2 in sample_alpha2(6, seed=5):
        rep = FamilyRep(FamilyParams(0.0, a2))
        g = rep.word("s^-1t")
        kind = classify(g).kind
        assert classify(g.inv()).kind is kind
        h = rep.word(words[rng.integers(0, len(words))])
        conj = Isometry(h.M @ g.M @ h.inv().M, sp)
        assert classify(conj).kind is kind


def test_goldman_sign_vs_eigen_structure():
    # bidirectional consistency on a large family-derived sample
    rng = np.random.default_rng(0)
    sp = siegel_model()
    words = ["st", "ts", "s^-1t", "ts^-1", "st^2", "tst", "s", "t^-1s"]
    checked = 0
    for _ in range(1000):
        a2 = rng.uniform(-1.5, 1.5)
        a1 = rng.uniform(-1.5, 1.5)
        rep = FamilyRep(FamilyParams(a1, a2))
        g = rep.word(words[rng.integers(0, len(words))])
        h = rep.word(words[rng.integers(0, len(words))])
        g = Isometry(h.M @ g.M @ h.inv().M, sp)
        f = goldman_f(g.trace())
        triples = eigen(g)
        if f < -1e-6:
            assert any(t.norm_sign < 0 for t in triples)
            checked += 1
        elif f > 1e-6:
            assert any(abs(abs(t.value) - 1) > 1e-8 for t in triples)
            checked += 1
    assert checked > 700


def test_eigen_example_printed_vectors(siegel):
    # at (0, 2pi/3) the deformation element has eigenvalues -w^2, -w, 1
    U = U_at(2 * math.pi / 3)
    w = OMEGA
    triples = eigen(U)
    values = sorted((t.value for t in triples), key=lambda z: cmath.phase(z))
    expect = sorted([-w * w, -w, 1.0], key=lambda z: cmath.phase(z))
    assert max(abs(a - b) for a, b in zip(values, expect)) < 1e-10
    # the printed vectors pair as V2 <-> -w^2 and V1 <-> -w (direct check:
    # U V2 = (1 + w) V2 = -w^2 V2); both have positive norm, V3 negative
    printed = {
        (-w): np.array([1.0, -math.sqrt(2) * w, w * w]),
        (-w * w): np.array([1.0, 0.0, -w]),
        (1.0 + 0j): np.array([math.sqrt(2), -w, math.sqrt(2) * w * w]),
    }
    norms = {(-w * w): 1.0, (-w): 1.0, (1.0 + 0j): -1.0}
    for t in triples:
        lam = min(printed, key=lambda z: abs(z - t.value))
        assert proj_distance(t.vector, HVec(printed[lam], siegel)) < 1e-8
        ref = HVec(printed[lam], siegel)
        assert ref.norm() == pytest.approx(norms[lam], abs=1e-12)
        assert t.norm_sign == (1 if norms[lam] > 0 else -1)


def test_eigen_elliptic_side_matches_fixed_points(rep_n9, pts_n9):
    triples = eigen(rep_n9.word("s^-1t"))
    beta = 2 * math.pi / 9
    vals = sorted((t.value for t in triples), key=lambda z: cmath.phase(z))
    expect = sorted([1.0, cmath.exp(1j * beta), cmath.exp(-1j * beta)], key=lambda z: cmath.phase(z))
    assert max(abs(a - b) for a, b in zip(vals, expect)) < 1e-10
    for t in triples:
        if abs(t.value - 1) < 1e-8:
            assert proj_distance(t.vector, pts_n9.p_U) < 1e-8
        elif abs(t.value - cmath.exp(1j * beta)) < 1e-8:
            assert proj_distance(t.vector, pts_n9.p_U_prime) < 1e-7
        else:
            assert proj_distance(t.vector, pts_n9.p_U_dprime) < 1e-7


def test_eigen_identity_and_residuals(siegel):
    triples = eigen(Isometry(np.eye(3), siegel))
    assert all(abs(t.value - 1) < 1e-12 for t in triples)
    for a2 in sample_alpha2(10, seed=2):
        for t in eigen(U_at(a2)):
            assert t.residual < 1e-7 or t.generalized


def test_trace_formula_50_samples():
    for a2 in np.linspace(0.02, math.pi / 2 - 0.02, 50):
        assert abs(U_at(float(a2)).trace() - 8 * math.cos(a2) ** 2) < 1e-10


def test_canonical_fixed_points(rep07, pts07, rep_n9, pts_n9, siegel):
    A = rep07.S @ rep07.T  # unipotent
    assert proj_equal(canonical_fixed_point(A), HVec([1, 0, 0], siegel))
    # elliptic side: interior fixed point is the explicit formula vector
    pU = canonical_fixed_point(rep_n9.word("s^-1t"))
    assert proj_distance(pU, pts_n9.p_U) < 1e-8
    assert locate(pU) is Location.INSIDE
    # loxodromic side: unit-modulus eigenvector, outside
    pUl = canonical_fixed_point(rep07.word("s^-1t"))
    assert proj_distance(pUl, pts07.p_U) < 1e-8
    assert locate(pUl) is Location.OUTSIDE


def test_finite_order_powers_and_angles():
    for n in (7, 9, 12):
        U = U_at(alpha2_for_order(n))
        et = elliptic_type(U)
        assert et.n == n
        Mn = power(U, n).M
        assert min(np.abs(Mn - OMEGA**k * np.eye(3)).max() for k in range(3)) < 1e-7
        assert (et.angle1 * n) % (2 * math.pi) == pytest.approx(0.0, abs=1e-6)


def test_elliptic_type_examples(siegel, ball):
    et9 = elliptic_type(U_at(alpha2_for_order(9)))
    assert (et9.p, et9.q, et9.n) == (1, -1, 9)
    # order-4 point: the pair is (1/4, -1/4) up to order
    et4 = elliptic_type(U_at(math.atan(math.sqrt(7))))
    assert et4.n == 4 and {et4.p, et4.q} == {1, -1}
    rot = Isometry(np.diag([cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3), 1.0]), ball)
    etr = elliptic_type(rot)
    assert (etr.p, etr.q, etr.n) == (1, -1, 3)
    # the order-6 point (0, 2pi/3): eigenvalue ratios are 6th roots of unity
    et6 = elliptic_type(U_at(2 * math.pi / 3))
    assert (et6.p, et6.q, et6.n) == (1, -1, 6)


def test_elliptic_type_infinite_order_reports_angles():
    et = elliptic_type(U_at(1.2566))
    assert not et.is_finite
    assert et.angle1 == pytest.approx(-et.angle2, abs=1e-10)


def test_ellipto_parabolic_detection(siegel):
    P = schwartz_peripheral_matrix()
    assert verify_su21(P, siegel)[0]
    assert classify(Isometry(P, siegel)).kind is IsometryKind.ELLIPTIC_PARABOLIC


def test_non_regular_elliptic_reflection(ball):
    R = Isometry(np.diag([1.0, -1.0, -1.0]).astype(complex), ball)
    assert classify(R).kind is IsometryKind.NON_REGULAR_ELLIPTIC
