"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1f pins the eigendata of the deformation element at the parameter
point (0, 2pi/3).  There tr U = 8 cos^2(2pi/3) = 2 = 2 cos(2pi/6) + 1, so the
point is the order-6 parameter: the eigenvalues are {1, -omega, -omega^2},
the negative-norm eigenvector belongs to 1, and the rotation type derived
from that eigendata is (1/6, -1/6).  The stated type (1/9, -1/9) is checked
where it holds, at the order-9 parameter alpha2_for_order(9).  Every
criterion is expected to pass.
"""

import cmath
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from crlab.core import HVec, inner, siegel_model
from crlab.family import (
    ALPHA2_LIM,
    FamilyParams,
    FamilyRep,
    alpha2_for_order,
    char_P,
    char_Q,
    schwartz_point,
)
from crlab.isometry import OMEGA, eigen, elliptic_type
from crlab.verify import FaceFamily, VerdictKind, tf_check, verify
from crlab.reference import ball_model, box, char_variety_residuals, remarkable_points, trace_coords

from oracles import (
    angle_between,
    angular_diameter,
    brute_force_symmetric_kind,
    classify_bisector,
    line_spinal_crossings,
    slice_boundary_circle,
    spinal_samples,
    symmetric_intersection_type,
    table,
    tangency_check,
    tangent_direction,
    vertex_products,
)


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {name} failed"


def _type_pair(et):
    # the rotation type (p/n, q/n) as fractions, None when not recognized
    return None if et.n is None else (Fraction(et.p, et.n), Fraction(et.q, et.n))


# -- criterion 1: algebraic identity suite ---------------------------------


def test_criterion_1a_trace_formula():
    worst = 0.0
    for a2 in np.linspace(0.01, math.pi / 2 - 0.01, 50):
        rep = FamilyRep(FamilyParams(0.0, float(a2)))
        worst = max(worst, abs(rep.word("s^-1t").trace() - 8 * math.cos(a2) ** 2))
    report("1a trace of the deformation element", worst <= 1e-10)


def test_criterion_1b_fixed_point_products():
    worst = 0.0
    for a2 in np.linspace(0.05, math.pi / 2 - 0.05, 20):
        pts = remarkable_points(FamilyParams(0.0, float(a2)))
        want = 4 * math.cos(a2) ** 2 - 1.5
        worst = max(worst, abs(pts.p_U.norm() - want), abs(pts.p_V.norm() - want))
        worst = max(worst, abs(inner(pts.p_U, pts.p_V) - (-1.5)))
    report("1b fixed-point Hermitian products", worst <= 1e-9)


def test_criterion_1c_box_products():
    worst = 0.0
    for a2 in np.linspace(0.05, math.pi / 2 - 0.05, 20):
        pts = remarkable_points(FamilyParams(0.0, float(a2)))
        c2 = math.cos(a2) ** 2
        b_uv = box(pts.p_U, pts.p_V)
        b_wu = box(pts.p_W, pts.p_U)
        worst = max(worst, abs(b_uv.norm() - (-4 * c2 * (4 * c2 - 3))))
        worst = max(worst, abs(inner(b_uv, b_wu) - (-6 * c2)))
    report("1c box-product norms", worst <= 1e-9)


def test_criterion_1d_trace_coordinates():
    tc = trace_coords(FamilyRep(FamilyParams(0.0, ALPHA2_LIM)))
    x0 = 7.5 - 1.5j * math.sqrt(15)
    r1, r2 = char_variety_residuals(tc)
    ok = (
        abs(tc.z - 3) <= 1e-9
        and abs(tc.w - 3) <= 1e-9
        and abs(tc.x - x0) <= 1e-9
        and char_Q(3, 3) == 15.0
        and char_P(3, 3) == 90.0
        and r1 <= 1e-9
        and r2 <= 1e-9
    )
    report("1d trace coordinates at the cusped parameter", ok)


def test_criterion_1e_schwartz_constant():
    w = schwartz_point()
    report(
        "1e trace constant of the real-axis structure",
        abs(w - (1.09062813494126 + 0.557252430478823j)) <= 1e-12,
    )


def test_criterion_1f_eigen_data_order6_point():
    a2 = 2 * math.pi / 3
    rep = FamilyRep(FamilyParams(0.0, a2))
    U = rep.word("s^-1t")  # equals rho(s^-1 t) at this parameter
    triples = eigen(U)
    w = OMEGA
    values = sorted((t.value for t in triples), key=lambda z: cmath.phase(z))
    expect = sorted([-w * w, -w, 1.0 + 0j], key=lambda z: cmath.phase(z))
    eig_ok = max(abs(a - b) for a, b in zip(values, expect)) <= 1e-9
    signs = sorted(t.norm_sign for t in triples)
    neg = [t.value for t in triples if t.norm_sign < 0]
    signs_ok = signs == [-1, 1, 1] and len(neg) == 1 and abs(neg[0] - 1.0) <= 1e-9
    report("1f-i eigenvalues at the order-6 point", eig_ok)
    report("1f-ii norm signs at the order-6 point (negative norm at 1)", signs_ok)
    # -omega^k = e^{2 pi i (k/3 + 1/2)}; the angles are taken relative to the
    # negative-norm eigenvalue 1 and reduced into (-1/2, 1/2], larger first
    turns = ((Fraction(k, 3) + Fraction(1, 2)) % 1 for k in (2, 1))
    derived = tuple(t - 1 if t > Fraction(1, 2) else t for t in turns)
    et = elliptic_type(U)
    report(
        f"1f-iii elliptic type at the order-6 point is ({derived[0]}, {derived[1]}) "
        f"(computed ({et.p}/{et.n}, {et.q}/{et.n}))",
        _type_pair(et) == derived,
    )
    et9 = elliptic_type(FamilyRep(FamilyParams(0.0, alpha2_for_order(9))).word("s^-1t"))
    stated = (Fraction(1, 9), Fraction(-1, 9))
    report(
        f"1f-iv stated elliptic type (1/9, -1/9) at the order-9 parameter "
        f"(computed ({et9.p}/{et9.n}, {et9.q}/{et9.n}))",
        _type_pair(et9) == stated,
    )


# -- criterion 2: incidence suite -------------------------------------------


def test_criterion_2_incidence():
    # the ten vertex products of face_points, of modulus 1 at every alpha2
    # (proved in tests/test_incidence_identities.py)
    rng = np.random.default_rng(17)
    worst = 0.0
    els = list(rng.uniform(ALPHA2_LIM + 0.02, math.pi / 2 - 0.05, 10))
    lox = list(rng.uniform(0.05, ALPHA2_LIM - 0.02, 10))
    for a2 in els + lox:
        products = vertex_products(FaceFamily(float(a2)))
        worst = max(worst, float(np.abs(np.abs(products) - 1.0).max()))
    report("2 incidence products at 20 parameters", worst <= 1e-9)


# -- criterion 3: TF suite ---------------------------------------------------

TF_PARAMS = [
    ("alpha2=0.5", 0.5),
    ("alpha2=0.7", 0.7),
    ("alpha2=pi/6", math.pi / 6),
    ("alpha2=lim", ALPHA2_LIM),
    ("order 9", alpha2_for_order(9)),
    ("order 12", alpha2_for_order(12)),
]


@pytest.mark.parametrize("label,a2", TF_PARAMS)
def test_criterion_3_tf(label, a2):
    start = time.time()
    ff = FaceFamily(a2)
    res = tf_check(ff)
    elapsed = time.time() - start
    bitangent = max(res.residuals["bitangency_pA"], res.residuals["bitangency_pB"]) <= 1e-3
    report(f"3 TF at {label} ({elapsed:.1f}s)", res.passed and bitangent and elapsed <= 60)


# -- criterion 4: GC loxodromic suite ---------------------------------------


def test_criterion_4_gc_loxodromic():
    lmax = math.acosh(2.5)
    ok = True
    for i in range(1, 11):
        length = lmax * i / 11.0
        tr = 2 * math.cosh(length) + 1
        a2 = math.acos(math.sqrt(tr / 8.0))
        rep = verify(a2, grid_n=360)
        ok &= rep.verdict.kind is VerdictKind.SURGERY
        ok &= (rep.verdict.p, rep.verdict.q) == (1, -3)
        gc = rep.gc
        ok &= gc.margins["annulus_upper"] > 0
        # the disk, its mirror and their one margin 2l - w > 0 hold at every length:
        # tests/test_gc_disk_identities.py proves them, and ties them to
        # the program's silhouettes
    report("4 loxodromic verdicts at 10 lengths", ok)


# -- criterion 5: GC elliptic suite ------------------------------------------


def test_criterion_5_gc_elliptic():
    ok = True
    for n in (9, 10, 12, 20, 50):
        rep = verify(alpha2_for_order(n), grid_n=360)
        gc = rep.gc
        ok &= rep.verdict.kind is VerdictKind.SURGERY
        ok &= (rep.verdict.p, rep.verdict.q) == (1, n - 3)
        # the sector and cone margins are positive at every order n >= 9:
        # tests/test_gc_disk_identities.py
        ok &= gc.margins["sector_upper"] > 0 and gc.margins["cone_separation"] > 0
    for n in (4, 5, 6, 7, 8):
        rep = verify(alpha2_for_order(n), grid_n=128)
        ok &= rep.verdict.kind is VerdictKind.INCONCLUSIVE
        ok &= len(rep.verdict.reason) > 0
        ok &= rep.tf.passed and rep.lc.passed
    report("5 elliptic verdicts and low-order inconclusives", ok)


# -- criterion 6: oracle equivalences ----------------------------------------


def test_criterion_6a_trichotomy_oracle():
    ball = ball_model()
    c, s = math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)
    R = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=complex)
    ok = True
    count = 0
    for a2 in (0.3, 0.7, 1.1, 1.4):
        pts = remarkable_points(FamilyParams(0.0, a2))
        si = symmetric_intersection_type(pts.p_U, pts.p_V, pts.p_W)
        ok &= brute_force_symmetric_kind(si.u, 720) is si.kind
        count += 1
    for a, b in ((0.4, 0.3), (1.2, 0.0), (3.0, 1.0), (5.0, 0.0), (5.0, 1.0), (8.0, 2.0)):
        p = HVec([a, b, 1.0], ball)
        si = symmetric_intersection_type(p, HVec(R @ p.v, ball), HVec(R @ R @ p.v, ball))
        ok &= brute_force_symmetric_kind(si.u, 720) is si.kind
        count += 1
    report(f"6a trichotomy vs level-set components on {count} triples", ok and count == 10)


def test_criterion_6b_tangency_oracle():
    rng = np.random.default_rng(23)
    total = 0
    ok = True
    for a2 in (0.7, 0.9, 1.1, alpha2_for_order(9), alpha2_for_order(15)):
        ff = FaceFamily(a2)
        pts = remarkable_points(FamilyParams(0.0, ff.alpha2))
        p, q = pts.p_U, pts.p_V
        circ_t = slice_boundary_circle(HVec(q.v - p.v, siegel_model()))
        for t in rng.uniform(0, 2 * math.pi, 5):
            r = HVec(circ_t(np.array([t]))[0], siegel_model())
            ok &= tangency_check(p, q, r) and line_spinal_crossings(p, q, r) == 0
            total += 1
        drawn = 0
        while drawn < 5:
            alpha = cmath.exp(1j * rng.uniform(0.1, math.pi - 0.1))
            circ = slice_boundary_circle(HVec(q.v - alpha * p.v, siegel_model()))
            if circ is None:
                continue
            r = HVec(circ(np.array([rng.uniform(0, 2 * math.pi)]))[0], siegel_model())
            ok &= tangency_check(p, q, r) == (line_spinal_crossings(p, q, r) == 0)
            drawn += 1
            total += 1
    report(f"6b tangency criterion vs crossing oracle on {total} triples", ok and total == 50)


def test_criterion_6c_angular_diameter_oracle():
    ball = ball_model()
    p = HVec([0, 0, 1.0], ball)
    q = HVec([math.sinh(1.2), 0, math.cosh(1.2)], ball)
    theta = angular_diameter(*table(p, q), 0, 1, 1e-9)
    b = classify_bisector(p, q)
    Z = spinal_samples(b, 100, 50)[:5000]
    angs = np.array([angle_between(p, q, HVec(z, ball)) for z in Z])
    # max angle from the axis is the angular radius; the diameter doubles it
    radius_ok = angs.max() <= theta / 2 + 1e-3 and angs.max() >= theta / 2 - 1e-2
    # pairwise maximum over a subsample approximates the full diameter
    dirs = []
    for z in Z[::4]:
        u = tangent_direction(p, HVec(z, ball))
        u = np.concatenate([u.real, u.imag])
        dirs.append(u / np.linalg.norm(u))
    D = np.array(dirs)
    gram = np.clip(D @ D.T, -1, 1)
    pairwise = float(np.arccos(gram.min()))
    report(
        f"6c angular diameter {theta:.4f} vs oracle radius {angs.max():.4f} "
        f"and pairwise {pairwise:.4f}",
        radius_ok and abs(pairwise - theta) <= 1e-2,
    )


# -- criterion 7: figure reproduction ----------------------------------------


def test_criterion_7a_level_set_extrema(tmp_path):
    from crlab.figures import figure_level_sets

    _, G = figure_level_sets(str(tmp_path / "ls"), resolution=720)
    ok = abs(G.min() - (-1.5)) <= 1e-4 and abs(G.max() - 3.0) <= 1e-4
    report("7a level-set extrema (-1.5, 3.0)", ok)


def test_criterion_7b_peach_curve_singular_points(tmp_path):
    from crlab.figures import figure_peach_curve

    _, (a1s, a2s, F) = figure_peach_curve(str(tmp_path / "pc"), resolution=201)
    i0 = int(np.argmin(np.abs(a1s)))  # the alpha1 = 0 column
    col = F[i0]
    step = a2s[1] - a2s[0]
    # zeros of the column sit at +- alpha2_lim within one grid step
    zero_idx = [j for j in range(len(col)) if abs(col[j]) == np.min(np.abs(col))]
    near = sorted(a2s[j] for j in np.argsort(np.abs(col))[:6])
    ok = any(abs(abs(x) - ALPHA2_LIM) <= step for x in near)
    # and the zero set accumulates at both signs
    pos = [x for x in near if x > 0]
    neg = [x for x in near if x < 0]
    ok = ok and pos and neg
    ok = ok and min(abs(abs(x) - ALPHA2_LIM) for x in pos) <= step
    ok = ok and min(abs(abs(x) - ALPHA2_LIM) for x in neg) <= step
    report("7b unipotent-curve singular points at (0, +-alpha2_lim)", bool(ok))


def test_criterion_7c_disk_projection_sectors(tmp_path):
    from crlab.figures import figure_disk_projection

    n = 20
    beta = 2 * math.pi / n
    _, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=256)
    ok = True
    for (sign, k), vals in curves.items():
        args = np.angle(vals)
        if sign == "plus":
            centre = 2 * k * beta - beta / 2
            lo, hi = -2.5 * beta, 1.5 * beta
        else:
            centre = 2 * k * beta + beta / 2
            lo, hi = -1.5 * beta, 2.5 * beta
        rel = np.angle(np.exp(1j * (args - 2 * k * beta)))
        width = rel.max() - rel.min()
        ok &= width < 4 * beta
        ok &= rel.min() > lo and rel.max() < hi
    report("7c projected disks inside their angular sectors (n=20)", bool(ok))


# -- criterion 8: determinism -------------------------------------------------


def test_criterion_8_sweep_determinism(tmp_path):
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    env = dict(os.environ)
    base = [
        sys.executable, "-m", "crlab.cli", "verify",
        "--sweep", "0.55:0.95:0.1", "--grid", "128",
    ]
    r1 = subprocess.run(base + ["--out", str(out1), "--workers", "1"],
                        capture_output=True, env=env)
    r8 = subprocess.run(base + ["--out", str(out8), "--workers", "8"],
                        capture_output=True, env=env)
    ok = r1.returncode == 0 and r8.returncode == 0
    files1, files8 = sorted(os.listdir(out1)), sorted(os.listdir(out8))
    ok = ok and files1 == files8 and len(files1) == 4
    for f in files1:
        ok = ok and (out1 / f).read_bytes() == (out8 / f).read_bytes()
    report("8 sweep reports byte-identical across 1 and 8 workers", bool(ok))
