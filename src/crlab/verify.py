"""The verification engine for the deformed Ford/Dirichlet domain.

For a parameter alpha2 on the alpha1 = 0 slice, three conditions are
checked numerically:

  TF  - topology of faces: the triple bisector intersection meets the
        closure of the ball only at the two shared ideal vertices, and the
        two Giraud circles bounding a face are bi-tangent there;
  LC  - local combinatorics: neighbouring faces meet in the expected vertex
        pairs (that the others meet in Giraud disks is proved once, in
        tests/test_lc_identities.py);
  GC  - global combinatorics: non-neighbouring bisectors are disjoint, by
        guard surfaces on the visual sphere of the deformation's fixed point
        (annuli on the loxodromic side, angular sectors on the elliptic
        side) and cone-separation margins; every margin is a closed form in
        x = cos(beta) or x = cosh(l), proved once in
        tests/test_gc_disk_identities.py, so GC reads only the order n or
        the length l of scalar.param_side.

What holds at every parameter is not checked here: that the ideal vertices
p_A and p_B and their U-translates lie on the bisectors around them, and
that U acts on the visual sphere of p_U by its multiplier, are proved once,
in tests/test_incidence_identities.py, and that the two Giraud circles
bounding the first face are tangent at p_A and at p_B, in
tests/test_bitangency_identities.py.

TF's exclusion margin is the infimum of E / (|V|^2 sin^2(delta -
delta_v)), E = |<p_U, V>|^2 - |<p_V, V>|^2, over the ball part of the
Giraud torus of the faces F_0^- and F_-1^-, delta_v the vertex column.  It
is the closed form scalar.exclusion_margin at every alpha2 in (0, pi/2),
proved once in tests/test_tf_margin_identities.py: 24 cos^2(alpha2) / (8
cos^2(alpha2) + 1) up to scalar.ALPHA2_STAR, and above it the same ratio
at the band edge, the open column nearest the least one.  No torus column
is read.  LC's claims on both face pairs rest on TF's margin: on F_0^- and
F_-1^- it is the same claim, and the slice's involution, which fixes p_U
and swaps p_V with p_W, carries the pass of F_0^+ and F_1^+ onto it, V
onto -V at every (sigma, delta), so that pass fails exactly where this
one does (tests/test_lc_identities.py).
The unipotent wall is decided once, by scalar.param_side: on it GC is not
applicable.

Passing all three yields the Dehn-surgery verdict for the parameter:
slope 1/(n-3) on the elliptic side of order n >= 9, slope -1/3 on the
loxodromic side.
"""

from __future__ import annotations

import math
from functools import cached_property

from .report import CheckResult, Verdict, VerdictKind, VerificationReport
from .scalar import (
    ALPHA2_STAR,
    GeometryError,
    SideKind,
    elliptic_disks,
    exclusion_margin,
    param_side,
    tolerance,
)

DEFAULT_GRID = 720


# ---------------------------------------------------------------------------
# the face family at a parameter


class FaceFamily:
    """All data attached to a parameter: the side of `scalar.param_side`,
    formed at once, and TF's margin `tf_margin`, formed on first read.  No
    torus, pass or point table is formed: TF's margin is a closed form, and
    the tests' oracles build the point table of `reference.face_points` and
    TF's pass on it (`point_table`, `passes`) in `core.siegel_model`.  The
    projected disks of J_0^+ and J_0^- on the visual sphere of [p_U] are
    closed forms in the order n (`scalar.elliptic_disks`), which GC and the
    disk-projection figure read without a chart."""

    def __init__(self, alpha2: float, tol=None):
        self.alpha2 = float(alpha2)
        self.tol = tolerance(tol)
        self.side = param_side(self.alpha2, self.tol)

    @cached_property
    def tf_margin(self) -> float:
        """TF's exclusion margin, on which LC rests too:
        `scalar.exclusion_margin`."""
        return exclusion_margin(self.alpha2)


# ---------------------------------------------------------------------------
# TF: topology of faces


def tf_check(ff: FaceFamily) -> CheckResult:
    """TF from what can fail: the torus exclusion.  What holds at every
    alpha2 is proved once: the identities behind it in
    tests/test_tf_identities.py, the margin in closed form on all of (0,
    pi/2) in tests/test_tf_margin_identities.py, the torus's
    preconditions in tests/test_face_family_identities.py, the complex-line
    locus on the column delta = family.delta0 in
    tests/test_line_and_contact_identities.py, the vertices at the ends of
    the vertex column delta_v = alpha2 + pi/2 in
    tests/test_vertex_identities.py, and the
    bi-tangency of the two Giraud circles bounding the first face at p_A
    and p_B in tests/test_bitangency_identities.py, whose residuals the
    report carries as the proved zeros of `_bitangency`."""
    res = CheckResult("tf", True)

    # on the ball part of the torus of J_0^- and J_-1^-, |<z, p_U>| <=
    # |<z, p_V>| only at p_A and p_B
    margin = res.margins["torus_exclusion"] = ff.tf_margin
    if ff.alpha2 <= ALPHA2_STAR:
        res.notes.append(
            "torus exclusion is the closed form 24c^2/(8c^2 + 1), c = cos(alpha2), the exact "
            f"infimum on the ball part for alpha2 <= alpha* = {ALPHA2_STAR:.8g} "
            "(tests/test_tf_margin_identities.py)"
        )
    else:
        res.notes.append(
            "torus exclusion is the closed form 24c^2/(3c cos u + s sin u)^2, c = cos(alpha2), "
            "s = sin(alpha2), at the band edge u in (0, u*) where K^2 + 6 sin^2 u = 3K, K = 3s cos u "
            "- c sin u, tan u* = tan(alpha2)/3: the exact infimum on the ball part for alpha2 > "
            f"alpha* = {ALPHA2_STAR:.8g} (tests/test_tf_margin_identities.py)"
        )

    res.residuals["bitangency_pA"], res.residuals["bitangency_pB"] = _bitangency()
    res.passed = bool(0.0 < margin < math.inf)
    return res


def _bitangency() -> list[float]:
    """The angles between the Giraud circles bounding the first face (the
    tori of J_0^+ with J_0^- and with J_-1^-) at p_A and at p_B: both 0 at
    each alpha2 in (0, pi/2), where the circles' affine-chart velocities at
    each vertex are nonzero and real multiples of one another
    (tests/test_bitangency_identities.py)."""
    return [0.0, 0.0]


# ---------------------------------------------------------------------------
# LC: local combinatorics


def lc_check(ff: FaceFamily) -> CheckResult:
    """LC from what can fail: TF's margin.  Each face pair meets in its two
    vertices, F_0^- /\\ F_-1^- == {p_A, p_B} and F_0^+ /\\ F_1^+ == {p_B,
    U p_A}, where the constraint both faces share (|<z,p_U>| <= |<z,p_V>|
    on the torus of J_0^- and J_-1^-, TF's pass, and <= |<z,p_W>| on that
    of J_0^+ and J_1^+) meets the torus's ball part only at them.  The
    slice's involution carries the second pass onto the first, so LC
    passes exactly where TF's margin is finite and positive, with a note
    naming both face pairs where it is not.  The involution's rows, the
    Giraud disks of both face-boundary intersections (u = (2/3)(4 cos^2
    alpha2 - 3) < 2/3 at every alpha2 in (0, pi/2)) and the fan focus at
    alpha2 = pi/6 inside its arc are proved once, in
    tests/test_lc_identities.py and tests/test_gc_identities.py, and so
    are the vertices at the ends of the vertex column delta_v, in
    tests/test_vertex_identities.py."""
    res = CheckResult("lc", 0.0 < ff.tf_margin < math.inf)
    if not res.passed:
        res.notes.append(
            "faces_minus_minus and faces_plus_plus: rest on TF's pass, whose "
            "margin tf.torus_exclusion is not finite and positive"
        )
    return res


# ---------------------------------------------------------------------------
# GC: global combinatorics


def gc_check_loxodromic(ff: FaceFamily) -> CheckResult:
    """GC on the loxodromic side of length l, from ff.side alone.  In the
    chart of rows (p_U'', p_U'), where U acts by z -> e^{2l} z
    (tests/test_incidence_identities.py), J_0^+ projects to a disk whose
    log-modulus range is centred at -l/2 with half-width w, sinh^2 w =
    (8/9) sinh^2 l (2x + 1), x = cosh l, and J_0^- to its mirror about 0:
    so both annulus margins are 2l - w, reported once, positive at every
    l > 0 since 9x^2 - 4x - 2 > 0 on x > 1.  The disk, its mirror, that inequality and the two
    contact tangencies are proved once, in tests/test_gc_disk_identities.py
    and tests/test_line_and_contact_identities.py."""
    res = CheckResult("gc", True)
    if ff.side.kind is not SideKind.LOXODROMIC:
        raise ValueError("loxodromic check on a non-loxodromic parameter")
    length = ff.side.length
    w = math.asinh(math.sinh(length) * math.sqrt(8.0 * (2.0 * math.cosh(length) + 1.0)) / 3.0)
    # the guard annuli log|z| in (-5l/2, 3l/2) of J_0^+ and (-3l/2, 5l/2) of
    # J_0^-, whose margins are mirror twins
    res.margins["annulus_upper"] = 2.0 * length - w
    res.passed = res.margins["annulus_upper"] > 0.0
    return res


def gc_check_elliptic(ff: FaceFamily) -> CheckResult:
    """GC on the elliptic side of order n >= 9, from ff.side alone, with x =
    cos(beta), beta = 2 pi/n.  In the chart J_0^+ projects to a disk centred
    on the ray -beta/2 with half-width `half`, sin^2(half) = (8/9)
    sin^2(beta) (2x + 1) (`scalar.elliptic_disks`, whose sin(half) it
    reads), and J_0^- to its mirror, so the sector margin is 2 beta -
    half, positive exactly when 9x^2 - 4x - 2 > 0, which is n >= 9; the
    rotated-sector gap is twice it and is not reported.  The cone angles
    at p_U toward U^k p_V are dist(k beta, 2 pi Z) and those toward U^k
    p_W are arccos(R cos((k + 1/2) beta)) with 0 < R < 1, so the least of them,
    over the pairs the contact tangencies leave, is 2 beta at k = 2 (plus),
    and the cone margin is 2 beta less the real angular diameter diam =
    2 arccos sqrt((2x + 1)/(5 - 2x)), positive as (x - 1)(2x^2 - 3x - 1)
    is on (0, 1).  All of it, and the two contact tangencies, are proved
    once, in tests/test_gc_disk_identities.py and
    tests/test_line_and_contact_identities.py."""
    res = CheckResult("gc", True)
    if ff.side.kind is not SideKind.ELLIPTIC:
        raise ValueError("elliptic check on a non-elliptic parameter")
    n = ff.side.n
    if n is None:
        res.passed = False
        res.skipped = True
        res.notes.append(
            "peripheral element is not a finite-order rotation of type (1/n, -1/n); "
            "no surgery statement at this parameter"
        )
        return res
    if n < 9:
        # 9x^2 - 4x - 2 > 0 exactly when cos(beta) > (2 + sqrt 22)/9, which is
        # n >= 9 (tests/test_gc_identities.py); order 3 is read only where
        # tr U = 8 cos^2(alpha2) rounds into the window of the turn 1/3
        res.skipped = True
        res.passed = False
        if n == 3:
            below = "order 3 is the alpha2 -> pi/2 limit of the slice, where tr U = 8 cos^2(alpha2) -> 0"
        else:
            below = "orders 4..8 are settled in the triangle-group literature by other techniques"
        res.notes.append(f"angular-sector method requires order >= 9; {below}")
        return res
    beta = 2.0 * math.pi / n
    t = 2.0 * math.cos(beta) + 1.0

    # (a) the projected disk's arguments avoid the guard rays -5 beta/2 and
    # 3 beta/2 about its centre -beta/2
    half = math.asin(elliptic_disks(n)[2])
    res.margins["sector_upper"] = 2.0 * beta - half

    # (b) real angular control from the interior fixed point: the cone
    # radius rho = diam/2 has tan(rho) = 2 sqrt2 sin(beta/2) / sqrt(2x + 1)
    diam = 2.0 * math.atan(2.0 * math.sqrt(2.0) * math.sin(0.5 * beta) / math.sqrt(t))
    res.residuals["value_true_angular_diameter"] = diam
    if diam >= math.pi / 3.0:
        res.notes.append(
            "true angular diameter 2 arccos(tanh(d/4)) is not below pi/3 at "
            f"this order (value {diam:.6f}); disjointness is certified by "
            "the pairwise cone margins instead"
        )
    res.margins["cone_separation"] = 2.0 * beta - diam

    # (c) rotated sectors stay disjoint away from the opposite band: the
    # complex-line projection identifies antipodal rays, so rotations with
    # s near n/2 are left to the cone margins of (b).  Over s in [2, n - 2]
    # with |s - n/2| >= 2, the rotation 2 s beta stays at least 4 beta away
    # from 0 mod 2 pi, exactly 4 beta at s = 2, where the sector of width
    # 2 half leaves the gap 4 beta - 2 half, twice sector_upper
    res.passed = all(m > 0.0 for m in res.margins.values())
    return res


# ---------------------------------------------------------------------------
# top-level verdicts


def surgery_slope_from_type(p: int, q: int, n: int):
    """Integer marking arithmetic: filling curve coefficients for a
    peripheral rotation of type (1/n, -1/n) are (1, n - 3); the loxodromic
    side fills (1, -3)."""
    if {p, q} == {1, -1}:
        return (1, n - 3)
    raise ValueError("no surgery bookkeeping for this type")


def gc_check(ff: FaceFamily) -> CheckResult:
    """GC on the side of the unipotent wall named by ff.side; skipped on the wall."""
    if ff.side.kind is SideKind.LOXODROMIC:
        return gc_check_loxodromic(ff)
    if ff.side.kind is SideKind.ELLIPTIC:
        return gc_check_elliptic(ff)
    note = "unipotent boundary parameter: global check not applicable"
    return CheckResult("gc", True, skipped=True, notes=[note])


def verify(alpha2: float, tol=None, grid_n: int = DEFAULT_GRID) -> VerificationReport:
    """Run the checks at a parameter alpha2 in (0, pi/2) and assemble the
    verdict from ff.side; grid_n sets nothing and is echoed in the report.
    Outside (0, pi/2), NaN included, no check's proof holds, and a
    GeometryError is raised, the CLI's own rule for --alpha2."""
    if not 0.0 < alpha2 < math.pi / 2:
        raise GeometryError("alpha2 outside (0, pi/2)")
    ff = FaceFamily(alpha2, tol)
    checks = {"tf": tf_check(ff), "lc": lc_check(ff), "gc": gc_check(ff)}
    side, gc = ff.side, checks["gc"]
    if side.kind is SideKind.UNIPOTENT:
        verdict = Verdict(
            VerdictKind.NOT_APPLICABLE,
            reason="peripheral element is unipotent: the parameter carries the "
            "cusped uniformization itself, not a surgery",
        )
    elif gc.skipped:
        verdict = Verdict(VerdictKind.INCONCLUSIVE, reason=gc.notes[0])
    elif all(c.passed for c in checks.values()):
        slope = (1, -3) if side.n is None else surgery_slope_from_type(1, -1, side.n)
        verdict = Verdict(VerdictKind.SURGERY, *slope)
    else:
        verdict = Verdict(VerdictKind.INCONCLUSIVE, reason="a check failed")
    return VerificationReport(
        alpha2=alpha2,
        side=side,
        tr_u=8.0 * math.cos(alpha2) ** 2,
        verdict=verdict,
        grid_n=grid_n,
        tol=ff.tol,
        **checks,
    )
