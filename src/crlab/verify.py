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
        the length l of family.param_side.

What holds at every parameter is not checked here: that the ideal vertices
p_A and p_B and their U-translates lie on the bisectors around them, and
that U acts on the visual sphere of p_U by its multiplier, are proved once,
in tests/test_incidence_identities.py, and that the two Giraud circles
bounding the first face are tangent at p_A and at p_B, in
tests/test_bitangency_identities.py.

TF's exclusion margin is the infimum of E / (|V|^2 sin^2(delta -
delta_v)), E = |<p_U, V>|^2 - |<p_V, V>|^2, over the ball part of the
Giraud torus of the faces F_0^- and F_-1^-, delta_v = family.delta_v the
vertex column.  Up to family.ALPHA2_STAR it is the closed form
family.exclusion_margin, 24 cos^2(alpha2) / (8 cos^2(alpha2) + 1), proved
once in tests/test_tf_margin_identities.py, and no column is read.  Above
it TF reads the torus one delta-column at a time, where every form is a
sinusoid in sigma: the margin is an exact minimum over sigma, sampled in
delta about the vertex column.  That pass is one (5, 3) row array,
FaceFamily.passes, read by one bisector.column_minima call
(FaceFamily.torus_pass), and it is also the torus the spinal-trace figure
draws.  LC's claims on both face pairs rest on TF's margin: on F_0^- and
F_-1^- it is the same claim, and the slice's involution, which fixes p_U
and swaps p_V with p_W, carries the pass of F_0^+ and F_1^+ onto it, V
onto -V at every (sigma, delta), so that pass fails exactly where this
one does (tests/test_lc_identities.py).
The unipotent wall is decided once, by family.param_side: on it GC is not
applicable.

Passing all three yields the Dehn-surgery verdict for the parameter:
slope 1/(n-3) on the elliptic side of order n >= 9, slope -1/3 on the
loxodromic side.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .core import box_rows, siegel_model, tolerance
from .family import (
    ALPHA2_STAR,
    P_U, P_V, P_W, UI_PW,
    SideKind,
    delta_v,
    elliptic_disks,
    exclusion_margin,
    face_points,
    param_side,
)
from .bisector import torus_exclusion
from .report import CheckResult, Verdict, VerdictKind, VerificationReport

DEFAULT_GRID = 720
# the second lifts of the bisectors of p_U: J_0^+, J_0^- and J_-1^-
BISECTORS = [P_V, P_W, UI_PW]
# the tori (J_0^-, J_-1^-), (J_0^+, J_0^-) and (J_0^+, J_-1^-) as (bisector
# of q, bisector of r), indices into BISECTORS, with their lifts (p_U, q, r)
# as rows of the point table
TORI = [(1, 2), (0, 1), (0, 2)]
TORUS_LIFTS = np.array([[P_U, BISECTORS[i], BISECTORS[j]] for i, j in TORI])


# ---------------------------------------------------------------------------
# the face family at a parameter


class FaceFamily:
    """All data attached to a parameter: the side of `family.param_side`
    and grid settings, formed at once, and as arrays, formed on first read,
    the point table P of `family.face_points` (rows P_A .. UI_PW) and the
    lifts (p_U, q, r) of the tori of TORI with their box rows (q box r, p_U
    box r, q box p_U), each (3, 3, 3).  Torus 0 carries the exclusion pass,
    as the row array `passes` (5, 3) = (p_U, p_V, q box r, p_U box r, q box
    p_U) of `bisector.column_minima`, which TF samples only above
    ALPHA2_STAR (`tf_margin`); so a verify up to ALPHA2_STAR forms none of
    the arrays.  Tori 1 and 2 bound the first face by Giraud circles that
    are tangent at p_A and p_B at each alpha2 in (0, pi/2), proved once in
    tests/test_bitangency_identities.py; the program reads them nowhere.
    Each torus is parametrized by (q - e^{i th} p_U) box (r - e^{i ph}
    p_U), and every pair is an unbalanced pair of equal-norm lifts at each
    alpha2 in (0, pi/2) (tests/test_face_family_identities.py).
    The projected disks of J_0^+ and J_0^- on the visual sphere of [p_U]
    are closed forms in the order n (`family.elliptic_disks`), which GC and
    the disk-projection figure read without a chart."""

    def __init__(self, alpha2: float, tol=None, grid_n: int = DEFAULT_GRID):
        self.alpha2 = float(alpha2)
        self.tol = tolerance(tol)
        self.grid_n = int(grid_n)
        if self.grid_n < 2:
            # torus_pass reads grid_n // 2 delta-columns, at least one
            raise ValueError(f"grid_n must be >= 2, got {self.grid_n}")
        self.side = param_side(self.alpha2, self.tol)
        self.space = siegel_model()

    @cached_property
    def P(self) -> np.ndarray:
        """The point table of `family.face_points`, (14, 3)."""
        return face_points(self.alpha2)

    @cached_property
    def lifts(self) -> np.ndarray:
        """The lifts (p_U, q, r) of the tori of TORI, (3, 3, 3)."""
        return self.P[TORUS_LIFTS]

    @cached_property
    def rows(self) -> np.ndarray:
        """The box rows (q box r, p_U box r, q box p_U) of the tori of
        TORI, (3, 3, 3), in one `core.box_rows` call."""
        return box_rows(self.lifts[:, [1, 0, 1]], self.lifts[:, [2, 2, 0]], self.space)

    @cached_property
    def passes(self) -> np.ndarray:
        """TF's pass on torus 0, the row array (p_U, p_V, q box r, p_U box
        r, q box p_U), (5, 3)."""
        return np.concatenate([self.lifts[0, :1], self.P[[P_V]], self.rows[0]])

    @cached_property
    def torus_pass(self) -> float:
        """The `bisector.torus_exclusion` margin of the pass: p_V on torus 0
        (vertices p_A, p_B), on grid_n // 2 columns about the vertex column
        `family.delta_v`; never below `family.exclusion_margin` where that
        is the infimum."""
        return torus_exclusion(self.passes, delta_v(self.alpha2), self.grid_n // 2, self.space)

    @property
    def margin_is_closed_form(self) -> bool:
        """Whether TF's margin is `family.exclusion_margin`: at each alpha2
        in (0, ALPHA2_STAR]."""
        return 0.0 < self.alpha2 <= ALPHA2_STAR

    @cached_property
    def tf_margin(self) -> float:
        """TF's exclusion margin, on which LC rests too: the closed form
        `family.exclusion_margin` where it is proved the infimum, the
        sampled `torus_pass` above ALPHA2_STAR."""
        return exclusion_margin(self.alpha2) if self.margin_is_closed_form else self.torus_pass


# ---------------------------------------------------------------------------
# TF: topology of faces


def tf_check(ff: FaceFamily) -> CheckResult:
    """TF from what can fail: the torus exclusion.  What holds at every
    alpha2 is proved once: the identities behind it in
    tests/test_tf_identities.py, the margin in closed form up to
    ALPHA2_STAR in tests/test_tf_margin_identities.py, the tori's
    preconditions in tests/test_face_family_identities.py, the complex-line
    locus on the column delta = family.delta0 in
    tests/test_line_and_contact_identities.py, the vertices at the ends of
    the column family.delta_v in tests/test_vertex_identities.py, and the
    bi-tangency of the two Giraud circles bounding the first face at p_A
    and p_B in tests/test_bitangency_identities.py, whose residuals the
    report carries as the proved zeros of `_bitangency`."""
    res = CheckResult("tf", True)

    # on the ball part of the torus of J_0^- and J_-1^-, |<z, p_U>| <=
    # |<z, p_V>| only at p_A and p_B; where no sampled column meets the
    # ball the margin is inf, no evidence either way
    margin = res.margins["torus_exclusion"] = ff.tf_margin
    if ff.margin_is_closed_form:
        res.notes.append(
            "torus exclusion is the closed form 24c^2/(8c^2 + 1), c = cos(alpha2), the exact "
            f"infimum on the ball part for alpha2 <= alpha* = {ALPHA2_STAR:.8g} "
            "(tests/test_tf_margin_identities.py)"
        )
    else:
        if math.isinf(margin):
            res.notes.append(
                "torus_exclusion: no sampled delta-column meets the ball (the ball band at "
                f"delta_v is narrower than the column spacing pi/{ff.grid_n // 2})"
            )
        res.notes.append(
            "torus exclusion is exact in sigma on each delta-column and sampled "
            "in delta (numerical, not a proof)"
        )

    res.residuals["bitangency_pA"], res.residuals["bitangency_pB"] = _bitangency()
    res.passed = bool(0.0 < margin < math.inf)
    return res


def _bitangency() -> list[float]:
    """The angles between the Giraud circles bounding the first face (tori 1
    and 2 of `FaceFamily`) at p_A and at p_B: both 0 at each alpha2 in (0,
    pi/2), where the circles' affine-chart velocities at each vertex are
    nonzero and real multiples of one another
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
    are the vertices at the ends of the column family.delta_v, in
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
    sin^2(beta) (2x + 1) (`family.elliptic_disks`, whose sin(half) it
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
        # n >= 9 (tests/test_gc_identities.py)
        res.skipped = True
        res.passed = False
        res.notes.append(
            "angular-sector method requires order >= 9; orders 4..8 are "
            "settled in the triangle-group literature by other techniques"
        )
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
    """Run the checks at a parameter and assemble the verdict from ff.side."""
    ff = FaceFamily(alpha2, tol, grid_n)
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
