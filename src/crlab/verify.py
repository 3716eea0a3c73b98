"""The verification engine for the deformed Ford/Dirichlet domain.

For a parameter alpha2 on the alpha1 = 0 slice, three conditions are
checked numerically:

  TF  - topology of faces: the triple bisector intersection meets the
        closure of the ball only at the two shared ideal vertices, and the
        two Giraud circles bounding a face are bi-tangent there;
  LC  - local combinatorics: neighbouring faces meet in Giraud disks or in
        the expected vertex pairs, and the face cut is well defined;
  GC  - global combinatorics: non-neighbouring bisectors are disjoint,
        certified by closed-form guard surfaces on the visual sphere of the
        deformation's fixed point (annuli on the loxodromic side, angular
        sectors on the elliptic side) plus exact cone-separation margins.

TF and LC read the Giraud tori of neighbouring faces one delta-column at a
time, where every form is a sinusoid in sigma: each exclusion margin is an
exact minimum over sigma, sampled in delta, and one bisector.column_minima
call reads every column of a parameter (FaceFamily.torus_pass), from the
sinusoids of the one stage that also draws the spinal-trace figure.  The
unipotent wall is decided once, by family.param_side: on it GC is not
applicable and the visual chart does not exist.

Passing all three yields the Dehn-surgery verdict for the parameter:
slope 1/(n-3) on the elliptic side of order n >= 9, slope -1/3 on the
loxodromic side.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

import numpy as np

from .core import GeometryError, apply, box_rows, siegel_model, tolerance
from .family import (
    P_A, P_B, P_U, P_V, P_W, P_U1, P_U2, U_PA, U_PB, U_PV, U_PW, UI_PB, UI_PV, UI_PW, U2_PV, UI2_PW,
    SideKind,
    delta0,
    face_points,
    involution_matrix,
    param_side,
)
from .bisector import (
    ExtorPairKind,
    GiraudTorus,
    SymmetricKind,
    bisector_kinds,
    giraud_circle_tangents,
    pair_kinds,
    symmetric_kinds,
    torus_exclusion,
)
from .visual import (
    Silhouette,
    VisualChart,
    angular_diameter,
    silhouette_circles,
    tangencies,
)
from .report import CheckResult, Verdict, VerdictKind, VerificationReport

DEFAULT_GRID = 720
# cone margins this close to the least one are ties up to rounding
CONE_TIE = 8 * np.spacing(math.pi)
# incidence's Gram block: the vertices and their translates (rows) against
# the bisectors' points (columns), and its real-spine samples p_U + lam q,
# |lam| = 1
INCIDENCE_ROWS, INCIDENCE_COLS = np.array([[P_A], [P_B], [U_PA], [UI_PB], [U_PB]]), np.array([P_U, P_V, P_W, UI_PV, UI_PW, U_PV])
SPINE_LAMBDAS = np.exp(1j * np.linspace(0.3, 5.9, 5))[:, None]
# the second lifts of the bisectors of p_U: J_0^+, J_0^-, J_1^+ and J_-1^-
BISECTORS = [P_V, P_W, U_PV, UI_PW]
# row pairs of FaceFamily.boxes: the foci p_U box q of BISECTORS, then q box
# r of the tori (J_0^-, J_-1^-), (J_0^+, J_1^+), (J_0^+, J_0^-) and
# (J_0^+, J_-1^-), then U p_V box p_W for LC's second triple
BOX_PAIRS = np.array([[P_U, q] for q in BISECTORS] + [[P_W, UI_PW], [P_V, U_PV], [P_V, P_W], [P_V, UI_PW], [U_PV, P_W]]).T
# the tori above as (bisector of q, bisector of r), indices into BISECTORS,
# with their lifts (p_U, q, r) as rows of the point table
TORI = [(1, 3), (0, 2), (0, 1), (0, 3)]
TORUS_LIFTS = np.array([[P_U, BISECTORS[i], BISECTORS[j]] for i, j in TORI])


# ---------------------------------------------------------------------------
# the face family at a parameter


class FaceFamily:
    """All data attached to a parameter, as arrays: the point table P of
    `family.face_points` (rows P_A .. UI2_PW), its Gram table G[i, j] =
    <P_i, P_j>, the Euclidean lengths of its rows and the box products of
    the row pairs BOX_PAIRS, from which every decision of the checks is
    read; the oriented chart on the visual sphere of [p_U]; grid settings."""

    def __init__(self, alpha2: float, tol=None, grid_n: int = DEFAULT_GRID):
        self.alpha2 = float(alpha2)
        self.tol = tolerance(tol)
        self.grid_n = int(grid_n)
        self.side = param_side(self.alpha2, self.tol)
        self.space = siegel_model()
        self.P = face_points(self.alpha2)
        self.G = self.space.gram(self.P)
        self.lengths = np.linalg.norm(self.P, axis=1)
        self.boxes = box_rows(self.P[BOX_PAIRS[0]], self.P[BOX_PAIRS[1]], self.space)
        self.I = involution_matrix(self.alpha2)
        self.chart = self._oriented_chart()

    def _oriented_chart(self):
        """Chart on the visual sphere of [p_U] in which U acts by
        z -> e^{2l} z (loxodromic) or z -> e^{2 i beta} z (elliptic); None
        exactly on the unipotent wall of `param_side`, as the multiplier is.

        With the convention <u,v> = u^H J v the usual ordering of the two
        non-unit eigenvectors yields the reciprocal chart on the loxodromic
        side (the eigenvectors are null there, so 0 and infinity swap
        roles); the ordering below restores the expanding orientation.
        """
        if self.side.kind is SideKind.UNIPOTENT:
            return None
        rows = (P_U2, P_U1) if self.side.kind is SideKind.LOXODROMIC else (P_U1, P_U2)
        return VisualChart(self.P[P_U], *self.P[list(rows)], self.space)

    @cached_property
    def chart_multiplier(self) -> complex | None:
        """The m with chart(U x) = m chart(x): e^{2l} on the loxodromic side,
        e^{2 i beta} on the elliptic side, None on the unipotent wall.  So
        the chart image of J_k^+- is m^k times that of J_0^+-."""
        side = self.side
        if side.kind is SideKind.LOXODROMIC:
            return complex(math.exp(2.0 * side.length))
        if side.kind is SideKind.ELLIPTIC:
            return cmath.exp(2j * side.beta)
        return None

    @cached_property
    def bisector_kinds(self) -> tuple[np.ndarray, list]:
        """(r_disc, kinds) of the bisectors of p_U with BISECTORS, read from G."""
        return bisector_kinds(self.G, self.lengths, P_U, BISECTORS, self.tol)

    @cached_property
    def pair_kinds(self) -> list[ExtorPairKind]:
        """The pair kinds of the TORI, from the foci's products with the lifts."""
        lifts = self.P[[[P_U, q] for q in BISECTORS]]
        return pair_kinds(self.boxes[:4], lifts, TORI, self.space, self.tol)

    @cached_property
    def tori(self) -> list[GiraudTorus]:
        """The tori of J_0^- with J_-1^- and of J_0^+ with J_1^+ (TF, LC),
        then of J_0^+ with J_0^- and with J_-1^- (the Giraud circles of
        `_bitangency`), each parametrized by (q - e^{i th} p_U) box (r -
        e^{i ph} p_U) from the table's box products, once its lifts have
        equal norms (`bisector_kinds`) and the pair is unbalanced.  A raise
        is not cached: each reader raises."""
        self.bisector_kinds
        for kind in self.pair_kinds:
            if kind is not ExtorPairKind.UNBALANCED:
                raise GeometryError(f"pair is {kind.value}; torus needs an unbalanced pair")
        i, j = np.array(TORI).T
        rows = zip(self.boxes[4:8], self.boxes[j], -self.boxes[i])
        return [GiraudTorus(lifts, r, self.space) for lifts, r in zip(self.P[TORUS_LIFTS], rows)]

    @cached_property
    def symmetric(self) -> tuple[np.ndarray, list]:
        """(u, kinds) of the symmetric triples (p_U, p_V, p_W) and (p_U,
        U p_V, p_W) (`symmetric_kinds`), LC's Giraud disks."""
        b = self.boxes  # rows of BOX_PAIRS; p_W box p_U is -(p_U box p_W)
        return symmetric_kinds(np.array([[b[0], b[6], -b[1]], [b[2], b[8], -b[1]]]), self.space, self.tol)

    @cached_property
    def silhouettes(self):
        """(silhouettes, slices) of J_0^+ and J_0^- in the chart
        (`silhouette_circles`), each built once; GC reads every translate's
        from these by the chart multiplier, and the disk-projection figure
        samples the slices."""
        scale = (self.lengths[P_U] * self.lengths[[P_V, P_W]]).tolist()
        return silhouette_circles(self.chart, self.P[[P_V, P_W]], self.G[P_U, [P_V, P_W]], scale, self.tol)

    @cached_property
    def torus_pass(self) -> tuple[list, np.ndarray]:
        """`bisector.torus_exclusion` of p_V on the first torus at p_A and
        p_B (TF, LC) and of p_W on the second at p_B and U p_A (LC), on
        grid_n // 2 columns, and TF's whole complex-line columns of the
        first: the minima of -|<lpole, z>|^2 at delta0 and of |<lpole,
        z>|^2 at delta0 + pi/2."""
        P, (tm, tp, *_), s = self.P, self.tori, math.sin(self.alpha2)
        d0, lpole, zero = delta0(self.alpha2), np.array([s, -1j * math.sqrt(2.0) / 2.0, -s]), np.zeros(3)
        passes = [(tm, P[P_V], P[[P_A, P_B]]), (tp, P[P_W], P[[P_B, U_PA]])]
        blocks = [(tm, [d0], zero, lpole, False), (tm, [d0 + math.pi / 2.0], lpole, zero, False)]
        return torus_exclusion(passes, blocks, self.grid_n // 2)

    @cached_property
    def criterion_tangencies(self) -> list[bool]:
        """`tangencies` of (p_U, p_V) at U p_A and U^-1 p_B, read by TF and GC.
        A raise (the tangency band at the wall) is not cached: each reader raises."""
        return tangencies(self.G, self.lengths, P_U, P_V, [U_PA, UI_PB], self.tol)


# ---------------------------------------------------------------------------
# small shared helpers


def _record_exclusion(ff: FaceFamily, res: CheckResult, key: str, exclusion, names) -> bool:
    """Record a `torus_exclusion` pass in `res` under `key` and the vertex
    `names`, with notes; whether the margin is positive and no residual
    exceeds the gate 1e3 tol."""
    margin, resids = exclusion
    res.margins[key] = margin
    res.residuals.update(zip(names, resids))
    if math.isinf(margin):
        res.notes.append(
            f"{key}: no sampled delta-column meets the ball (the ball band at "
            f"delta_v is narrower than the column spacing pi/{ff.grid_n // 2})"
        )
    gate = 1e3 * ff.tol
    over = [(n, r) for n, r in zip(names, resids) if not r <= gate]
    res.notes.extend(f"{n}: vertex residual {r:.2e} exceeds the gate 1e3 tol = {gate:.2e}" for n, r in over)
    return margin > 0.0 and not over


# ---------------------------------------------------------------------------
# incidence check


def incidence_check(ff: FaceFamily) -> CheckResult:
    """Unit-modulus products putting the two ideal vertices on the four
    bisectors around them, plus translation compatibility of the family and
    the chart action chart(U x) = m chart(x) of `FaceFamily.chart_multiplier`
    (skipped, with a note, on the unipotent wall)."""
    P, sp = ff.P, ff.space
    res = CheckResult("incidence", True)
    # |<z, w>| for the vertices and their translates z (rows: p_A, p_B, U p_A,
    # U^-1 p_B, U p_B) and the bisectors' second points w (columns: p_U, p_V,
    # p_W, U^-1 p_V, U^-1 p_W, U p_V), read from the Gram table
    G = np.abs(ff.G[INCIDENCE_ROWS, INCIDENCE_COLS]).tolist()
    units = G[0][:5] + [G[1][j] for j in (0, 1, 2, 5, 4)]
    res.residuals["max_modulus_deviation"] = max(abs(x - 1.0) for x in units)
    # corollary translations: both vertices and their U-translates lie on
    # the expected bisectors
    res.residuals["max_translation_incidence"] = max(
        [abs(G[i][0] - G[i][1]) for i in (0, 2, 1, 3)] + [abs(G[i][0] - G[i][2]) for i in (0, 2, 1, 4)]
    )
    # symmetry: the involution carries J_k^+ onto J_{-k}^- and back, checked
    # on real-spine samples p_U + lam q of each side, shape (k, side, lam, 3),
    # q = U^k p_V and U^-k p_W for k = 0, 1, 2
    q = P[[[P_V, P_W], [U_PV, UI_PW], [U2_PV, UI2_PW]]]
    iz = apply(ff.I, P[P_U] + SPINE_LAMBDAS * q[:, :, None])
    to_image = np.abs(sp.form(iz, q[:, ::-1, None]))
    sym = np.abs(np.abs(sp.form(P[P_U], iz)) - to_image) / np.maximum(1.0, (np.abs(iz) ** 2).sum(axis=-1))
    res.residuals["max_involution_symmetry"] = float(sym.max())
    # U acts on the chart by its multiplier m, from which every translate's
    # silhouette is taken: checked at the vertices and at p_V, p_W
    m, ch = ff.chart_multiplier, ff.chart
    if ch is None:
        res.notes.append("chart_action skipped: U acts on no chart by a multiplier at the unipotent parameter")
    else:
        z = ch.values(P[[P_A, P_B, P_V, P_W, U_PA, U_PB, U_PV, U_PW]])
        mz = m * z[:4]
        with np.errstate(invalid="ignore"):
            act = np.abs(z[4:] - mz) / np.maximum(1.0, np.abs(mz))
        # a point at the chart's infinity reads inf
        res.residuals["chart_action"] = float(np.where(np.isnan(act), math.inf, act).max())
    tol = 1e3 * ff.tol
    res.passed = all(v <= tol for v in res.residuals.values())
    return res


# ---------------------------------------------------------------------------
# TF: topology of faces


def tf_check(ff: FaceFamily) -> CheckResult:
    """TF from what can fail: the torus exclusion, the complex-line columns,
    the bi-tangency and the criterion tangencies; the identities in alpha2
    behind them are proved once, in tests/test_tf_identities.py."""
    res = CheckResult("tf", True)

    # on the ball part of the torus of J_0^- and J_-1^-, |<z, p_U>| <=
    # |<z, p_V>| only at p_A and p_B
    names = ("vertex_pA_distance", "vertex_pB_distance")
    (minus, _), lines = ff.torus_pass
    passed_c = _record_exclusion(ff, res, "torus_exclusion", minus, names)

    # complex-line locus on the torus sits at delta = delta0 mod pi: the
    # largest |<z, lpole>| on the whole column at delta0 and the least at
    # delta0 + pi/2, in closed form (`FaceFamily.torus_pass`)
    col_d0, col_mid = math.sqrt(max(0.0, -lines[0])), math.sqrt(max(0.0, lines[1]))
    res.residuals["cline_locus_at_delta0"] = col_d0
    res.margins["cline_locus_off_delta0"] = col_mid

    res.notes.append(
        "torus exclusion is exact in sigma on each delta-column and sampled "
        "in delta (numerical, not a proof)"
    )

    # --- bi-tangency of the two bounding Giraud circles at p_A and p_B
    bt_resid, bt_notes = _bitangency(ff.tori[2:], ff.P[[P_A, P_B]])
    res.residuals["bitangency_pA"] = bt_resid[0]
    res.residuals["bitangency_pB"] = bt_resid[1]
    res.notes.extend(bt_notes)

    crit_ok = True
    if ff.side.kind is not SideKind.UNIPOTENT:
        crit_ok = all(ff.criterion_tangencies)
        res.counts["criterion_tangencies"] = 2 if crit_ok else 0
    else:
        res.notes.append(
            "criterion tangency skipped: <p_U, p_U> = 0 at the unipotent parameter"
        )

    bt_ok = max(bt_resid) <= 1e-3
    res.passed = bool(passed_c and bt_ok and crit_ok and col_d0 <= 1e-9 and col_mid > 0)
    return res


def _bitangency(circles, targets):
    """Tangent-direction agreement of the Giraud circles bounding the first
    face (the last two `FaceFamily.tori`) at both shared ideal vertices, as real
    lines in an affine chart, from one `giraud_circle_tangents` evaluation."""
    w, _, dist = giraud_circle_tangents([(c, t) for t in targets for c in circles])
    r = np.concatenate([w.real, w.imag], axis=1).reshape(len(targets), 2, 4)
    r /= np.linalg.norm(r, axis=-1, keepdims=True)
    resids = np.sqrt(np.maximum(0.0, 1.0 - (r[:, 0] * r[:, 1]).sum(axis=-1) ** 2)).tolist()
    dist = dist.reshape(-1, 2).max(axis=1)
    notes = [f"vertex location failed (dist {d:.2e})" for d in dist if d > 1e-5]
    return [math.inf if d > 1e-5 else r for r, d in zip(resids, dist)], notes


# ---------------------------------------------------------------------------
# LC: local combinatorics


def lc_check(ff: FaceFamily) -> CheckResult:
    res = CheckResult("lc", True)
    a2 = ff.alpha2
    u = (2.0 / 3.0) * (4.0 * math.cos(a2) ** 2 - 3.0)
    # 2/3 - u in closed form, without the cancellation of 2/3 - u near alpha2 = 0
    margin = (8.0 / 3.0) * math.sin(a2) ** 2
    res.margins["u_below_two_thirds"] = margin
    ok_u = margin > 0.0

    # both face-boundary intersections are Giraud disks of symmetric triples
    (u1, u2), kinds = ff.symmetric
    res.residuals["u_plus_pair"] = abs(u1 - u)
    res.residuals["u_cross_pair"] = abs(u2 - u)
    # below alpha2 ~ 6e-4 a triple's u falls in the 1e3 tol band around 2/3
    # that reads TRI_CIRCLE_DISK; there the closed form decides, when the
    # triple's u matches it
    disks_ok = all(
        kind is SymmetricKind.DISK
        or (kind is SymmetricKind.TRI_CIRCLE_DISK and abs(x - u) <= 1e3 * ff.tol and margin > 0.0)
        for x, kind in zip((u1, u2), kinds)
    )

    # F_0^- /\ F_-1^- == {p_A, p_B} and F_0^+ /\ F_1^+ == {p_B, U p_A}: each
    # pair lies in the set of the constraint both faces share, |<z,p_U>| <=
    # |<z,p_V>| (TF's torus_exclusion pass) and <= |<z,p_W>|, so it suffices
    # that this set meets the torus's ball part only at the two vertices
    (minus, plus), _ = ff.torus_pass
    mm_names = ("faces_minus_minus_vertex_pA", "faces_minus_minus_vertex_pB")
    ok_mm = _record_exclusion(ff, res, "faces_minus_minus", minus, mm_names)
    pp_names = ("faces_plus_plus_vertex_pB", "faces_plus_plus_vertex_UpA")
    ok_pp = _record_exclusion(ff, res, "faces_plus_plus", plus, pp_names)

    # fan parameter: the singular focus must sit strictly inside the
    # quadrilateral's boundary arc on its slice circle
    fan_ok = True
    if abs(a2 - math.pi / 6.0) < 1e-9:
        fan_ok = _fan_focus_check(ff, res)
    res.passed = bool(ok_u and disks_ok and ok_mm and ok_pp and fan_ok)
    return res


def _fan_focus_check(ff: FaceFamily, res: CheckResult) -> bool:
    """At the fan parameter the focus is a singular point of the boundary
    sphere; it must lie strictly inside the face, located on the slice
    circle through the two neighbouring vertices."""
    sp = ff.space
    thetas = np.linspace(0.0, 2.0 * math.pi, 1441)
    ones = np.ones_like(thetas)
    Q = np.stack([ones, math.sqrt(2.0) * np.exp(1j * thetas), -ones], axis=-1)
    mu, mw, muw = (np.abs(sp.inner_grid(w, Q)) ** 2 for w in ff.P[[P_U, P_W, UI_PW]])
    c, s = np.cos(thetas), np.sin(thetas)
    identities = [
        mu - 2.0 * (1.0 + s),
        mw - (6.0 * math.sqrt(3.0) * c + 2.0 * s + 11.0),
        muw - (-6.0 * math.sqrt(3.0) * c + 2.0 * s + 11.0),
    ]
    worst = float(np.abs(identities).max())
    res.residuals["fan_circle_identities"] = worst
    # by the identities mu <= min(mw, muw) exactly when |cos theta| <=
    # sqrt(3)/2: on the arc 3 pi/2 +- asin(sqrt(3)/2) = [7 pi/6, 11 pi/6]
    # around the focus theta = 3 pi/2
    res.margins["fan_focus_interior"] = math.asin(math.sqrt(3.0) / 2.0)
    res.notes.append(
        "fan focus checked on the slice circle through the quadrilateral "
        "vertices at theta = 7pi/6 and 11pi/6"
    )
    return worst <= 1e-8 and res.margins["fan_focus_interior"] > 0


# ---------------------------------------------------------------------------
# GC: global combinatorics


def _tangency_pair_check(ff: FaceFamily, res: CheckResult) -> bool:
    """Single-point contacts of the first face's bisector with its two
    contact neighbours in the other family.

    The projected disks are tangent to D_0^+ at the chart images of U p_A
    (neighbour at k = +1) and of U^-1 p_B (neighbour at k = -2; the second
    contact lives two steps away, matching the vertex incidences).  The
    neighbour J_k^- is the U^k-translate of J_0^-, so its silhouette is that
    of J_0^- with centre times m^k and radius times |m|^k, m the chart
    multiplier: no translate is built."""
    m, ok = ff.chart_multiplier, True
    (c1, c0), _ = ff.silhouettes
    # the contact points U p_A (k = +1) and U^-1 p_B (k = -2) in the chart
    zs = ff.chart.values(ff.P[[U_PA, UI_PB]]).tolist()
    for name, k, zc, crit in zip(("k_plus_1", "k_minus_2"), (1, -2), zs, ff.criterion_tangencies):
        center, radius = m**k * c0.center, abs(m) ** k * c0.radius
        d = abs(c1.center - center)
        resid = min(abs(d - (c1.radius + radius)), abs(d - abs(c1.radius - radius)))
        scale = max(c1.radius, radius, 1.0)
        res.residuals[f"disk_tangency_{name}"] = resid / scale
        on1 = abs(abs(zc - c1.center) - c1.radius)
        on2 = abs(abs(zc - center) - radius)
        res.residuals[f"contact_point_{name}"] = max(on1, on2) / scale
        ok = ok and crit and resid / scale <= 1e-6
    res.notes.append(
        "second cross-family contact certified at offset -2 (the vertex "
        "U^-1 p_B lies on that bisector by the translation incidences)"
    )
    return ok


def cone_angles(ff: FaceFamily, ks) -> np.ndarray:
    """Angles at p_U from the geodesic toward p_V to those toward U^k p_V
    (column 0) and U^k p_W (column 1), shape (len(ks), 2), on the elliptic
    side of order n.

    U fixes p_U and scales its eigenvectors p_U', p_U'' by e^{i beta},
    e^{-i beta} with beta = 2 pi / n, so <p_U, U^k x> = <p_U, x> and in the
    orthonormal basis of the polar line that the normalized eigenvectors
    give, the unit tangent direction toward U^k x is (c' e^{ik beta},
    c'' e^{-ik beta}) for the direction (c', c'') toward x.  The angle is
    2 atan2(|d - x|, |d + x|), which keeps its precision near pi.
    """
    # the directions toward p_V and p_W (rows), rephased so that <p_U, x> is
    # real negative, the geodesic direction's convention (the oracle
    # tangent_direction in tests/oracles.py), from the Gram table
    G, e = ff.G, [P_U1, P_U2]
    dirs = G[e][:, [P_V, P_W]].T / np.sqrt(G[e, e].real) * -G[P_U, [P_V, P_W]].conj()[:, None]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = np.exp(2j * math.pi / ff.side.n * np.asarray(ks))[:, None]
    X = dirs * np.stack([z, z.conj()], axis=-1)
    d = dirs[0]
    return 2.0 * np.arctan2(np.linalg.norm(d - X, axis=-1), np.linalg.norm(d + X, axis=-1))


def _cone_separation(ff: FaceFamily, res: CheckResult, n: int, diam: float) -> bool:
    """Exact pairwise cone margins on the elliptic side: the direction cones
    of two bisectors are disjoint when their axes are separated by more
    than twice the cone radius, half the angular diameter `diam`."""
    rho = diam / 2.0
    res.residuals["value_cone_radius"] = rho
    ks = np.arange(2, n - 1)
    margins = cone_angles(ff, ks) - 2.0 * rho
    margins[-1, 1] = math.inf  # k = n - 2, minus: the vertex-contact pair of the tangency check
    least = margins.min()
    # pairs with equal exact angles (k and n - k of the plus family) differ by
    # rounding; the note names the smallest (k, family) among them
    i, j = divmod(int(np.flatnonzero(margins <= least + CONE_TIE)[0]), 2)
    res.margins["cone_separation"] = float(least)
    res.notes.append(f"tightest cone pair: k={ks[i]},{('plus', 'minus')[j]}")
    return least > 0.0


def _disk_extent(res: CheckResult, name: str, sil: Silhouette):
    """The projected disk |z - c| <= r of a silhouette as seen from 0: the
    range log(|c| -+ r) of log|z|, and the half-width asin(r/|c|) of arg z
    about arg c.  Both need the disk to be bounded and to miss 0 (|c| > r);
    where that gate fails it is named in a note, and the extent is that of
    the whole plane."""
    c, r = abs(sil.center), sil.radius
    if sil.bounded and c > r:
        return math.log(c - r), math.log(c + r), math.asin(r / c)
    res.notes.append(f"disk gate failed: the projected disk of {name} is not bounded away from 0 (|c| > r)")
    return -math.inf, math.inf, math.pi


def gc_check_loxodromic(ff: FaceFamily) -> CheckResult:
    res = CheckResult("gc", True)
    if ff.side.kind is not SideKind.LOXODROMIC:
        raise ValueError("loxodromic check on a non-loxodromic parameter")
    length = ff.side.length
    a2 = ff.alpha2

    # (a) the closed-form exclusion chain for the two guard circles
    lhs = 9.0 * math.cosh(4 * length) + 8.0 * math.cosh(length)
    rhs = 8.0 * math.cosh(3 * length) + 8.0 * math.cosh(2 * length) + 1.0
    res.margins["exclusion_chain"] = lhs - rhs
    res.margins["convexity"] = (
        math.cosh(4 * length) + math.cosh(length) - math.cosh(3 * length) - math.cosh(2 * length)
    )
    res.margins["cosh4l_above_1"] = math.cosh(4 * length) - 1.0

    # (b) the h identities
    h1, h2 = ff.G[[P_U1, P_U2], P_V].tolist()
    t = 2.0 * math.cosh(length) + 1.0
    ch_half = math.cosh(length / 2.0)
    r_h1 = abs(abs(h1) ** 2 - 12.0 * math.exp(length / 2.0) * t * ch_half)
    r_h2 = abs(abs(h2) ** 2 - 12.0 * math.exp(-length / 2.0) * t * ch_half)
    r_h12 = abs(abs(h1) * abs(h2) - 12.0 * t * ch_half)
    cross = 2.0 * t * (
        (5.0 - 2.0 * math.cosh(length)) * (math.cosh(length) + 1.0)
        - 4j * math.sin(2.0 * a2) * math.sinh(length)
    )
    r_cross = abs(h1 * h2.conjugate() - cross)
    res.residuals["h1_sq"] = r_h1
    res.residuals["h2_sq"] = r_h2
    res.residuals["h1h2"] = r_h12
    res.residuals["h1_conj_h2"] = r_cross
    h_ok = max(r_h1, r_h2, r_h12, r_cross) <= 1e-8 * max(1.0, abs(h1) ** 2)

    # (c) direct guard check: the projected disks stay inside the annuli
    (sil_plus, sil_minus), _ = ff.silhouettes
    m_lo, m_hi, _ = _disk_extent(res, "J_0^+", sil_plus)
    res.margins["annulus_upper"] = 1.5 * length - m_hi
    res.margins["annulus_lower"] = m_lo + 2.5 * length
    annulus_ok = res.margins["annulus_upper"] > 0 and res.margins["annulus_lower"] > 0
    # mirrored family
    mm_lo, mm_hi, _ = _disk_extent(res, "J_0^-", sil_minus)
    res.margins["annulus_minus_upper"] = 2.5 * length - mm_hi
    res.margins["annulus_minus_lower"] = mm_lo + 1.5 * length
    annulus_ok = annulus_ok and res.margins["annulus_minus_upper"] > 0 and res.margins["annulus_minus_lower"] > 0

    # (d) tangencies of the contact pairs
    tang_ok = _tangency_pair_check(ff, res)

    # (e) separation bookkeeping across the window, from the log-modulus
    # range of (c): translates shift by 2kl, the mirrored family is
    # the reflection of the range.  Every gap grows with |k|, so the worst
    # are the nearest translates: k = +-2 in the same family, and k = 2 and
    # k = -3 in the cross family (range [-m_hi, -m_lo] + 2kl)
    res.counts["window"] = max(3, math.ceil(math.log(1e6) / (2.0 * length) + 2.0))
    worst_sep = min(
        (m_lo + 4 * length) - m_hi,
        m_lo - (m_hi - 4 * length),
        (-m_hi + 4 * length) - m_hi,
        m_lo - (-m_lo - 6 * length),
    )
    res.margins["window_annulus_separation"] = worst_sep
    res.passed = bool(
        res.margins["exclusion_chain"] > 0
        and res.margins["cosh4l_above_1"] > 0
        and h_ok
        and annulus_ok
        and tang_ok
        and worst_sep >= 0.0
    )
    return res


def gc_check_elliptic(ff: FaceFamily) -> CheckResult:
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
    res.counts["order"] = n
    if n < 9:
        res.skipped = True
        res.passed = False
        res.notes.append(
            "angular-sector method requires order >= 9; orders 4..8 are "
            "settled in the triangle-group literature by other techniques"
        )
        return res
    beta = 2.0 * math.pi / n
    cb = math.cos(beta)

    # (a) discriminant sign and negativity certificate for the guard rays
    h1, h2 = ff.G[[P_U1, P_U2], P_V].tolist()
    a_h1, a_h2 = abs(h1) ** 2, abs(h2) ** 2
    disc_sign = 2.0 + 4.0 * cb - 9.0 * cb * cb
    res.margins["discriminant_sign"] = -disc_sign  # must be positive
    c0 = a_h2 * (1.0 - a_h1 / 18.0)
    c2 = a_h1 * (1.0 - a_h2 / 18.0)
    c1 = 24.0 * math.cos(2.0 * beta) * (2.0 * cb + 1.0) * math.cos(beta / 2.0)
    disc = c1 * c1 - 4.0 * c0 * c2
    res.margins["P_constant_negative"] = -c0
    res.margins["P_leading_negative"] = -c2
    res.margins["P_discriminant_negative"] = -disc
    closed = 4.0 * a_h1 * a_h2 * (4.0 / 9.0) * math.sin(beta) ** 2 * disc_sign
    res.residuals["discriminant_closed_form"] = abs(disc - closed)
    res.notes.append(
        "discriminant sign factor fixed to 2 + 4 cos(beta) - 9 cos^2(beta); "
        "the variant with -4 cos(beta) fails the closed-form residual check"
    )
    # the maximum of P(k) = c0 + c1 k + c2 k^2 over k >= 0, taken as unbounded
    # unless c2 < 0: at k = 0, or at the vertex k = -c1 / 2 c2 when c1 > 0
    p_max = math.inf if c2 >= 0.0 else c0 - c1 * c1 / (4.0 * c2) if c1 > 0.0 else c0
    res.margins["P_sampled_max"] = -p_max
    r_h12 = abs(
        h2 * h1.conjugate()
        - 12.0 * cmath.exp(1j * beta / 2.0) * (2.0 * cb + 1.0) * math.cos(beta / 2.0)
    )
    r_prod = abs(a_h1 * a_h2 - 72.0 * (2.0 * cb + 1.0) ** 2 * (cb + 1.0))
    res.residuals["h2_conj_h1"] = r_h12
    res.residuals["h_product"] = r_prod
    cert_ok = (
        disc_sign < 0 and c0 < 0 and c2 < 0 and disc < 0 and p_max < 0
        and max(r_h12, r_prod) <= 1e-8 * max(1.0, a_h1 * a_h2)
        and res.residuals["discriminant_closed_form"] <= 1e-6 * max(1.0, abs(disc))
    )

    # (b) direct guard check: the projected disk's arguments avoid the two
    # rays, with arg c wrapped into a window centred between the rays
    # -5 beta/2 and 3 beta/2
    sil = ff.silhouettes[0][0]
    _, _, half = _disk_extent(res, "J_0^+", sil)
    centre = -0.5 * beta
    mid = centre + math.remainder(cmath.phase(sil.center) - centre, 2.0 * math.pi)
    res.margins["sector_upper"] = 1.5 * beta - (mid + half)
    res.margins["sector_lower"] = (mid - half) + 2.5 * beta
    res.margins["sector_width_below_4beta"] = 4.0 * beta - 2.0 * half
    sector_ok = res.margins["sector_upper"] > 0 and res.margins["sector_lower"] > 0

    # (c) real angular control from the interior fixed point
    ratio = (9.0 / 4.0) / (1.0 - cb) ** 2
    res.margins["distance_ratio_above_4"] = ratio - 4.0
    diam = angular_diameter(ff.G, ff.lengths, P_U, P_V, ff.tol)
    res.residuals["value_true_angular_diameter"] = diam
    if diam >= math.pi / 3.0:
        res.notes.append(
            "true angular diameter 2 arccos(tanh(d/4)) is not below pi/3 at "
            f"this order (value {diam:.6f}); disjointness is certified by "
            "the pairwise cone margins instead"
        )
    cone_ok = _cone_separation(ff, res, n, diam)

    # (d) tangencies of the contact pairs
    tang_ok = _tangency_pair_check(ff, res)

    # (e) rotated sectors stay disjoint away from the opposite band: the
    # complex-line projection identifies antipodal rays, so rotations with
    # s near n/2 are left to the real cone margins of (c).  Over the checked
    # s in [2, n - 2] with |s - n/2| >= 2, the rotation 2 s beta stays at
    # least 4 beta away from 0 mod 2 pi, exactly 4 beta at s = 2
    worst_rot = res.margins["sector_width_below_4beta"]
    res.margins["rotated_sector_gap"] = worst_rot
    res.counts["sector_checked_powers"] = n - 6 - n % 2
    res.passed = bool(
        cert_ok and sector_ok and cone_ok and tang_ok
        and ratio > 4.0 and worst_rot > 0.0
    )
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


def _run_check(name: str, check, ff: FaceFamily) -> CheckResult:
    """A check whose preconditions fail at this parameter (GeometryError)
    fails with the reason, so that every parameter gets a report."""
    try:
        return check(ff)
    except GeometryError as exc:
        return CheckResult(name, False, notes=[f"check not evaluated: {exc}"])


def verify(alpha2: float, tol=None, grid_n: int = DEFAULT_GRID) -> VerificationReport:
    """Run the checks at a parameter and assemble the verdict from ff.side."""
    ff = FaceFamily(alpha2, tol, grid_n)
    checks = {
        name: _run_check(name, check, ff)
        for name, check in (
            ("incidence", incidence_check), ("tf", tf_check), ("lc", lc_check), ("gc", gc_check)
        )
    }
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
