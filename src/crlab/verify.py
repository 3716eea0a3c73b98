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

from .core import GeometryError, HVec, inner, tolerance
from .isometry import Isometry
from .family import (
    FamilyParams,
    FamilyRep,
    SideKind,
    delta0,
    involution_matrix,
    param_side,
    remarkable_points,
)
from .bisector import (
    Bisector,
    GiraudTorus,
    SymmetricKind,
    classify_bisector,
    giraud_circle_tangents,
    symmetric_intersection_type,
    torus_exclusion,
)
from .visual import (
    Silhouette,
    VisualChart,
    angular_diameter,
    silhouette_circles,
    tangency_check,
)
from .report import CheckResult, Verdict, VerdictKind, VerificationReport

DEFAULT_GRID = 720
# cone margins this close to the least one are ties up to rounding
CONE_TIE = 8 * np.spacing(math.pi)
# TF (a) sample points (r, s): an 8 x 8 lattice over [-5, 5]^2.  The
# identities checked there are quadratic in (r, s), so these 64 distinct
# nodes determine them
RPLANE_SAMPLES = np.stack(np.meshgrid(np.linspace(-5.0, 5.0, 8), np.linspace(-5.0, 5.0, 8)), axis=-1).reshape(-1, 2)


# ---------------------------------------------------------------------------
# the face family at a parameter


class FaceFamily:
    """All data attached to a parameter: representation, fixed points, the
    oriented chart on the visual sphere of [p_U], and grid settings."""

    def __init__(self, alpha2: float, tol=None, grid_n: int = DEFAULT_GRID):
        self.alpha2 = float(alpha2)
        self.tol = tolerance(tol)
        self.grid_n = int(grid_n)
        self.params = FamilyParams(0.0, self.alpha2)
        self.rep = FamilyRep(self.params)
        self.pts = remarkable_points(self.params, self.rep)
        self.side = param_side(self.alpha2, self.tol)
        self.space = self.rep.space
        self.U = self.rep.U
        self.I = Isometry(involution_matrix(self.alpha2), self.space)
        self.chart = self._oriented_chart()
        pts, self.Ui = self.pts, self.U.inv()
        self.U_pA, self.Ui_pB = self.U.apply(pts.p_A), self.Ui.apply(pts.p_B)
        self.U_pV, self.Ui_pW = self.U.apply(pts.p_V), self.Ui.apply(pts.p_W)
        self._bisectors = {}

    def _oriented_chart(self):
        """Chart on the visual sphere of [p_U] in which U acts by
        z -> e^{2l} z (loxodromic) or z -> e^{2 i beta} z (elliptic); None
        exactly on the unipotent wall of `param_side`, as the multiplier is.

        With the convention <u,v> = u^H J v the usual ordering of the two
        non-unit eigenvectors yields the reciprocal chart on the loxodromic
        side (the eigenvectors are null there, so 0 and infinity swap
        roles); the ordering below restores the expanding orientation.
        """
        pts = self.pts
        if self.side.kind is SideKind.UNIPOTENT:
            return None
        if self.side.kind is SideKind.LOXODROMIC:
            return VisualChart(pts.p_U, pts.p_U_dprime, pts.p_U_prime)
        return VisualChart(pts.p_U, pts.p_U_prime, pts.p_U_dprime)

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

    def u_power_point(self, k: int, p: HVec) -> HVec:
        """U^k p, with k = 0 giving p itself.  On the elliptic side U has the
        eigenvalues 1, a = e^{i beta}, b = e^{-i beta}, so Newton's form of
        z^k on them gives U^k p = p + f[1,a] (U - I)p + f[1,a,b] (U - aI)(U - I)p
        with f[1,a] = (a^k - 1)/(a - 1) = e^{i(k-1) beta/2} sin(k beta/2) /
        sin(beta/2) and f[1,a,b] = (f[a,b] - f[1,a])/(b - 1), f[a,b] =
        sin(k beta)/sin(beta).  Since f[a,b] - f[1,a] = (a^k - 1)(a^{1-k} - 1)
        / (a^2 - 1), f[1,a,b] = sin(k beta/2) sin((k-1) beta/2) /
        (2 sin^2(beta/2) cos(beta/2)): real, and free of the difference
        quotient's cancellation, which loses digits like 1/beta toward the
        wall.  No eigenvector enters (those of a and b merge at the wall).
        Elsewhere the matrix power serves; callers take it only for
        |k| <= 2."""
        side = self.side
        if k == 0:
            return p
        if side.kind is not SideKind.ELLIPTIC:
            return self.U.power(k).apply(p)
        half = 0.5 * side.beta
        s = math.sin(half)
        f1a = cmath.exp(1j * (k - 1) * half) * (math.sin(k * half) / s)
        f1ab = math.sin(k * half) * math.sin((k - 1) * half) / (2.0 * s * s * math.cos(half))
        U = self.U.M
        w = U @ p.v - p.v
        return HVec(p.v + f1a * w + f1ab * (U @ w - cmath.exp(2j * half) * w), p.space)

    def _bisector(self, name: str) -> Bisector:
        """The bisector of p_U with p_V, p_W, U p_V or U^-1 p_W (J_0^+, J_0^-,
        J_1^+ or J_-1^-), by the name of its second point.  Each is classified
        once, on first use; the tori and the silhouettes read these four."""
        if name not in self._bisectors:
            q = {"p_V": self.pts.p_V, "p_W": self.pts.p_W, "U_pV": self.U_pV, "Ui_pW": self.Ui_pW}[name]
            self._bisectors[name] = classify_bisector(self.pts.p_U, q, self.tol)
        return self._bisectors[name]

    def _torus(self, q: str, r: str) -> GiraudTorus:
        return GiraudTorus(self._bisector(q), self._bisector(r), self.tol)

    def bisector_plus(self) -> Bisector:
        """J_0^+, the bisector of p_U and p_V."""
        return self._bisector("p_V")

    def bisector_minus(self) -> Bisector:
        """J_0^-, the bisector of p_U and p_W."""
        return self._bisector("p_W")

    @cached_property
    def silhouettes(self) -> tuple[Silhouette, Silhouette]:
        """The silhouette circles of J_0^+ and J_0^- in the chart, each built
        once; GC reads every translate's from these by the chart multiplier."""
        return tuple(silhouette_circles(self.chart, [self.bisector_plus(), self.bisector_minus()], self.tol))

    @cached_property
    def torus_minus(self) -> GiraudTorus:
        """The intersection torus of the extors of J_0^- and J_-1^-,
        parametrized by (p_W - e^{i th} p_U) box (U^-1 p_W - e^{i ph} p_U)."""
        return self._torus("p_W", "Ui_pW")

    @cached_property
    def torus_plus(self) -> GiraudTorus:
        """The intersection torus of the extors of J_0^+ and J_1^+."""
        return self._torus("p_V", "U_pV")

    @cached_property
    def giraud_circles(self) -> tuple[GiraudTorus, GiraudTorus]:
        """The tori of J_0^+ with J_0^- and with J_-1^-, whose Giraud circles
        bound the first face at p_A and p_B (`_bitangency`)."""
        return self._torus("p_V", "p_W"), self._torus("p_V", "Ui_pW")

    @cached_property
    def torus_pass(self) -> tuple[list, np.ndarray]:
        """`bisector.torus_exclusion` of p_V on `torus_minus` at p_A and p_B
        (TF, LC) and of p_W on `torus_plus` at p_B and U p_A (LC), on
        grid_n // 2 columns, and TF's whole complex-line columns of
        `torus_minus`: the minima of -|<lpole, z>|^2 at delta0 and of
        |<lpole, z>|^2 at delta0 + pi/2."""
        pts, tm, s = self.pts, self.torus_minus, math.sin(self.alpha2)
        d0, lpole, zero = delta0(self.alpha2), np.array([s, -1j * math.sqrt(2.0) / 2.0, -s]), np.zeros(3)
        passes = [(tm, pts.p_V, (pts.p_A, pts.p_B)), (self.torus_plus, pts.p_W, (pts.p_B, self.U_pA))]
        blocks = [(tm, [d0], zero, lpole, False), (tm, [d0 + math.pi / 2.0], lpole, zero, False)]
        return torus_exclusion(passes, blocks, self.grid_n // 2)

    @cached_property
    def criterion_tangencies(self) -> tuple[bool, bool]:
        """tangency_check(p_U, p_V, .) at U p_A and U^-1 p_B, read by TF and GC.
        A raise (the tangency band at the wall) is not cached: each reader raises."""
        return tuple(tangency_check(self.pts.p_U, self.pts.p_V, x, self.tol) for x in (self.U_pA, self.Ui_pB))


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
    pts, U, sp = ff.pts, ff.U, ff.space
    res = CheckResult("incidence", True)
    U_pB = U.apply(pts.p_B)
    # |<z, w>| for the vertices and their translates z (rows: p_A, p_B, U p_A,
    # U^-1 p_B, U p_B) and the bisectors' second points w (columns: p_U, p_V,
    # p_W, U^-1 p_V, U^-1 p_W, U p_V), as one Gram product
    rows = np.array([x.v for x in (pts.p_A, pts.p_B, ff.U_pA, ff.Ui_pB, U_pB)])
    cols = np.array([x.v for x in (pts.p_U, pts.p_V, pts.p_W, ff.Ui.apply(pts.p_V), ff.Ui_pW, ff.U_pV)])
    G = np.abs(sp.inner_grid(rows, cols)).T
    units = np.concatenate([G[0, :5], G[1, [0, 1, 2, 5, 4]]])
    res.residuals["max_modulus_deviation"] = float(np.abs(units - 1.0).max())
    # corollary translations: both vertices and their U-translates lie on
    # the expected bisectors
    on_v, on_w = [0, 2, 1, 3], [0, 2, 1, 4]
    res.residuals["max_translation_incidence"] = float(
        max(np.abs(G[on_v, 0] - G[on_v, 1]).max(), np.abs(G[on_w, 0] - G[on_w, 2]).max())
    )
    # symmetry: the involution carries J_k^+ onto J_{-k}^- and back, checked
    # on real-spine samples p_U + lam q of each side, shape (k, side, lam, 3)
    q = np.array([[ff.u_power_point(k, pts.p_V).v, ff.u_power_point(-k, pts.p_W).v] for k in (0, 1, 2)])
    lam = np.exp(1j * np.linspace(0.3, 5.9, 5))[:, None]
    iz = (pts.p_U.v + lam * q[:, :, None]) @ ff.I.M.T
    to_image = np.abs(((iz.conj() @ sp.J) * q[:, ::-1, None]).sum(axis=-1))
    sym = np.abs(np.abs(sp.inner_grid(pts.p_U.v, iz)) - to_image) / np.maximum(1.0, (np.abs(iz) ** 2).sum(axis=-1))
    res.residuals["max_involution_symmetry"] = float(sym.max())
    # U acts on the chart by its multiplier m, from which every translate's
    # silhouette is taken: checked at the vertices and at p_V, p_W
    m, ch = ff.chart_multiplier, ff.chart
    if ch is None:
        res.notes.append("chart_action skipped: U acts on no chart by a multiplier at the unipotent parameter")
    else:
        X = np.array([x.v for x in (pts.p_A, pts.p_B, pts.p_V, pts.p_W)])
        mz = m * ch.values(X)
        with np.errstate(invalid="ignore"):
            act = np.abs(ch.values(X @ U.M.T) - mz) / np.maximum(1.0, np.abs(mz))
        # a point at the chart's infinity reads inf
        res.residuals["chart_action"] = float(np.where(np.isnan(act), math.inf, act).max())
    tol = 1e3 * ff.tol
    res.passed = all(v <= tol for v in res.residuals.values())
    return res


# ---------------------------------------------------------------------------
# TF: topology of faces


def tf_check(ff: FaceFamily) -> CheckResult:
    res = CheckResult("tf", True)
    pts, sp, a2 = ff.pts, ff.space, ff.alpha2
    cos2 = math.cos(a2) ** 2
    sin_a2 = math.sin(a2)

    # --- (a) real-plane part: the two closed-form squared moduli and the
    # resulting exclusion 2s^2 - r >= 3 s^2 on the norm <= 0 half.
    r, s = RPLANE_SAMPLES.T
    Q = np.stack([r, 1j * math.sqrt(2.0) * s, np.ones_like(r)], axis=-1)
    lhs_u = np.abs(sp.inner_grid(pts.p_U.v, Q)) ** 2
    rhs_u = r * r + s * s + 1.0 + 2.0 * r * (2.0 * cos2 - 1.0) + 2.0 * (r - 1.0) * s * sin_a2
    lhs_w = np.abs(sp.inner_grid(pts.p_W.v, Q)) ** 2
    rhs_w = (8.0 * cos2 + 1.0) * s * s + r * r + 2.0 * (r - 1.0) * s * sin_a2 - 2.0 * r + 1.0
    # equality locus is 4 cos^2 (2 s^2 - r)
    locus = lhs_w - lhs_u - 4.0 * cos2 * (2.0 * s * s - r)
    worst_rp = float(np.abs([lhs_u - rhs_u, lhs_w - rhs_w, locus]).max())
    res.residuals["rplane_identities"] = worst_rp
    # the line with third coordinate 0 never meets the locus
    r = np.linspace(-6, 6, 41)
    L = np.stack([r, np.full(r.shape, 1j * math.sqrt(2.0)), np.zeros_like(r)], axis=-1)
    gap = np.abs(sp.inner_grid(pts.p_W.v, L)) ** 2 - np.abs(sp.inner_grid(pts.p_U.v, L)) ** 2
    worst_line = float(gap.min())
    res.margins["rplane_ideal_line_gap"] = worst_line  # equals 8 cos^2 alpha2
    rp_ok = worst_rp <= 1e-8 and worst_line > 0

    # --- (b) complex-line part: solutions have positive norm 24 sin^2 a2
    mu = np.array([0.3 + 0.1j, -1.2j, 2.0 + 1.5j, 0.9 - 2.2j])
    mu2 = np.abs(mu) ** 2
    Q = np.stack([mu - 1.0, np.full(4, 2j * math.sqrt(2.0) * sin_a2), mu + 1.0], axis=-1)
    worst_cl = float(np.abs([
        np.abs(sp.inner_grid(pts.p_U.v, Q)) ** 2 - 4.0 * cos2 * mu2,
        np.abs(sp.inner_grid(pts.p_W.v, Q)) ** 2 - 4.0 * (9.0 - 8.0 * cos2) * cos2,
        sp.norm_grid(Q) - 2.0 * (mu2 - 4.0 * cos2 + 3.0),
    ]).max())
    res.residuals["cline_identities"] = worst_cl
    res.margins["cline_norm"] = 24.0 * sin_a2**2
    cl_ok = worst_cl <= 1e-8 and res.margins["cline_norm"] > 0

    # --- (c) torus part: on the ball part of the torus of J_0^- and J_-1^-,
    # |<z, p_U>| <= |<z, p_V>| only at p_A and p_B
    torus = ff.torus_minus
    d0 = delta0(a2)
    names = ("vertex_pA_distance", "vertex_pB_distance")
    (minus, _), lines = ff.torus_pass
    passed_c = _record_exclusion(ff, res, "torus_exclusion", minus, names)

    # derivative factorization: d h / d sigma = -12 sin(sigma) (2 cos(2 a2 - d) - cos d)
    # for the norm rescaled by the common 2 cos^2 a2 factor of the box products;
    # h = A - 2 Re(e^{-i sigma} C) gives d h / d sigma = -2 Im(e^{-i sigma} C)
    dls = np.linspace(d0 + 0.15, d0 + math.pi - 0.15, 7)
    sgs = np.linspace(0.1, 2 * math.pi - 0.1, 15)
    _, C = torus.norm_terms(dls)
    dh = -2.0 * (np.exp(-1j * sgs)[:, None] * C).imag / (2.0 * cos2)
    closed = -12.0 * np.sin(sgs)[:, None] * (2.0 * np.cos(2 * a2 - dls) - np.cos(dls))
    worst_d = float(np.abs(dh - closed).max())
    res.residuals["dh_dsigma_factorization"] = worst_d

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
    bt_resid, bt_notes = _bitangency(ff.giraud_circles, (pts.p_A, pts.p_B))
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
    res.passed = bool(
        rp_ok and cl_ok and passed_c and bt_ok and crit_ok
        and worst_d <= 1e-8 and col_d0 <= 1e-9 and col_mid > 0
    )
    return res


def _bitangency(circles, targets):
    """Tangent-direction agreement of the Giraud circles bounding the first
    face (`FaceFamily.giraud_circles`) at both shared ideal vertices, as real
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
    pts = ff.pts
    a2 = ff.alpha2
    u = (2.0 / 3.0) * (4.0 * math.cos(a2) ** 2 - 3.0)
    # 2/3 - u in closed form, without the cancellation of 2/3 - u near alpha2 = 0
    margin = (8.0 / 3.0) * math.sin(a2) ** 2
    res.margins["u_below_two_thirds"] = margin
    ok_u = margin > 0.0

    # both face-boundary intersections are Giraud disks of symmetric triples
    si1 = symmetric_intersection_type(pts.p_U, pts.p_V, pts.p_W, ff.tol)
    si2 = symmetric_intersection_type(pts.p_U, ff.U_pV, pts.p_W, ff.tol)
    res.residuals["u_plus_pair"] = abs(si1.u - u)
    res.residuals["u_cross_pair"] = abs(si2.u - u)
    # below alpha2 ~ 6e-4 a triple's u falls in the 1e3 tol band around 2/3
    # that reads TRI_CIRCLE_DISK; there the closed form decides, when the
    # triple's u matches it
    disks_ok = all(
        si.kind is SymmetricKind.DISK
        or (si.kind is SymmetricKind.TRI_CIRCLE_DISK and abs(si.u - u) <= 1e3 * ff.tol and margin > 0.0)
        for si in (si1, si2)
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
    pts = ff.pts
    sp = ff.space
    thetas = np.linspace(0.0, 2.0 * math.pi, 1441)
    ones = np.ones_like(thetas)
    Q = np.stack([ones, math.sqrt(2.0) * np.exp(1j * thetas), -ones], axis=-1)
    mu, mw, muw = (np.abs(sp.inner_grid(w.v, Q)) ** 2 for w in (pts.p_U, pts.p_W, ff.Ui_pW))
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


def _gc_h_values(ff: FaceFamily):
    pts = ff.pts
    h1 = inner(pts.p_U_prime, pts.p_V)
    h2 = inner(pts.p_U_dprime, pts.p_V)
    return h1, h2


def _tangency_pair_check(ff: FaceFamily, res: CheckResult) -> bool:
    """Single-point contacts of the first face's bisector with its two
    contact neighbours in the other family.

    The projected disks are tangent to D_0^+ at the chart images of U p_A
    (neighbour at k = +1) and of U^-1 p_B (neighbour at k = -2; the second
    contact lives two steps away, matching the vertex incidences).  The
    neighbour J_k^- is the U^k-translate of J_0^-, so its silhouette is that
    of J_0^- with centre times m^k and radius times |m|^k, m the chart
    multiplier: no translate is built."""
    ch, m = ff.chart, ff.chart_multiplier
    ok = True
    c1, c0 = ff.silhouettes
    marked = {"k_plus_1": (ff.U_pA, 1), "k_minus_2": (ff.Ui_pB, -2)}
    for (name, (point, k)), crit in zip(marked.items(), ff.criterion_tangencies):
        center, radius = m**k * c0.center, abs(m) ** k * c0.radius
        d = abs(c1.center - center)
        resid = min(abs(d - (c1.radius + radius)), abs(d - abs(c1.radius - radius)))
        scale = max(c1.radius, radius, 1.0)
        res.residuals[f"disk_tangency_{name}"] = resid / scale
        zc = ch(point)
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
    pts = ff.pts

    def direction(x: HVec) -> np.ndarray:
        # rephased so that <p_U, x> is real negative, the geodesic direction's
        # convention (the oracle tangent_direction in tests/oracles.py)
        c = np.array([inner(e, x) / math.sqrt(e.norm()) for e in (pts.p_U_prime, pts.p_U_dprime)])
        c *= -inner(pts.p_U, x).conjugate()
        return c / np.linalg.norm(c)

    dirs = np.stack([direction(pts.p_V), direction(pts.p_W)])
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
    i, j = np.argwhere(margins <= least + CONE_TIE)[0]
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
    h1, h2 = _gc_h_values(ff)
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
    sil_plus, sil_minus = ff.silhouettes
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
    h1, h2 = _gc_h_values(ff)
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
    sil = ff.silhouettes[0]
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
    diam = angular_diameter(ff.pts.p_U, ff.pts.p_V, ff.tol)
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
