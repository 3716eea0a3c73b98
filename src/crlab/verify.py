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
exact minimum over sigma (GiraudTorus.column_minima), sampled in delta.

Passing all three yields the Dehn-surgery verdict for the parameter:
slope 1/(n-3) on the elliptic side of order n >= 9, slope -1/3 on the
loxodromic side.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import GeometryError, HVec, inner, proj_distance, tolerance
from .isometry import Isometry
from .family import (
    FamilyParams,
    FamilyRep,
    SideKind,
    involution_matrix,
    param_side,
    remarkable_points,
)
from .bisector import (
    GiraudTorus,
    SymmetricKind,
    classify_bisector,
    symmetric_intersection_type,
)
from .visual import (
    Silhouette,
    VisualChart,
    angular_diameter,
    silhouette_circle,
    tangency_check,
)

SCHEMA_VERSION = "report-v1"
DEFAULT_GRID = 720
# cone margins this close to the least one are ties up to rounding
CONE_TIE = 8 * np.spacing(math.pi)


# ---------------------------------------------------------------------------
# result containers


@dataclass
class CheckResult:
    name: str
    passed: bool
    margins: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    skipped: bool = False

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "skipped": bool(self.skipped),
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "counts": {k: int(v) for k, v in sorted(self.counts.items())},
            "notes": list(self.notes),
        }


class VerdictKind(enum.Enum):
    SURGERY = "surgery-slope"
    INCONCLUSIVE = "inconclusive"
    NOT_APPLICABLE = "not-applicable"


@dataclass
class Verdict:
    kind: VerdictKind
    p: int | None = None
    q: int | None = None
    reason: str = ""

    def to_dict(self):
        return {
            "kind": self.kind.value,
            "slope": None if self.p is None else [int(self.p), int(self.q)],
            "reason": self.reason,
        }


@dataclass
class VerificationReport:
    alpha2: float
    side: object
    tr_u: float
    tf: CheckResult
    lc: CheckResult
    gc: CheckResult
    incidence: CheckResult
    verdict: Verdict
    notes: list = field(default_factory=list)
    grid_n: int = DEFAULT_GRID
    tol: float = 0.0

    def all_passed(self):
        return all(
            c.passed for c in (self.incidence, self.tf, self.lc, self.gc) if not c.skipped
        )

    def to_dict(self):
        side = {
            "kind": self.side.kind.value,
            "beta": self.side.beta,
            "length": self.side.length,
            "n": self.side.n,
            "delta": [self.side.delta.real, self.side.delta.imag],
        }
        return {
            "schema": SCHEMA_VERSION,
            "alpha2": float(self.alpha2),
            "tr_u": float(self.tr_u),
            "side": side,
            "grid_n": int(self.grid_n),
            "tolerance": float(self.tol),
            "checks": {
                "incidence": self.incidence.to_dict(),
                "tf": self.tf.to_dict(),
                "lc": self.lc.to_dict(),
                "gc": self.gc.to_dict(),
            },
            "verdict": self.verdict.to_dict(),
            "notes": list(self.notes),
        }


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

    def _oriented_chart(self):
        """Chart on the visual sphere of [p_U] in which U acts by
        z -> e^{2l} z (loxodromic) or z -> e^{2 i beta} z (elliptic).

        With the convention <u,v> = u^H J v the usual ordering of the two
        non-unit eigenvectors yields the reciprocal chart on the loxodromic
        side (the eigenvectors are null there, so 0 and infinity swap
        roles); the ordering below restores the expanding orientation.
        """
        pts = self.pts
        if pts.p_U_prime is None:
            return None
        if self.side.kind is SideKind.LOXODROMIC:
            return VisualChart(pts.p_U, pts.p_U_dprime, pts.p_U_prime)
        return VisualChart(pts.p_U, pts.p_U_prime, pts.p_U_dprime)

    def u_power_point(self, k: int, p: HVec) -> HVec:
        """U^k p.  On the elliptic side U fixes p_U and turns its
        eigenvectors p_U', p_U'' by e^{i beta}, e^{-i beta}.  Over that
        J-orthogonal eigenbasis U^k p = p + sum_e c_e (lambda_e^k - 1) e with
        c_e = <e, p> / <e, e>, and the p_U term vanishes.  The norm of p then
        holds at every k (a product of k matrices drifts it with k), and
        k = 0 gives p itself.  Elsewhere p_U', p_U'' are null or absent and
        the matrix power serves: callers take it only for |k| <= 2."""
        pts, side = self.pts, self.side
        if side.kind is not SideKind.ELLIPTIC or pts.p_U_prime is None:
            return self.U.power(k).apply(p)
        v = p.v
        for e, angle in ((pts.p_U_prime, side.beta), (pts.p_U_dprime, -side.beta)):
            v = v + (inner(e, p) / e.norm() * (cmath.exp(1j * k * angle) - 1.0)) * e.v
        return HVec(v, p.space)

    def bisector_plus(self, k: int = 0):
        return classify_bisector(self.pts.p_U, self.u_power_point(k, self.pts.p_V), self.tol)

    def bisector_minus(self, k: int = 0):
        return classify_bisector(self.pts.p_U, self.u_power_point(k, self.pts.p_W), self.tol)

    @cached_property
    def torus_minus(self) -> GiraudTorus:
        """The intersection torus of the extors of J_0^- and J_-1^-,
        parametrized by (p_W - e^{i th} p_U) box (U^-1 p_W - e^{i ph} p_U)."""
        pts = self.pts
        return GiraudTorus(pts.p_U, pts.p_W, self.U.inv().apply(pts.p_W), self.tol)


def delta0(alpha2: float) -> float:
    """The delta at which the complex-line locus meets the torus of
    J_0^- and J_-1^- (mod pi), on its (sigma, delta) grid."""
    if abs(alpha2) > 1e-12:
        return math.atan((1.0 - 2.0 * math.cos(2 * alpha2)) / (2.0 * math.sin(2 * alpha2)))
    return 0.0


# ---------------------------------------------------------------------------
# small shared helpers


def _vertex_angles(torus: GiraudTorus, target: HVec):
    """(theta, phi) of the torus point at the vertex `target`: a torus point
    is J-orthogonal to both factors q - e^{i th} p and r - e^{i ph} p, so
    e^{-i th} = <q,t>/<p,t> and e^{-i ph} = <r,t>/<p,t>."""
    pt = inner(torus.p, target)
    return -cmath.phase(inner(torus.q, target) / pt), -cmath.phase(inner(torus.r, target) / pt)


def _torus_exclusion(ff: FaceFamily, res, key, torus: GiraudTorus, pos: HVec, negs, vertices: dict) -> bool:
    """On the ball part of `torus`, the envelope max_i |<pos, z>|^2 -
    |<neg_i, z>|^2 over unit representatives z vanishes only at the two
    named vertices.

    Both vertices lie on the delta-column delta_v = (theta - phi) / 2 mod pi
    (`_vertex_angles`), at the two ends of its ball arc, where the contact
    is of second order.  The envelope's exact minimum on the arcs of m
    columns delta_v + (k + 1/2) pi / m (`GiraudTorus.column_minima`), over
    sin^2(delta - delta_v), gives res.margins[key]; the distance from each
    vertex to the nearer end of the delta_v arc is its residual, at most
    1e3 tol.  Exact in sigma, sampled in delta, with m = grid_n // 2."""
    m = ff.grid_n // 2
    theta, phi = _vertex_angles(torus, next(iter(vertices.values())))
    dv = ((theta - phi) / 2.0) % math.pi
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    minima = torus.column_minima(dv + offsets, pos.v, [w.v for w in negs])
    res.margins[key] = float((minima / np.sin(offsets) ** 2).min())
    if math.isinf(res.margins[key]):
        res.notes.append(
            f"{key}: no sampled delta-column meets the ball (the ball band at "
            f"delta_v is narrower than the column spacing pi/{m})"
        )
    (mid,), (half,) = torus.ball_arcs([dv])
    ends = [torus.point(s + dv, s - dv) for s in (mid - half, mid + half)]
    gate = 1e3 * ff.tol
    for name, t in vertices.items():
        res.residuals[name] = math.inf if math.isnan(half) else min(proj_distance(e, t) for e in ends)
        if not res.residuals[name] <= gate:
            res.notes.append(
                f"{name}: vertex residual {res.residuals[name]:.2e} exceeds the gate 1e3 tol = {gate:.2e}"
            )
    return res.margins[key] > 0.0 and all(res.residuals[name] <= gate for name in vertices)


# ---------------------------------------------------------------------------
# incidence check


def incidence_check(ff: FaceFamily) -> CheckResult:
    """Unit-modulus products putting the two ideal vertices on the four
    bisectors around them, plus translation compatibility of the family."""
    pts, U, J = ff.pts, ff.U, ff.space.J
    res = CheckResult("incidence", True)
    pA, pB = pts.p_A, pts.p_B
    Ui = U.inv()
    prods = {
        "pA_pU": inner(pA, pts.p_U),
        "pA_pV": inner(pA, pts.p_V),
        "pA_pW": inner(pA, pts.p_W),
        "pA_Ui_pV": inner(pA, Ui.apply(pts.p_V)),
        "pA_Ui_pW": inner(pA, Ui.apply(pts.p_W)),
        "pB_pU": inner(pB, pts.p_U),
        "pB_pV": inner(pB, pts.p_V),
        "pB_pW": inner(pB, pts.p_W),
        "pB_U_pV": inner(pB, U.apply(pts.p_V)),
        "pB_Ui_pW": inner(pB, Ui.apply(pts.p_W)),
    }
    worst = max(abs(abs(v) - 1.0) for v in prods.values())
    res.residuals["max_modulus_deviation"] = worst
    # corollary translations: both vertices and their U-translates lie on
    # the expected bisectors
    checks = []
    for z in (pA, U.apply(pA), pB, Ui.apply(pB)):
        checks.append(abs(abs(inner(z, pts.p_U)) - abs(inner(z, pts.p_V))))
    for z in (pA, U.apply(pA), pB, U.apply(pB)):
        checks.append(abs(abs(inner(z, pts.p_U)) - abs(inner(z, pts.p_W))))
    res.residuals["max_translation_incidence"] = max(checks)
    # symmetry: the involution carries J_k^+ onto J_{-k}^- and back, checked
    # on real-spine samples of each side
    sym = []
    for k in (0, 1, 2):
        q_plus = ff.u_power_point(k, pts.p_V)
        q_minus = ff.u_power_point(-k, pts.p_W)
        for lam in np.exp(1j * np.linspace(0.3, 5.9, 5)):
            z = HVec(pts.p_U.v + lam * q_plus.v, ff.space)
            iz = ff.I.apply(z)
            sym.append(
                abs(abs(inner(iz, pts.p_U)) - abs(inner(iz, q_minus)))
                / max(1.0, np.linalg.norm(iz.v) ** 2)
            )
            w = HVec(pts.p_U.v + lam * q_minus.v, ff.space)
            iw = ff.I.apply(w)
            sym.append(
                abs(abs(inner(iw, pts.p_U)) - abs(inner(iw, q_plus)))
                / max(1.0, np.linalg.norm(iw.v) ** 2)
            )
    res.residuals["max_involution_symmetry"] = max(sym)
    tol = 1e3 * ff.tol
    res.passed = worst <= tol and res.residuals["max_translation_incidence"] <= tol and max(sym) <= tol
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
    rng = np.random.default_rng(20260810)
    r, s = rng.uniform(-5.0, 5.0, size=(64, 2)).T
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
    worst_cl = 0.0
    for mu in (0.3 + 0.1j, -1.2j, 2.0 + 1.5j, 0.9 - 2.2j):
        q = HVec([-1.0 + mu, 2j * math.sqrt(2.0) * sin_a2, 1.0 + mu], ff.space)
        worst_cl = max(worst_cl, abs(abs(inner(pts.p_U, q)) ** 2 - 4.0 * cos2 * abs(mu) ** 2))
        worst_cl = max(
            worst_cl,
            abs(abs(inner(pts.p_W, q)) ** 2 - 4.0 * (9.0 - 8.0 * cos2) * cos2),
        )
        worst_cl = max(worst_cl, abs(q.norm() - 2.0 * (abs(mu) ** 2 - 4.0 * cos2 + 3.0)))
    res.residuals["cline_identities"] = worst_cl
    res.margins["cline_norm"] = 24.0 * sin_a2**2
    cl_ok = worst_cl <= 1e-8 and res.margins["cline_norm"] > 0 or abs(a2) < 1e-12

    # --- (c) torus part: on the ball part of the torus of J_0^- and J_-1^-,
    # |<z, p_U>| <= |<z, p_V>| only at p_A and p_B
    torus = ff.torus_minus
    d0 = delta0(a2)
    vertices = {"vertex_pA_distance": pts.p_A, "vertex_pB_distance": pts.p_B}
    passed_c = _torus_exclusion(ff, res, "torus_exclusion", torus, pts.p_U, [pts.p_V], vertices)

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
    # delta0 + pi/2, in closed form
    lpole = np.array([sin_a2, -1j * math.sqrt(2.0) / 2.0, -sin_a2])
    zero = np.zeros(3)
    col_d0 = math.sqrt(max(0.0, -torus.column_minima([d0], zero, [lpole], ball=False)[0]))
    col_mid = math.sqrt(max(0.0, torus.column_minima([d0 + math.pi / 2.0], lpole, [zero], ball=False)[0]))
    res.residuals["cline_locus_at_delta0"] = col_d0
    res.margins["cline_locus_off_delta0"] = col_mid

    res.notes.append(
        "torus exclusion is exact in sigma on each delta-column and sampled "
        "in delta (numerical, not a proof)"
    )

    # --- bi-tangency of the two bounding Giraud circles at p_A and p_B
    bt_resid, bt_notes = _bitangency(ff)
    res.residuals["bitangency_pA"] = bt_resid[0]
    res.residuals["bitangency_pB"] = bt_resid[1]
    res.notes.extend(bt_notes)

    crit_ok = True
    if ff.side.kind is not SideKind.UNIPOTENT:
        UpA = ff.U.apply(pts.p_A)
        UiB = ff.U.inv().apply(pts.p_B)
        crit_ok = tangency_check(pts.p_U, pts.p_V, UpA, ff.tol) and tangency_check(
            pts.p_U, pts.p_V, UiB, ff.tol
        )
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


def _giraud_circle_tangent_at(torus: GiraudTorus, target: HVec):
    """Affine-chart velocity of the Giraud circle `torus` at the vertex
    `target`; returns (velocity, lift, dist), where dist is the projective
    distance to `target` from the torus point at its `_vertex_angles`."""
    J = torus.space.J
    th, ph = _vertex_angles(torus, target)
    v = torus.vectors(th, ph)
    d = proj_distance(HVec(v, torus.space), target)
    dvth = 1j * cmath.exp(-1j * th) * torus.pr
    dvph = 1j * cmath.exp(-1j * ph) * torus.qp
    gth = 2.0 * (v.conj() @ J @ dvth).real
    gph = 2.0 * (v.conj() @ J @ dvph).real
    # curve tangent in parameter space is orthogonal to the norm gradient
    w = dvth * (-gph) + dvph * gth
    # velocity in the affine chart that pins the relative lift scale
    j0 = int(np.argmax(np.abs(target.v)))
    what = (w * v[j0] - v * w[j0]) / (v[j0] ** 2)
    what = np.delete(what, j0)
    return what, v, d


def _bitangency(ff: FaceFamily):
    """Tangent-direction agreement of the circles bounding the first face
    at both shared ideal vertices, compared as real lines in an affine chart."""
    pts = ff.pts
    circle1 = GiraudTorus(pts.p_U, pts.p_V, pts.p_W, ff.tol)
    circle2 = GiraudTorus(pts.p_U, pts.p_V, ff.U.inv().apply(pts.p_W), ff.tol)
    resids = []
    notes = []
    for target in (pts.p_A, pts.p_B):
        w1, _, d1 = _giraud_circle_tangent_at(circle1, target)
        w2, _, d2 = _giraud_circle_tangent_at(circle2, target)
        if max(d1, d2) > 1e-5:
            resids.append(math.inf)
            notes.append(f"vertex location failed (dist {max(d1, d2):.2e})")
            continue
        r1 = np.concatenate([w1.real, w1.imag])
        r2 = np.concatenate([w2.real, w2.imag])
        r1 /= np.linalg.norm(r1)
        r2 /= np.linalg.norm(r2)
        resids.append(float(math.sqrt(max(0.0, 1.0 - (r1 @ r2) ** 2))))
    return resids, notes


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
    ok_u = margin > 0.0 or abs(a2) < 1e-12

    # both face-boundary intersections are Giraud disks of symmetric triples
    si1 = symmetric_intersection_type(pts.p_U, pts.p_V, pts.p_W, ff.tol)
    si2 = symmetric_intersection_type(
        pts.p_U, ff.U.apply(pts.p_V), pts.p_W, ff.tol
    )
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

    # F_0^- /\ F_-1^- == {p_A, p_B} on the torus of J_0^- and J_-1^- (the
    # common constraint |<z,p_U>| <= |<z,p_V>| must fail off the vertices)
    U, Ui = ff.U, ff.U.inv()
    ok_mm = _torus_exclusion(
        ff, res, "faces_minus_minus", ff.torus_minus, pts.p_U, [pts.p_V, U.apply(pts.p_V), Ui.apply(pts.p_V)],
        {"faces_minus_minus_vertex_pA": pts.p_A, "faces_minus_minus_vertex_pB": pts.p_B},
    )

    # F_0^+ /\ F_1^+ == {p_B, U p_A}: off the vertices z fails F_0^+ (against
    # p_W, U^-1 p_W) or F_1^+ (against U p_W, p_W)
    torus_pp = GiraudTorus(pts.p_U, pts.p_V, U.apply(pts.p_V), ff.tol)
    ok_pp = _torus_exclusion(
        ff, res, "faces_plus_plus", torus_pp, pts.p_U, [pts.p_W, Ui.apply(pts.p_W), U.apply(pts.p_W)],
        {"faces_plus_plus_vertex_pB": pts.p_B, "faces_plus_plus_vertex_UpA": U.apply(pts.p_A)},
    )

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
    mu, mw, muw = (
        np.abs(sp.inner_grid(w.v, Q)) ** 2 for w in (pts.p_U, pts.p_W, ff.U.inv().apply(pts.p_W))
    )
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
    contact lives two steps away, matching the vertex incidences)."""
    pts, U, ch = ff.pts, ff.U, ff.chart
    ok = True
    b0p = ff.bisector_plus(0)
    c1 = silhouette_circle(ch, b0p, ff.tol)
    marked = {
        "k_plus_1": (U.apply(pts.p_A), ff.bisector_minus(1)),
        "k_minus_2": (U.inv().apply(pts.p_B), ff.bisector_minus(-2)),
    }
    for name, (point, bis) in marked.items():
        c2 = silhouette_circle(ch, bis, ff.tol)
        d = abs(c1.center - c2.center)
        resid = min(abs(d - (c1.radius + c2.radius)), abs(d - abs(c1.radius - c2.radius)))
        scale = max(c1.radius, c2.radius, 1.0)
        res.residuals[f"disk_tangency_{name}"] = resid / scale
        zc = ch(point)
        on1 = abs(abs(zc - c1.center) - c1.radius)
        on2 = abs(abs(zc - c2.center) - c2.radius)
        res.residuals[f"contact_point_{name}"] = max(on1, on2) / scale
        crit = tangency_check(pts.p_U, b0p.q, point, ff.tol)
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
        # rephased so that <p_U, x> is real negative, as in tangent_direction
        c = np.array([inner(e, x) / math.sqrt(e.norm()) for e in (pts.p_U_prime, pts.p_U_dprime)])
        c *= -inner(pts.p_U, x).conjugate()
        return c / np.linalg.norm(c)

    dirs = np.stack([direction(pts.p_V), direction(pts.p_W)])
    z = np.exp(2j * math.pi / ff.side.n * np.asarray(ks))[:, None]
    X = dirs * np.stack([z, z.conj()], axis=-1)
    d = dirs[0]
    return 2.0 * np.arctan2(np.linalg.norm(d - X, axis=-1), np.linalg.norm(d + X, axis=-1))


def _cone_separation(ff: FaceFamily, res: CheckResult, n: int) -> bool:
    """Exact pairwise cone margins on the elliptic side: the direction cones
    of two bisectors are disjoint when their axes are separated by more
    than twice the cone radius."""
    rho = angular_diameter(ff.pts.p_U, ff.pts.p_V, ff.tol) / 2.0
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
    pts = ff.pts
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
    m_lo, m_hi, _ = _disk_extent(res, "J_0^+", silhouette_circle(ff.chart, ff.bisector_plus(0), ff.tol))
    res.margins["annulus_upper"] = 1.5 * length - m_hi
    res.margins["annulus_lower"] = m_lo + 2.5 * length
    annulus_ok = res.margins["annulus_upper"] > 0 and res.margins["annulus_lower"] > 0
    # mirrored family
    mm_lo, mm_hi, _ = _disk_extent(res, "J_0^-", silhouette_circle(ff.chart, ff.bisector_minus(0), ff.tol))
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
    sil = silhouette_circle(ff.chart, ff.bisector_plus(0), ff.tol)
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
    cone_ok = _cone_separation(ff, res, n)

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
