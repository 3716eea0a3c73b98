"""Reference implementations that the tests compare the program against.

None of these is on a program path, and none is imported by `crlab`:

- `envelope_minima`, the multi-constraint envelope of which `verify` reads
  one constraint per Giraud-torus column (`bisector.column_minima`), with
  its own per-form column rows, the per-torus ball arcs `ball_arcs` it
  reads from the norm terms `norm_terms` of the column rows `delta_rows`,
  the one-torus view `GiraudTorus` (the program reads tori as row arrays
  only), and torus points `torus_vectors` and `point`;
- the symmetric trichotomy of an order-3 symmetric triple: its array
  form `symmetric_kinds` with `SymmetricKind`, its grid oracle
  (`periodic_components`, `count_sublevel_components`,
  `brute_force_symmetric_kind`), and the per-object form
  `symmetric_intersection_type`; on the slice, LC's two triples
  (`lc_triples`) are proved to be disks at every parameter
  (tests/test_lc_identities.py), so the program decides none;
- sampled spinal surfaces and null circles (`spinal_samples`,
  `slice_boundary_circle`, `boundary_circle_of_plane`, from the null-circle
  kernel `_null_circles` on the polar bases `_polar_basis`, sampled by
  `circle_points`) and the sampled tangency count `line_spinal_crossings`,
  against which the silhouettes and `tangency_check` are held;
- the silhouettes of bisectors on the visual sphere of their base
  (`silhouette_circles` with `Silhouette`, `face_silhouettes` for J_0^+ and
  J_0^-, `project_bisector`) and the chart on the extended plane
  (`chart`, `ext_div`, `INF`), against which the closed-form disks and
  marks of `family.elliptic_disks` and the disk-projection figure are held;
- geodesic directions and angles at an interior point (`tangent_direction`,
  `angle_between`), and the Gram-table kernels held against them, the
  angular diameter `angular_diameter` and the cone rows `cone_angles`,
  against which GC's closed forms in cos(beta) are held;
- equal-modulus membership (`membership`, `Membership`), the real spine's
  ends (`real_spine_endpoints`) and `is_autopolar_triple`;
- the per-object forms of the program's array decisions, written with the
  scalar `inner` and `box` of single HVecs: `classify_bisector` and its
  `Bisector`, `classify_pair`, `giraud_torus`, `tangency_check` and
  `u_power_point`, against which `FaceFamily`'s decisions and the kernels
  below are held; and `table`, the Gram table of a few HVecs,
  with `bisector_kind`, `pair_kind`, `symmetric_kind` and `tangency`,
  through which the tests call the kernels on one bisector, pair, triple
  or point;
- the slice's involution `involution_matrix`, which swaps the two
  bisector families;
- what `FaceFamily` no longer forms: a `GiraudTorus` view of one of its
  tori (`face_torus`), the Gram table of its point table
  (`face_gram`, with `gram` for any rows), the ten vertex products of
  the incidences (`vertex_products`, `VERTEX_PRODUCTS`,
  `TRANSLATION_INCIDENCES`), and the chart of the visual sphere of [p_U]
  in which U acts by its multiplier (`oriented_chart`,
  `chart_multiplier`), all proved in tests/test_incidence_identities.py;
- the precondition kernels on a Gram table of lifts, which `FaceFamily`
  does not run: `bisector_kinds` with `BisectorKind`, `pair_kinds` with
  `ExtorPairKind`, and the tangency criterion `tangencies`, on the row
  scales `row_lengths` of a FaceFamily's point table; on the slice
  the bisectors verify reads have equal-norm lifts, its torus pairs are
  unbalanced and its two contacts are tangencies at every parameter
  (tests/test_face_family_identities.py).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from crlab.bisector import _arcs, _harmonic_roots, _proj_distances, _ratio_critical, level_g
from crlab.core import GeometryError, HVec, box_rows, cross, inner, sesquilinear, tolerance
from crlab.core import apply as apply_rows
from crlab.family import (
    P_A, P_B, P_U, P_U1, P_U2, P_V, P_W, U_PA, U_PB, U_PV, UI_PB, UI_PV, UI_PW, FamilyParams, FamilyRep, SideKind,
)
from crlab.isometry import Isometry
from crlab.reference import Location, box, locate, proj_equal, remarkable_points
from crlab.visual import VisualChart

TORUS_GRID_DEFAULT = 720
INF = complex(math.inf, 0.0)
_EYE3 = np.eye(3)
TORUS_REFINE_FACTOR = 4


class GiraudTorus:
    """The one-torus view of the row arrays the program reads: the lifts
    (p, q, r) of a torus, coordinate vectors of `space`, with its box
    products rows = (q box r, p box r, q box p), as `FaceFamily`'s lifts
    and rows hold them.  Points are [(q - e^{i theta} p) box (r - e^{i phi}
    p)] = qr - e^{-i theta} pr - e^{-i phi} qp (`torus_vectors`); the
    program's `bisector.column_forms` and `column_minima` read the row
    array (pos, neg, qr, pr, qp) instead."""

    def __init__(self, lifts, rows, space):
        self.lifts, self.rows = np.asarray(lifts), np.asarray(rows)
        self.p, self.q, self.r = self.lifts
        self.qr, self.pr, self.qp = self.rows
        self.space = space


def torus_vectors(torus, theta, phi) -> np.ndarray:
    """Torus representatives qr - e^{-i theta} pr - e^{-i phi} qp at
    broadcastable arrays of angles, shape (..., 3)."""
    return (
        torus.qr
        - np.exp(-1j * np.asarray(theta))[..., None] * torus.pr
        - np.exp(-1j * np.asarray(phi))[..., None] * torus.qp
    )


def point(torus, theta: float, phi: float) -> HVec:
    """The torus point at (theta, phi) as an HVec."""
    return HVec(torus_vectors(torus, theta, phi), torus.space)


def delta_rows(torus, deltas) -> np.ndarray:
    """B(delta) = e^{-i delta} pr + e^{i delta} qp, shape (len(deltas), 3):
    with theta = sigma + delta and phi = sigma - delta the torus point is
    qr - e^{-i sigma} B(delta)."""
    e = np.exp(-1j * np.asarray(deltas))[:, None]
    return e * torus.pr + e.conj() * torus.qp


def norm_terms(torus, deltas):
    """(A, C) with <V, V> = A - 2 Re(e^{-i sigma} C) at (sigma, delta):
    A = <qr, qr> + <B, B> is real and C = <qr, B>, one value per delta."""
    sp, B = torus.space, delta_rows(torus, deltas)
    return sp.form(torus.qr, torus.qr).real + sp.form(B, B).real, sp.form(torus.qr, B)


def ball_arcs(torus, deltas, terms=None):
    """(mid, half) per delta-column of `torus`: the form <V, V> = A - 2 |C|
    cos(sigma - arg C) is <= 0 exactly on the arc mid +- half, mid = arg C
    and half = arccos(A / 2|C|), for the terms (A, C), by default
    `norm_terms(torus, deltas)`.  half is pi where the whole column is in
    the ball (A <= -2|C|, which covers C = 0 with A <= 0) and nan where no
    point is (A > 2|C|)."""
    return _arcs(*(norm_terms(torus, deltas) if terms is None else terms))


def envelope_minima(torus, deltas, pos, negs, ball=True, terms=None):
    """Per delta-column, the exact minimum over sigma of max_i E_i / |V|^2
    with E_i = |<pos, V>|^2 - |<neg_i, V>|^2, for coordinate vectors pos and
    neg_i: over the column's ball arc (`ball_arcs` of the norm terms
    `terms`), or over the whole column when ball is False; inf where the arc
    is empty.

    In a column every E_i and |V|^2 is a sinusoid k + p cos(sigma) + q
    sin(sigma).  On the arc the minimum of the envelope sits at an arc end,
    at a critical point of one ratio E_i / |V|^2, where E_i' |V|^2 - E_i
    (|V|^2)' vanishes, or at a crossing E_i = E_j.  Both conditions are a
    constant plus one harmonic, with closed-form roots, so the least envelope
    value over these candidates is the minimum.  With one constraint this is
    the arithmetic of `bisector.column_minima`, to the bit."""
    deltas = np.asarray(deltas, dtype=float)
    den, (top, *rest) = _column_rows(torus, delta_rows(torus, deltas), [pos, *negs])
    den, top = np.array(den), np.array(top)
    nums = [top - np.array(e) for e in rest]
    if ball:
        mid, half = ball_arcs(torus, deltas, terms)
    else:
        mid, half = np.zeros(len(deltas)), np.full(len(deltas), math.pi)
    roots = [r for e in nums for r in _harmonic_roots(*_ratio_critical(e, den))]
    roots += [r for i, e in enumerate(nums) for f in nums[:i] for r in _harmonic_roots(*(e - f))]
    # offsets from mid: the arc ends, then every root in (-pi, pi]
    t = np.stack([-half, half] + [math.pi - np.remainder(math.pi + mid - r, 2 * math.pi) for r in roots])
    cos, sin = np.cos(mid + t), np.sin(mid + t)
    env = np.max([k + p * cos + q * sin for k, p, q in nums], axis=0)
    k, p, q = den
    env /= k + p * cos + q * sin
    return np.where(np.abs(t) <= half, env, math.inf).min(axis=0)


def _column_rows(torus, B, ws):
    """Per delta-column rows (k, p, q) of |V|^2 and of each |<w, V>|^2 =
    |<w, qr> - e^{-i sigma} <w, B_d>|^2, as sinusoids in sigma, for the rows
    B of `delta_rows`: each form on its own, apart from the
    program's stacked `bisector._column_sinusoids`."""
    sp, qr = torus.space, torus.qr
    den = _harmonic(sesquilinear(qr, qr).real + sesquilinear(B, B).real, sesquilinear(qr, B))
    return den, [_harmonic(*_abs2_terms(sp.form(w, qr[None]), sp.form(w, B))) for w in ws]


def _abs2_terms(u: np.ndarray, v: np.ndarray):
    """(A, C) with |u - z v_d|^2 = A_d - 2 Re(z C_d) for |z| = 1, where u has
    shape (1,) and v shape (len(deltas),): A = |v_d|^2 + |u|^2, C = v_d
    conj(u)."""
    return v.real**2 + v.imag**2 + (u.real**2 + u.imag**2), v * u.conj()


def _harmonic(A, C) -> tuple:
    """The sinusoid A - 2 Re(e^{-i sigma} C) as the rows (k, p, q) of k +
    p cos(sigma) + q sin(sigma)."""
    return A, -2.0 * C.real, -2.0 * C.imag


def _row_runs(row: np.ndarray):
    """Circular runs of True in a 1-d mask as (start, end) with end exclusive;
    a run wrapping the seam is reported with end > len(row)."""
    m = len(row)
    if row.all():
        return [(0, m)]
    if not row.any():
        return []
    ext = np.concatenate([row, row[:1]])
    d = np.diff(ext.astype(np.int8))
    starts = list(np.flatnonzero(d == 1) + 1)
    ends = list(np.flatnonzero(d == -1) + 1)
    if row[0]:
        starts.insert(0, 0)
    if len(ends) < len(starts):
        ends.append(m)
    runs = list(zip(starts, ends))
    # merge a run ending at the seam with one starting at 0 (circular wrap)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == m:
        s, _ = runs.pop()
        _, e = runs.pop(0)
        runs.append((s, e + m))
    return runs


def _runs_overlap(a, b, m):
    """Circular interval overlap on Z/m for runs in the _row_runs format."""
    for shift_a in (0, -m, m):
        s1, e1 = a[0] + shift_a, a[1] + shift_a
        if max(s1, b[0]) < min(e1, b[1]):
            return True
    return False


def periodic_components(mask: np.ndarray) -> int:
    """Number of 4-connected components of a boolean mask on the torus grid.

    Rows are run-length encoded and a union-find is run on the runs, so the
    cost scales with the number of level-curve crossings, not with cells.
    """
    n, m = mask.shape
    row_runs = [_row_runs(mask[i]) for i in range(n)]
    offsets = np.cumsum([0] + [len(r) for r in row_runs])
    total = int(offsets[-1])
    if total == 0:
        return 0
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i in range(n):
        j = (i + 1) % n
        for ai, ra in enumerate(row_runs[i]):
            for bi, rb in enumerate(row_runs[j]):
                if _runs_overlap(ra, rb, m):
                    union(offsets[i] + ai, offsets[j] + bi)
    return len({find(a) for a in range(total)})


def count_sublevel_components(u: float, n: int = TORUS_GRID_DEFAULT) -> int:
    """Components of {g < -3u/2} on the torus; 1 for a disk-type
    intersection, 2 for a torus-minus-two-disks one.

    Counted on the grid of TORUS_REFINE_FACTOR * n points a side.
    """
    th = np.linspace(0.0, 2 * math.pi, TORUS_REFINE_FACTOR * n, endpoint=False)
    return periodic_components(level_g(th[:, None], th[None, :]) < -1.5 * u)


def brute_force_symmetric_kind(u: float, n: int = TORUS_GRID_DEFAULT) -> SymmetricKind:
    """Grid oracle for the trichotomy, by complement component count."""
    comps = count_sublevel_components(u, n)
    if comps == 0:
        # sublevel set empty: the whole torus has norm <= 0 cannot happen;
        # treat as the degenerate tri-circle configuration
        return SymmetricKind.TRI_CIRCLE_DISK
    if comps == 1:
        return SymmetricKind.DISK
    if comps == 2:
        return SymmetricKind.TORUS_MINUS_TWO_DISKS
    raise GeometryError(f"unexpected component count {comps}")


def spinal_samples(b: Bisector, n_alpha=96, n_t=48):
    """Representatives covering the spinal surface, by extor slices.

    Slice alpha is the polar line of q - alpha p, and its boundary circle is
    found as in `slice_boundary_circle`, for all alphas at once through the
    same batched closed forms.  Slices missing the ball are skipped.
    """
    sp = b.p.space
    alphas = np.exp(1j * np.linspace(0, 2 * math.pi, n_alpha, endpoint=False))
    poles = b.q.v - alphas[:, None] * b.p.v
    em, ep, rho, keep = _null_circles(_polar_basis(poles, sp), sp)
    if not keep.any():
        raise GeometryError("spinal surface sampling found no boundary points")
    phase = rho[keep, None] * np.exp(1j * np.linspace(0, 2 * math.pi, n_t, endpoint=False))
    return (em[keep, None, :] + phase[:, :, None] * ep[keep, None, :]).reshape(-1, 3)


def line_spinal_crossings(p: HVec, q: HVec, r: HVec, n=4096):
    """Grid oracle: count sign changes of the spinal residual along the
    boundary circle of the line through [p] and [r]."""
    circle = boundary_circle_of_plane(p, r)
    if circle is None:
        raise GeometryError("line misses the boundary sphere")
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    Z = circle(ts)
    ap = np.abs(p.space.form(p.v, Z))
    aq = np.abs(p.space.form(q.v, Z))
    res = ap - aq
    scale = float(np.maximum(ap, aq).max())
    res = np.where(np.abs(res) <= 1e-9 * max(scale, 1e-300), 0.0, res)
    signs = np.sign(res)
    # drop near-zeros so only transversal crossings flip the sign
    nz = signs[signs != 0]
    if len(nz) == 0:
        return 0
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


def _null_circles(B, space):
    """Null circles of the planes spanned by the row pairs of B (..., 2, 3),
    coordinate vectors of `space`.

    Uses the eigenbasis of each restricted form [[a, b], [b*, d]], in closed
    form: with m = (a + d)/2, s = (a - d)/2 and h = hypot(s, |b|), the
    eigenvalues are lam+- = m +- h, the one of smaller modulus taken as
    det / (the other), free of the cancellation in m -+ h.  The unit
    eigenvectors, from the row of G - lam that keeps g = h + |s|, are
    (g, b*) and (b, -g) for s >= 0, else (b, g) and (-g, b*), over
    sqrt(g^2 + |b|^2).  With
    lam+ > 0 > lam-, the null points are em + rho e^{it} ep, rho =
    sqrt(-lam- / lam+).  Returns (em, ep, rho, keep); keep is False where
    the form is definite or degenerate and the line misses the ball.
    """
    G = space.form(B[..., [0, 1, 0], :], B[..., [0, 1, 1], :])
    a, d, b = G[..., 0].real, G[..., 1].real, G[..., 2]
    m, s = 0.5 * (a + d), 0.5 * (a - d)
    b2 = (b * b.conj()).real
    h = np.hypot(s, np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.where(m >= 0, m + h, m - h)
        small = (a * d - b2) / big
        lam_m, lam_p = np.where(m >= 0, small, big), np.where(m >= 0, big, small)
        g = h + np.abs(s)
        nrm = np.sqrt(g * g + b2)
        g, bn, bc = g / nrm, b / nrm, b.conj() / nrm
        up = s >= 0
        # rows v_m, v_p of one array, shape (..., 2, 2)
        v = np.empty(up.shape + (2, 2), dtype=complex)
        v[..., 0, 0], v[..., 0, 1] = np.where(up, bn, -g), np.where(up, -g, bc)
        v[..., 1, 0], v[..., 1, 1] = np.where(up, g, bn), np.where(up, bc, g)
        rho = np.sqrt(-lam_m / lam_p)
    scale = 1e-14 * np.maximum(np.abs(lam_m), np.abs(lam_p))
    keep = (lam_m < -scale) & (lam_p > scale)
    E = v[..., 0, None] * B[..., None, 0, :] + v[..., 1, None] * B[..., None, 1, :]
    return E[..., 0, :], E[..., 1, :], rho, keep


def _polar_basis(poles, space):
    """Orthonormal row pairs (..., 2, 3) spanning the polar lines of poles
    (..., 3), coordinate vectors of `space`.  The polar line of a pole is the
    Euclidean complement of w = J pole; with e the unit vector on the least
    |w_i|, it is spanned by u1 = conj(w x e) and u2 = conj(w x u1), |u1|^2 =
    |w|^2 - |w_i|^2 and |u2| = |w| |u1|, each scaled to norm 1."""
    w = apply_rows(space.J, poles)
    B = np.empty(w.shape[:-1] + (2, 3), dtype=complex)
    B[..., 0, :] = cross(w, _EYE3[np.argmin(np.abs(w), axis=-1)]).conj()
    B[..., 0, :] /= np.linalg.norm(B[..., 0, :], axis=-1, keepdims=True)
    B[..., 1, :] = cross(w, B[..., 0, :]).conj()
    B[..., 1, :] /= np.linalg.norm(B[..., 1, :], axis=-1, keepdims=True)
    return B


def circle_points(em, ep, rho, ts):
    """The points em + rho e^{it} ep at the angles ts."""
    phase = rho * np.exp(1j * np.atleast_1d(ts))
    return em[None, :] + phase[:, None] * ep[None, :]


def _boundary_circle(B, space):
    """t -> representatives of the null circle of the plane spanned by the
    rows of B, or None when that line misses the closed ball."""
    em, ep, rho, keep = _null_circles(B, space)
    if not keep:
        return None
    return lambda ts: circle_points(em, ep, rho, ts)


def boundary_circle_of_plane(p: HVec, r: HVec):
    """Parametrization t -> representatives of (span(p, r) /\\ null cone).

    Returns None when the complex line through [p], [r] misses the closed
    ball.
    """
    return _boundary_circle(np.stack([p.v, r.v]), p.space)


def slice_boundary_circle(pole_vec: HVec):
    """Boundary circle of the polar line of pole_vec, as t -> vectors."""
    sp = pole_vec.space
    return _boundary_circle(_polar_basis(pole_vec.v, sp), sp)


def tangent_direction(p: HVec, x: HVec) -> np.ndarray:
    """Initial direction at interior [p] of the geodesic toward [x].

    The lift of x is rephased so <p, x> is real negative; the direction is
    the J-orthogonal projection of x away from p.
    """
    px = inner(p, x)
    if abs(px) == 0:
        raise GeometryError("x on the polar line of p has no geodesic direction")
    phase = -px.conjugate() / abs(px)
    xv = phase * x.v
    px = -abs(px)
    u = xv - p.v * (px / p.norm())
    return u


def angle_between(p: HVec, x: HVec, y: HVec) -> float:
    """Angle at interior [p] between the geodesics toward [x] and [y]."""
    ux, uy = tangent_direction(p, x), tangent_direction(p, y)
    ip = p.space.form

    na = math.sqrt(max(ip(ux, ux).real, 1e-300))
    nb = math.sqrt(max(ip(uy, uy).real, 1e-300))
    c = ip(ux, uy).real / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class Membership:
    residual: float
    location: Location
    on_extor: bool
    on_bisector: bool
    on_spinal: bool


def membership(z: HVec, b: Bisector, tol=None) -> Membership:
    """Equal-modulus residual of z against (p, q), tagged by location."""
    tol = tolerance(tol)
    ap, aq = abs(inner(z, b.p)), abs(inner(z, b.q))
    scale = max(ap, aq, _length(z) * math.sqrt(b.scale()))
    res = ap - aq
    on_extor = abs(res) <= tol * max(scale, 1e-300)
    loc = locate(z, tol)
    return Membership(
        residual=float(res),
        location=loc,
        on_extor=on_extor,
        on_bisector=on_extor and loc is Location.INSIDE,
        on_spinal=on_extor and loc is Location.BOUNDARY,
    )


def real_spine_endpoints(b: Bisector, tol=None):
    """The two boundary points of the real spine {[p + a q] : |a| = 1}.

    On the unit circle a = e^{i tau} the null condition reads
    2 <p,p> + 2 Re(a <p,q>) = 0; a metric bisector gives two solutions.
    """
    tol = tolerance(tol)
    if b.kind is not BisectorKind.METRIC_BISECTOR:
        raise GeometryError("real spine endpoints require a metric bisector")
    npp = b.p.norm()
    c = inner(b.p, b.q)
    if abs(c) < tol * max(1.0, abs(npp)):
        raise GeometryError("degenerate spine: <p,q> = 0")
    # Re(e^{i tau} c) = -<p,p>
    ratio = -npp / abs(c)
    ratio = min(1.0, max(-1.0, ratio))
    base = math.acos(ratio)
    out = []
    for s in (+1.0, -1.0):
        tau = s * base - math.atan2(c.imag, c.real)
        out.append(HVec(b.p.v + complex(math.cos(tau), math.sin(tau)) * b.q.v, b.p.space))
    return out[0], out[1]


def is_autopolar_triple(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """Three mutually orthogonal, non-isotropic points form an auto-polar triple."""
    tol = tolerance(tol)

    def _ok(a, b):
        scale = max(_length(a) * _length(b), 1e-300)
        return abs(inner(a, b)) <= tol * scale

    def _noniso(a):
        return locate(a, tol) is not Location.BOUNDARY

    return (
        _ok(p, q) and _ok(q, r) and _ok(r, p) and _noniso(p) and _noniso(q) and _noniso(r)
    )


# ---------------------------------------------------------------------------
# the precondition kernels FaceFamily does not run: on the slice every
# bisector verify reads has equal-norm lifts, every torus pair is unbalanced
# and the contacts at U p_A and U^-1 p_B are tangencies, at each alpha2
# (tests/test_face_family_identities.py)


class BisectorKind(enum.Enum):
    METRIC_BISECTOR = "metric-bisector"
    FAN = "fan"
    CLIFFORD_CONE = "clifford-cone"


def bisector_kinds(G, lengths, p: int, qs, tol) -> tuple[np.ndarray, list]:
    """(r_disc, kinds) of the bisectors of the lift p with each lift qs[i],
    read from the Gram table G and the Euclidean lengths of a table of
    lifts: r_disc = <p,p><q,q> - |<p,q>|^2 against the band tol max(1,
    |<p,p>|)^2.  Raises GeometryError when two lifts' norms differ by more
    than 1e3 tol times their scale."""
    n_p, n_q = G[p, p].real, G[qs, qs].real
    scale = np.maximum(np.maximum(abs(n_p), np.abs(n_q)), lengths[p] * lengths[qs])
    off = np.flatnonzero(np.abs(n_p - n_q) > 1e3 * tol * np.maximum(scale, 1.0))
    if len(off):
        raise GeometryError(f"lifts have different norms ({n_p:.6g} vs {n_q[off[0]]:.6g})")
    r = n_p * n_q - np.abs(G[p, qs]) ** 2
    band = tol * max(1.0, abs(n_p)) ** 2
    kinds = [
        BisectorKind.METRIC_BISECTOR if x < -band else BisectorKind.CLIFFORD_CONE if x > band else BisectorKind.FAN
        for x in r.tolist()
    ]
    return r, kinds


class ExtorPairKind(enum.Enum):
    CONFOCAL = "confocal"
    BALANCED = "balanced"
    SEMI_BALANCED = "semi-balanced"
    UNBALANCED = "unbalanced"


def pair_kinds(foci, lifts, pairs, space, tol) -> list[ExtorPairKind]:
    """The kind of each pair (i, j) of the bisectors with foci foci[i] and
    lifts (p_i, q_i) = lifts[i], shapes (k, 3) and (k, 2, 3).  Confocal when
    the foci are projectively equal within 1e3 tol (GeometryError when the
    lifts are too: the extors are identical); else a line through a focus
    lies in an extor exactly when its second point does, so both
    containments reduce to the membership |<f, p>| = |<f, q>| of each focus
    in the other extor, within 1e3 tol |f| sqrt(|p| |q|).  The products of
    every focus with every lift are one form, and the foci's Euclidean
    products one `sesquilinear`: the squared distance of two unit vectors at
    optimal phase is 1 - |<a, b>|^2."""
    H = np.abs(space.form(foci[:, None, None], lifts)).tolist()
    E, Lpq = sesquilinear(foci[:, None], foci).tolist(), np.linalg.norm(lifts, axis=2).tolist()

    def inside(f, b):  # focus f in the extor of bisector b
        (ap, aq), (lp, lq) = H[f][b], Lpq[b]
        return abs(ap - aq) <= 1e3 * tol * max(math.sqrt(E[f][f].real * lp * lq), 1e-300)

    kinds = []
    for f, g in pairs:
        if 1.0 - abs(E[f][g]) ** 2 / (E[f][f].real * E[g][g].real) <= (1e3 * tol) ** 2:
            if _proj_distances(lifts[f], lifts[g]).max() <= 1e-8:
                raise GeometryError("extors are identical")
            kinds.append(ExtorPairKind.CONFOCAL)
        else:
            c1, c2 = inside(g, f), inside(f, g)
            kinds.append(
                ExtorPairKind.BALANCED if c1 and c2 else ExtorPairKind.SEMI_BALANCED if c1 or c2 else ExtorPairKind.UNBALANCED
            )
    return kinds


def tangencies(G, lengths, p: int, q: int, rs, tol) -> list[bool]:
    """For each lift r of rs, whether the line through [p] and [r] meets
    the spinal surface of (p, q) only at [r], read from the Gram table G
    and the Euclidean lengths of a table of lifts.

    Requires equal nonzero norms, a real nonzero <p, q>, and r on the
    spinal surface (GeometryError otherwise, for the first r that fails);
    then the test is the existence of a sign eps with <p,r> = eps <q,r>
    while <q,p> != eps <p,p>.
    """
    npp, nq, pq = G[p, p].real, G[q, q].real, G[p, q]
    scale = lengths[p] * lengths[q]
    gate = 1e3 * tol * max(scale, 1.0)
    if abs(npp - nq) > gate:
        raise GeometryError("tangency criterion needs equal-norm lifts")
    if abs(npp) <= gate:
        raise GeometryError("tangency criterion needs non-null lifts")
    if abs(pq.imag) > gate or abs(pq) <= tol * scale:
        raise GeometryError("tangency criterion needs a real nonzero <p, q>")
    found = []
    for r, pr, qr in zip(rs, G[p, rs].tolist(), G[q, rs].tolist()):
        if abs(G[r, r].real) > 1e3 * tol * lengths[r] ** 2:
            raise GeometryError("r must be a boundary point")
        rgate = 1e3 * tol * max(abs(pr), abs(qr), 1e-300)
        if abs(abs(pr) - abs(qr)) > rgate:
            raise GeometryError("r must lie on the spinal surface of (p, q)")
        found.append(any(abs(pr - eps * qr) <= rgate and abs(pq - eps * npp) > gate for eps in (1.0, -1.0)))
    return found


# ---------------------------------------------------------------------------
# per-object forms of the program's array decisions


def _length(v: HVec) -> float:
    return float(np.linalg.norm(v.v))


def table(*points: HVec):
    """(G, lengths) of the rows of HVecs in one space: the Gram table
    G[i, j] = <x_i, x_j> and the Euclidean lengths, the inputs of the
    Gram-table kernels (`bisector_kinds`, `tangencies`, `angular_diameter`)."""
    X = np.array([x.v for x in points])
    return gram(X, points[0].space), np.linalg.norm(X, axis=1)


def bisector_kind(p: HVec, q: HVec, tol=None):
    """(r_disc, kind) of `bisector_kinds` on one bisector."""
    r, (kind,) = bisector_kinds(*table(p, q), 0, [1], tolerance(tol))
    return float(r[0]), kind


def pair_kind(b1, b2, tol=None) -> ExtorPairKind:
    """`pair_kinds` on one pair of bisectors."""
    lifts = np.array([[b1.p.v, b1.q.v], [b2.p.v, b2.q.v]])
    return pair_kinds(np.array([b1.focus.v, b2.focus.v]), lifts, [(0, 1)], b1.p.space, tolerance(tol))[0]


class SymmetricKind(enum.Enum):
    DISK = "disk"
    TRI_CIRCLE_DISK = "tri-circle-disk"
    TORUS_MINUS_TWO_DISKS = "torus-minus-two-disks"


def symmetric_kinds(boxes, space, tol) -> tuple[list, list]:
    """(u, kinds) of the intersections B(p,q) /\\ B(p,r) of order-3
    symmetric triples, decided by u = <pxq, pxq> / <pxq, qxr> against 2/3,
    from the box products (p box q, q box r, r box p) of each triple, shape
    (m, 3, 3), and their Gram blocks, one form.  Raises GeometryError for
    a triple that is not order-3 symmetric, or whose mixed product is not
    real negative.  On the slice both of LC's triples are proved DISK at
    every alpha2 in (0, pi/2) (tests/test_lc_identities.py)."""
    us, kinds = [], []
    for K in space.form(boxes[:, :, None], boxes[:, None]).tolist():
        (l1, k1, _), (_, l2, k2), (k3, _, l3) = K
        l1, l2, l3 = l1.real, l2.real, l3.real
        scale = max(abs(k1), abs(l1), 1e-300)
        sym_tol = 1e3 * tol * scale
        if max(abs(k1 - k2), abs(k2 - k3)) > sym_tol or max(abs(l1 - l2), abs(l2 - l3)) > sym_tol:
            raise GeometryError("triple is not order-3 symmetric within tolerance")
        if abs(k1.imag) > sym_tol or k1.real >= -tol * scale:
            raise GeometryError("mixed product is not real negative; hypotheses violated")
        u = l1 / k1.real
        band = 1e3 * tol * max(1.0, abs(u))
        us.append(u)
        kinds.append(
            SymmetricKind.DISK if u < 2.0 / 3.0 - band else SymmetricKind.TORUS_MINUS_TWO_DISKS if u > 2.0 / 3.0 + band
            else SymmetricKind.TRI_CIRCLE_DISK
        )
    return us, kinds


def lc_triples(ff) -> np.ndarray:
    """The box products (p box q, q box r, r box p) of LC's triples (p_U,
    p_V, p_W) and (p_U, U p_V, p_W), shape (2, 3, 3), the input of
    `symmetric_kinds`: `core.box_rows` on the rows of a FaceFamily's point
    table."""
    T = ff.P[[[P_U, P_V, P_W], [P_U, U_PV, P_W]]]
    return box_rows(T, T[:, [1, 2, 0]], ff.space)


def symmetric_kind(p: HVec, q: HVec, r: HVec, tol=None):
    """(u, kind) of `symmetric_kinds` on one triple."""
    (u,), (kind,) = symmetric_kinds(np.array([[box(p, q).v, box(q, r).v, box(r, p).v]]), p.space, tolerance(tol))
    return float(u), kind


def tangency(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """`tangencies` of (p, q) at one point r."""
    return tangencies(*table(p, q, r), 0, 1, [2], tolerance(tol))[0]


@dataclass(frozen=True)
class Bisector:
    p: HVec
    q: HVec
    focus: HVec
    r_disc: float
    kind: BisectorKind

    def scale(self) -> float:
        return _length(self.p) * _length(self.q)


def classify_bisector(p: HVec, q: HVec, tol=None) -> Bisector:
    """Build the bisector of two equal-norm lifts and classify it by r_disc."""
    tol = tolerance(tol)
    np_, nq = p.norm(), q.norm()
    scale = max(abs(np_), abs(nq), _length(p) * _length(q))
    if abs(np_ - nq) > 1e3 * tol * max(scale, 1.0):
        raise GeometryError(f"lifts have different norms ({np_:.6g} vs {nq:.6g})")
    r = np_ * nq - abs(inner(p, q)) ** 2
    band = tol * max(1.0, abs(np_)) ** 2
    if r < -band:
        kind = BisectorKind.METRIC_BISECTOR
    elif r > band:
        kind = BisectorKind.CLIFFORD_CONE
    else:
        kind = BisectorKind.FAN
    return Bisector(p, q, box(p, q), float(r), kind)


def _focus_in_extor(f: HVec, b: Bisector, tol) -> bool:
    ap, aq = abs(inner(f, b.p)), abs(inner(f, b.q))
    scale = max(_length(f) * math.sqrt(b.scale()), 1e-300)
    return abs(ap - aq) <= tol * scale


def classify_pair(b1: Bisector, b2: Bisector, tol=None) -> ExtorPairKind:
    """Pair type from the foci: a line through a focus lies in that extor
    exactly when its second point does, so both containments reduce to two
    membership tests."""
    tol = tolerance(tol)
    f1, f2 = b1.focus, b2.focus
    if proj_equal(f1, f2, 1e3 * tol):
        if proj_equal(b1.p, b2.p, 1e-8) and proj_equal(b1.q, b2.q, 1e-8):
            raise GeometryError("extors are identical")
        return ExtorPairKind.CONFOCAL
    c1 = _focus_in_extor(f2, b1, tol * 1e3)
    c2 = _focus_in_extor(f1, b2, tol * 1e3)
    if c1 and c2:
        return ExtorPairKind.BALANCED
    if c1 or c2:
        return ExtorPairKind.SEMI_BALANCED
    return ExtorPairKind.UNBALANCED


def giraud_torus(b1: Bisector, b2: Bisector, tol=None) -> GiraudTorus:
    """The torus of E(p, q) and E(p, r) from the bisectors b1 = (p, q) and
    b2 = (p, r) of an unbalanced pair (`classify_pair`)."""
    if b1.p is not b2.p and not np.array_equal(b1.p.v, b2.p.v):
        raise GeometryError("the bisectors of a torus need a common first lift")
    kind = classify_pair(b1, b2, tolerance(tol))
    if kind is not ExtorPairKind.UNBALANCED:
        raise GeometryError(f"pair is {kind.value}; torus needs an unbalanced pair")
    lifts = np.array([b1.p.v, b1.q.v, b2.q.v])
    return GiraudTorus(lifts, (box(b1.q, b2.q).v, b2.focus.v, -b1.focus.v), b1.p.space)


@dataclass(frozen=True)
class SymmetricIntersection:
    kind: SymmetricKind
    u: float
    k_value: complex  # the common mixed Hermitian product, real negative
    l_value: float  # the common squared norm of the box products


def symmetric_intersection_type(p: HVec, q: HVec, r: HVec, tol=None) -> SymmetricIntersection:
    """Trichotomy for the intersection B(p,q) /\\ B(p,r) of an order-3
    symmetric triple, decided by u = <pxq, pxq> / <pxq, qxr> against 2/3."""
    tol = tolerance(tol)
    bpq, bqr, brp = box(p, q), box(q, r), box(r, p)
    k1, k2, k3 = inner(bpq, bqr), inner(bqr, brp), inner(brp, bpq)
    l1, l2, l3 = bpq.norm(), bqr.norm(), brp.norm()
    scale = max(abs(k1), abs(l1), 1e-300)
    sym_tol = 1e3 * tol * scale
    if max(abs(k1 - k2), abs(k2 - k3)) > sym_tol or max(abs(l1 - l2), abs(l2 - l3)) > sym_tol:
        raise GeometryError("triple is not order-3 symmetric within tolerance")
    if abs(k1.imag) > sym_tol or k1.real >= -tol * scale:
        raise GeometryError("mixed product is not real negative; hypotheses violated")
    k = k1.real
    u = l1 / k
    band = 1e3 * tol * max(1.0, abs(u))
    if u < 2.0 / 3.0 - band:
        kind = SymmetricKind.DISK
    elif u > 2.0 / 3.0 + band:
        kind = SymmetricKind.TORUS_MINUS_TWO_DISKS
    else:
        kind = SymmetricKind.TRI_CIRCLE_DISK
    return SymmetricIntersection(kind, float(u), k1, float(l1))


def tangency_check(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """Whether the line through [p] and [r] meets the spinal surface of
    (p, q) only at [r]: with equal nonzero norms, a real nonzero <p, q> and
    r on the spinal surface, a sign eps with <p,r> = eps <q,r> while
    <q,p> != eps <p,p>."""
    tol = tolerance(tol)
    npp, nq = p.norm(), q.norm()
    scale = _length(p) * _length(q)
    if abs(npp - nq) > 1e3 * tol * max(scale, 1.0):
        raise GeometryError("tangency criterion needs equal-norm lifts")
    if abs(npp) <= 1e3 * tol * max(scale, 1.0):
        raise GeometryError("tangency criterion needs non-null lifts")
    pq = inner(p, q)
    if abs(pq.imag) > 1e3 * tol * max(scale, 1.0) or abs(pq) <= tol * scale:
        raise GeometryError("tangency criterion needs a real nonzero <p, q>")
    if locate(r, 1e3 * tol) is not Location.BOUNDARY:
        raise GeometryError("r must be a boundary point")
    pr, qr = inner(p, r), inner(q, r)
    rscale = max(abs(pr), abs(qr), 1e-300)
    if abs(abs(pr) - abs(qr)) > 1e3 * tol * rscale:
        raise GeometryError("r must lie on the spinal surface of (p, q)")
    for eps in (1.0, -1.0):
        if abs(pr - eps * qr) <= 1e3 * tol * rscale:
            if abs(pq - eps * npp) > 1e3 * tol * max(scale, 1.0):
                return True
    return False


def ext_div(num: complex, den: complex, tol=1e-12) -> complex:
    """Division on the extended complex plane with a single infinity."""
    if abs(den) <= tol * abs(num):
        if num == 0 and den == 0:
            raise GeometryError("0/0 in extended-complex division")
        return INF
    return num / den


def chart(ch: VisualChart, q) -> complex:
    """The coordinate of `VisualChart` ch, on the extended plane, of the
    line through its base and the coordinate vector q (q != base)."""
    num, den = (complex(ch.space.form(w, q)) for w in (ch.p_prime, ch.p_dprime))
    if num == 0 and den == 0:
        raise GeometryError("chart undefined at its base point")
    return ext_div(num, den)


def row_lengths(ff) -> np.ndarray:
    """The Euclidean lengths of the rows of a FaceFamily's point table, the
    scales of the Gram-table kernels below."""
    return np.linalg.norm(ff.P, axis=1)


def gram(X: np.ndarray, space) -> np.ndarray:
    """The Gram table G[i, j] = <X_i, X_j> of the rows of X, shape (k, 3)."""
    return space.form(X[:, None], X[None])


def face_torus(ff, i: int = 0) -> GiraudTorus:
    """The `GiraudTorus` view of torus i of a FaceFamily's lifts and rows:
    0 of J_0^- and J_-1^-, 1 of J_0^+ and J_1^+."""
    return GiraudTorus(ff.lifts[i], ff.rows[i], ff.space)


def face_gram(ff) -> np.ndarray:
    """The Gram table of a FaceFamily's point table P, G[i, j] = <P_i, P_j>:
    the input of the Gram-table kernels here and of the proofs' tie tests."""
    return gram(ff.P, ff.space)


# the products <z, q> of unit modulus that put the ideal vertices p_A and
# p_B on the four bisectors around them, as pairs of rows of `face_points`
VERTEX_PRODUCTS = [(P_A, q) for q in (P_U, P_V, P_W, UI_PV, UI_PW)] + [(P_B, q) for q in (P_U, P_V, P_W, U_PV, UI_PW)]
# the translation incidences |<z, p_U>| = |<z, q>|: the vertices and their
# U-translates on the bisectors of p_U with p_V and with p_W
TRANSLATION_INCIDENCES = [(z, P_V) for z in (P_A, U_PA, P_B, UI_PB)] + [(z, P_W) for z in (P_A, U_PA, P_B, U_PB)]


def vertex_products(ff) -> np.ndarray:
    """The ten products of VERTEX_PRODUCTS from a FaceFamily's point table,
    each of modulus 1 at every alpha2 (tests/test_incidence_identities.py)."""
    z, q = np.array(VERTEX_PRODUCTS).T
    return ff.space.form(ff.P[z], ff.P[q])


def oriented_chart(ff) -> VisualChart | None:
    """The chart of the visual sphere of [p_U] from a FaceFamily's point
    table in which U acts by z -> `chart_multiplier(ff)` z; None exactly on
    the unipotent wall of `param_side`, where p_U' and p_U'' coincide.

    With the convention <u,v> = u^H J v the usual ordering (p_U', p_U'') of
    the two non-unit eigenvectors yields the reciprocal chart on the
    loxodromic side (the eigenvectors are null there, so 0 and infinity
    swap roles); the rows (p_U'', p_U') there restore the expanding
    orientation (tests/test_incidence_identities.py)."""
    if ff.side.kind is SideKind.UNIPOTENT:
        return None
    rows = (P_U2, P_U1) if ff.side.kind is SideKind.LOXODROMIC else (P_U1, P_U2)
    return VisualChart(ff.P[P_U], *ff.P[list(rows)], ff.space)


def chart_multiplier(ff) -> complex | None:
    """The m with chart(U x) = m chart(x) in `oriented_chart(ff)`: e^{2l} on
    the loxodromic side, e^{2 i beta} on the elliptic side, None on the
    unipotent wall.  So the chart image of J_k^+- is m^k times that of
    J_0^+-."""
    side = ff.side
    if side.kind is SideKind.LOXODROMIC:
        return complex(math.exp(2.0 * side.length))
    if side.kind is SideKind.ELLIPTIC:
        return cmath.exp(2j * side.beta)
    return None


@dataclass(frozen=True)
class Silhouette:
    """The silhouette circle |z - center| = radius of a bisector in a chart
    of its base point's visual sphere.  eps is the sign of the slice p -
    eps q it comes from; the projected disk is the circle's inside when
    bounded, else its outside."""

    center: complex
    radius: float
    eps: float
    bounded: bool


def _silhouettes(chart: VisualChart, bisectors, tol):
    """The silhouette of each bisector from the chart's base, with the
    boundary circles em + rho e^{it} ep of the slices, as (silhouettes, em,
    ep, rho), the poles' Hermitian products taken one bisector at a time."""
    poles, signs = [], []
    base = HVec(chart.base, chart.space)
    for b in bisectors:
        if not proj_equal(base, b.p, 1e-8):
            raise GeometryError("chart base must be the bisector's first lift")
        p, q, scale = b.p, b.q, b.scale()
        pq = inner(p, q)
        if abs(pq.imag) > 1e3 * tol * max(scale, 1.0) or abs(pq) <= tol * scale:
            raise GeometryError("silhouette circle needs a real nonzero <p, q>")
        eps = -math.copysign(1.0, pq.real)
        pole = HVec(p.v - eps * q.v, p.space)
        if pole.norm() <= 1e3 * tol * max(scale, 1.0):
            raise GeometryError("silhouette slice has a pole of norm <= 0")
        poles.append(pole.v)
        signs.append(eps)
    sp = chart.space
    em, ep, rho, _ = _null_circles(_polar_basis(np.array(poles), sp), sp)
    sils = []
    for eps, e_m, e_p, r in zip(signs, em, ep, rho):
        (a, bw), (c, d) = [[sp.form(x, y) for y in (e_m, r * e_p)] for x in (chart.p_prime, chart.p_dprime)]
        den = abs(c) ** 2 - abs(d) ** 2
        if abs(den) <= tol * (abs(c) ** 2 + abs(d) ** 2):
            raise GeometryError("silhouette passes through the chart's infinity")
        center = (a * c.conjugate() - bw * d.conjugate()) / den
        sils.append(Silhouette(complex(center), float(abs(a * d - bw * c) / abs(den)), eps, bool(den > 0)))
    return sils, em, ep, rho


def silhouette_circles(chart: VisualChart, bisectors, tol=None) -> list:
    """The silhouette of each bisector from its own base point, the chart's base."""
    return _silhouettes(chart, bisectors, tolerance(tol))[0]


def face_silhouettes(ff):
    """(silhouettes, (em, ep, rho)) of J_0^+ and J_0^- in a FaceFamily's
    chart, with the slices' boundary circles em + rho e^{it} ep, one row per
    bisector: what `family.elliptic_disks` gives in closed form."""
    pts = family_points(ff)
    bisectors = [classify_bisector(pts.p_U, q, ff.tol) for q in (pts.p_V, pts.p_W)]
    sils, em, ep, rho = _silhouettes(oriented_chart(ff), bisectors, ff.tol)
    return sils, (em, ep, rho)


@dataclass
class DiskProjection:
    """Projection of a bisector based at p onto the visual sphere of [p]:
    the sampled boundary in the chart, the exact silhouette circle with the
    boundary's largest distance from it, the boundary's modulus in the
    rotation-invariant chart whose 0 and infinity are the lines to [q] and
    to the focus, and whether the line to [q] projects inside the disk."""

    chart: VisualChart
    boundary: np.ndarray
    boundary_eps: float
    circle: Silhouette
    residual: float
    priv_radius: float | None
    contains_zero: bool


def project_bisector(chart: VisualChart, b: Bisector, n_boundary=1024, tol=None) -> DiskProjection:
    """Silhouette of the bisector from its own base point in a given chart:
    the circle of `silhouette_circles`, sampled at n_boundary points of its
    slice.  Off fans, the privileged chart sees that slice at one modulus."""
    (sil,), em, ep, rho = _silhouettes(chart, [b], tolerance(tol))
    pts = circle_points(em[0], ep[0], rho[0], np.linspace(0, 2 * math.pi, n_boundary, endpoint=False))
    boundary = chart.values(pts)
    finite = boundary[np.isfinite(boundary)]
    residual = float(np.abs(np.abs(finite - sil.center) - sil.radius).max())
    priv_radius = None
    if b.kind is not BisectorKind.FAN:
        priv = VisualChart(b.p.v, b.focus.v, box(b.p, b.focus).v, b.p.space)
        mods = np.abs(priv.values(pts))
        if mods.max() - mods.min() > 1e-6 * max(float(mods.mean()), 1.0):
            raise GeometryError("silhouette circle has no constant modulus in the privileged chart")
        priv_radius = float(mods.mean())
    return DiskProjection(
        chart, boundary, sil.eps, sil, residual, priv_radius,
        contains_zero=b.kind is not BisectorKind.FAN and b.r_disc < 0,
    )


def angular_diameter(G, lengths, p: int, q: int, tol) -> float:
    """The real angular diameter of the bisector of the lifts p and q seen
    from [p], read from the Gram table G and the Euclidean lengths of a
    table of lifts (`table` gives both for a few HVecs).

    With cosh^2(d/2) = <p,q><q,p> / (<p,p><q,q>) for the hyperbolic
    distance d between the two interior points, the angular radius around
    the axis toward [q] is arccos(tanh(d/4)): the angle function
    sinh(r)(cosh r + cos phi) / (1 + 2 cos phi cosh r + cosh^2 r) on the
    boundary circle (r = d/2) is decreasing in cos phi, so the extreme
    directions sit on the midpoint slice (phi = 0), not at the spine ends
    (which realize tanh(d/2), the *largest* cosine).  The diameter is twice
    the radius by rotational symmetry about the axis.  On the slice GC
    reads its closed form 2 arccos sqrt((2x + 1)/(5 - 2x)), x = cos(beta)
    (tests/test_gc_disk_identities.py).
    """
    npp, nqq = G[p, p].real, G[q, q].real
    if not (npp < -tol * lengths[p] ** 2 and nqq < -tol * lengths[q] ** 2):
        raise GeometryError("angular diameter needs two interior points")
    c2 = float(abs(G[p, q]) ** 2 / (npp * nqq))
    if c2 < 1.0:
        raise GeometryError("inconsistent distance data")
    half_d = math.acosh(math.sqrt(c2))
    return 2.0 * math.acos(math.tanh(half_d / 2.0))


def cone_angles(ff, ks) -> np.ndarray:
    """Angles at p_U from the geodesic toward p_V to those toward U^k p_V
    (column 0) and U^k p_W (column 1), shape (len(ks), 2), on the elliptic
    side of order n, from a FaceFamily's Gram table.

    U fixes p_U and scales its eigenvectors p_U', p_U'' by e^{i beta},
    e^{-i beta} with beta = 2 pi / n, so <p_U, U^k x> = <p_U, x> and in the
    orthonormal basis of the polar line that the normalized eigenvectors
    give, the unit tangent direction toward U^k x is (c' e^{ik beta},
    c'' e^{-ik beta}) for the direction (c', c'') toward x.  The angle is
    2 atan2(|d - x|, |d + x|), which keeps its precision near pi.  GC reads
    these rows in closed form (tests/test_gc_disk_identities.py).
    """
    # the directions toward p_V and p_W (rows), rephased so that <p_U, x> is
    # real negative, the geodesic direction's convention (`tangent_direction`)
    G, e = face_gram(ff), [P_U1, P_U2]
    dirs = G[e][:, [P_V, P_W]].T / np.sqrt(G[e, e].real) * -G[P_U, [P_V, P_W]].conj()[:, None]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = np.exp(2j * math.pi / ff.side.n * np.asarray(ks))[:, None]
    X = dirs * np.stack([z, z.conj()], axis=-1)
    d = dirs[0]
    return 2.0 * np.arctan2(np.linalg.norm(d - X, axis=-1), np.linalg.norm(d + X, axis=-1))


def family_points(ff):
    """The remarkable points of a FaceFamily's parameter as HVecs."""
    return remarkable_points(FamilyParams(0.0, ff.alpha2))


def apply(g, p: HVec) -> HVec:
    """The point g p of an Isometry g."""
    return HVec(g.M @ p.v, g.space)


def power(g, k: int):
    """g^k of an Isometry g, k of either sign."""
    return Isometry(np.linalg.matrix_power(g.M if k >= 0 else g.inv().M, abs(k)), g.space)


def family_U(ff):
    """U = S^-1 T of a FaceFamily's parameter as an Isometry."""
    return FamilyRep(FamilyParams(0.0, ff.alpha2)).word("s^-1t")


def involution_matrix(alpha2: float) -> np.ndarray:
    """The U(2,1) involution I on the alpha1 = 0 slice: I p_U = p_U, I p_V =
    p_W and I U I = U^-1, so I carries U^k p_V onto U^-k p_W for every k
    (`slice_algebra.INVOLUTION`, proved in tests/test_lc_identities.py)."""
    e = cmath.exp(1j * alpha2)
    return np.array([[1.0, 0.0, 0.0], [-math.sqrt(2.0) * e, -1.0, 0.0], [-1.0, -math.sqrt(2.0) / e, 1.0]], dtype=complex)


def u_power_point(ff, k: int, p: HVec) -> HVec:
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
    Elsewhere the matrix power serves."""
    side = ff.side
    if k == 0:
        return p
    if side.kind is not SideKind.ELLIPTIC:
        return apply(power(family_U(ff), k), p)
    half = 0.5 * side.beta
    s = math.sin(half)
    f1a = cmath.exp(1j * (k - 1) * half) * (math.sin(k * half) / s)
    f1ab = math.sin(k * half) * math.sin((k - 1) * half) / (2.0 * s * s * math.cos(half))
    U = family_U(ff).M
    w = U @ p.v - p.v
    return HVec(p.v + f1a * w + f1ab * (U @ w - cmath.exp(2j * half) * w), p.space)


# corners of cell (i, j) counter-clockwise from (xs[i], ys[j]); edge k runs
# from corner k to corner k + 1
_CORNER_DI = np.array([0, 1, 1, 0])
_CORNER_DJ = np.array([0, 0, 1, 1])


def contour_segments(xs, ys, Z, levels):
    """figures._contour_segments as one pass per (grid, level) pair: Z one
    grid or a stack of them, levels one level or an array of them, and
    (segments, counts) the concatenation of `contour_segments_at` over the
    pairs and the count of each one's segments."""
    levels = np.asarray(levels, dtype=float)
    stack = np.broadcast_shapes(np.shape(Z)[:-2], levels.shape, (1,))
    grids, levels = np.broadcast_to(Z, stack + np.shape(Z)[-2:]), np.broadcast_to(levels, stack)
    parts = [contour_segments_at(xs, ys, grid, level) for grid, level in zip(grids, levels.tolist())]
    return np.concatenate(parts), np.array([len(part) for part in parts])


def contour_segments_at(xs, ys, Z, level):
    """Marching-squares crossings of Z - level, one segment per cell, as
    figures._contour_segments writes them: each cell's four cut flags are
    stacked, a cell cut at least twice keeps its first two cut edges (a
    stable argsort of the flags), and an edge is cut at t = f1 / (f1 - f2)."""
    F = Z - level
    pos = F > 0
    n, m = F.shape
    corner = [pos[di:n - 1 + di, dj:m - 1 + dj] for di, dj in zip(_CORNER_DI, _CORNER_DJ)]
    cut = np.stack([corner[k] != corner[(k + 1) % 4] for k in range(4)], axis=-1)
    ci, cj = np.nonzero(cut.sum(axis=-1) >= 2)
    edge = np.argsort(~cut[ci, cj], axis=-1, kind="stable")[:, :2]
    i1, j1 = ci[:, None] + _CORNER_DI[edge], cj[:, None] + _CORNER_DJ[edge]
    i2, j2 = ci[:, None] + _CORNER_DI[(edge + 1) % 4], cj[:, None] + _CORNER_DJ[(edge + 1) % 4]
    f1, f2 = F[i1, j1], F[i2, j2]
    t = f1 / (f1 - f2)
    segs = np.empty(edge.shape, dtype=complex)
    segs.real = xs[i1] + t * (xs[i2] - xs[i1])
    segs.imag = ys[j1] + t * (ys[j2] - ys[j1])
    return segs


def svg_circles(canvas, centers, r):
    """figures.SvgCanvas.circles as one `%.9g` f-string per mark: one circle
    of radius r per point of the 1-D complex array centers, each appended to
    canvas.elements."""
    for z in centers.tolist():
        cx, cy = z.real, canvas.ymax + canvas.ymin - z.imag
        canvas.elements.append(f'<circle cx="{"%.9g" % cx}" cy="{"%.9g" % cy}" r="{"%.9g" % r}" fill="#b02020"/>'.encode())


def svg_polylines(canvas, curves, color="#1f4e9c", width=0.002):
    """figures.SvgCanvas.polylines with every coordinate through a `%.9g`
    template over a Python tuple: one polyline per row of the (m, k)
    complex array curves, appended to canvas.elements."""
    m, k = curves.shape
    if m == 0:
        return
    point = "%.9g,%.9g"
    line = (
        f'<polyline fill="none" stroke="{color}" stroke-width="{"%.9g" % (width * (canvas.xmax - canvas.xmin))}" '
        f'points="{" ".join([point] * k)}"/>'
    )
    xy = np.stack([curves.real, canvas.ymax + canvas.ymin - curves.imag], axis=-1)
    canvas.elements.append(("\n".join([line] * m) % tuple(xy.ravel().tolist())).encode())
