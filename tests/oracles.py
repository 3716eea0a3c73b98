"""Reference implementations that the tests compare the program against.

None of these is on a program path, and none is imported by `crlab`:

- `envelope_minima`, the multi-constraint envelope of which `verify` reads
  one constraint per Giraud-torus column (`bisector.column_minima`), with
  its own per-form column rows, the per-torus ball arcs `ball_arcs` it
  reads from the norm terms `norm_terms` of the column rows `delta_rows`,
  and torus points `torus_vectors` and `point`;
- the grid oracle of the symmetric trichotomy (`periodic_components`,
  `count_sublevel_components`, `brute_force_symmetric_kind`), which the
  program decides in closed form (`symmetric_intersection_type`);
- sampled spinal surfaces and null circles (`spinal_samples`,
  `slice_boundary_circle`, `boundary_circle_of_plane`) and the sampled
  tangency count `line_spinal_crossings`, against which GC's closed-form
  silhouettes (`visual.silhouette_circles`) and `tangency_check` are held;
- geodesic directions and angles at an interior point (`tangent_direction`,
  `angle_between`), against which `angular_diameter` and
  `verify.cone_angles` are held;
- equal-modulus membership (`membership`, `Membership`), the real spine's
  ends (`real_spine_endpoints`) and `is_autopolar_triple`;
- the per-object forms of the program's array decisions, written with the
  scalar `inner` and `box` of single HVecs: `classify_bisector` and its
  `Bisector`, `classify_pair`, `giraud_torus`, `symmetric_intersection_type`,
  `tangency_check`, `silhouette_circles`, `project_bisector`,
  `angular_diameter` and `u_power_point`, against which `FaceFamily`'s
  Gram-table decisions are held; and `table`, the Gram table of a few
  HVecs, with `bisector_kind`, `pair_kind`, `symmetric_kind` and
  `tangency`, through which the tests call the program's kernels on one
  bisector, pair, triple or point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from crlab.bisector import (
    BisectorKind,
    ExtorPairKind,
    GiraudTorus,
    SymmetricKind,
    _arcs,
    _harmonic_roots,
    _ratio_critical,
    bisector_kinds,
    level_g,
    pair_kinds,
    symmetric_kinds,
)
from crlab.core import GeometryError, HVec, inner, sesquilinear, tolerance
from crlab.family import FamilyParams, FamilyRep, SideKind
from crlab.isometry import Isometry
from crlab.reference import Location, box, locate, proj_equal, remarkable_points
from crlab.visual import Silhouette, VisualChart, _null_circles, _polar_basis, circle_points, tangencies

TORUS_GRID_DEFAULT = 720
TORUS_REFINE_FACTOR = 4


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
    return sp.norm_grid(torus.qr) + sp.norm_grid(B), sp.inner_grid(torus.qr, B)


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
    ap = np.abs(p.space.inner_grid(p.v, Z))
    aq = np.abs(p.space.inner_grid(q.v, Z))
    res = ap - aq
    scale = float(np.maximum(ap, aq).max())
    res = np.where(np.abs(res) <= 1e-9 * max(scale, 1e-300), 0.0, res)
    signs = np.sign(res)
    # drop near-zeros so only transversal crossings flip the sign
    nz = signs[signs != 0]
    if len(nz) == 0:
        return 0
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


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
# per-object forms of the program's array decisions


def _length(v: HVec) -> float:
    return float(np.linalg.norm(v.v))


def table(*points: HVec):
    """(G, lengths) of the rows of HVecs in one space: the Gram table
    G[i, j] = <x_i, x_j> and the Euclidean lengths, the inputs of the
    program's kernels (`bisector_kinds`, `tangencies`, `angular_diameter`)."""
    X = np.array([x.v for x in points])
    return points[0].space.gram(X), np.linalg.norm(X, axis=1)


def bisector_kind(p: HVec, q: HVec, tol=None):
    """(r_disc, kind) of the program's `bisector_kinds` on one bisector."""
    r, (kind,) = bisector_kinds(*table(p, q), 0, [1], tolerance(tol))
    return float(r[0]), kind


def pair_kind(b1, b2, tol=None) -> ExtorPairKind:
    """The program's `pair_kinds` on one pair of bisectors."""
    lifts = np.array([[b1.p.v, b1.q.v], [b2.p.v, b2.q.v]])
    return pair_kinds(np.array([b1.focus.v, b2.focus.v]), lifts, [(0, 1)], b1.p.space, tolerance(tol))[0]


def symmetric_kind(p: HVec, q: HVec, r: HVec, tol=None):
    """(u, kind) of the program's `symmetric_kinds` on one triple."""
    (u,), (kind,) = symmetric_kinds(np.array([[box(p, q).v, box(q, r).v, box(r, p).v]]), p.space, tolerance(tol))
    return float(u), kind


def tangency(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """The program's `tangencies` of (p, q) at one point r."""
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


def angular_diameter(p: HVec, q: HVec, tol=None) -> float:
    """The real angular diameter 2 arccos(tanh(d/4)) of the bisector of
    (p, q) seen from [p], d the distance of the two interior points."""
    tol = tolerance(tol)
    if locate(p, tol) is not Location.INSIDE or locate(q, tol) is not Location.INSIDE:
        raise GeometryError("angular diameter needs two interior points")
    c2 = (abs(inner(p, q)) ** 2) / (p.norm() * q.norm())
    if c2 < 1.0:
        raise GeometryError("inconsistent distance data")
    half_d = math.acosh(math.sqrt(c2))
    return 2.0 * math.acos(math.tanh(half_d / 2.0))


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


def contour_segments(xs, ys, Z, level):
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
