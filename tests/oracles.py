"""Reference implementations that the tests compare the program against.

None of these is on a program path, and none is imported by `crlab`:

- `envelope_minima`, the multi-constraint envelope of which `verify` reads
  one constraint per Giraud-torus column (`bisector.column_minima`), with
  its own per-form column rows, the per-torus ball arcs `ball_arcs` it
  reads, and torus points `point`;
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
  ends (`real_spine_endpoints`) and `is_autopolar_triple`.
"""

import math
from dataclasses import dataclass

import numpy as np

from crlab.bisector import Bisector, BisectorKind, SymmetricKind, _arcs, _harmonic_roots, _ratio_critical, level_g
from crlab.core import GeometryError, HVec, Location, inner, locate, tolerance
from crlab.visual import _circle_points, _null_circles, _polar_basis

TORUS_GRID_DEFAULT = 720
TORUS_REFINE_FACTOR = 4


def point(torus, theta: float, phi: float) -> HVec:
    """The torus point at (theta, phi) as an HVec."""
    return HVec(torus.vectors(theta, phi), torus.space)


def ball_arcs(torus, deltas):
    """(mid, half) per delta-column of `torus`: the form <V, V> = A - 2 |C|
    cos(sigma - arg C) (`GiraudTorus.norm_terms`) is <= 0 exactly on the arc
    mid +- half, mid = arg C and half = arccos(A / 2|C|).  half is pi where
    the whole column is in the ball (A <= -2|C|, which covers C = 0 with
    A <= 0) and nan where no point is (A > 2|C|)."""
    return _arcs(*torus.norm_terms(deltas))


def envelope_minima(torus, deltas, pos, negs, ball=True):
    """Per delta-column, the exact minimum over sigma of max_i E_i / |V|^2
    with E_i = |<pos, V>|^2 - |<neg_i, V>|^2, for coordinate vectors pos and
    neg_i: over the column's ball arc (`ball_arcs`), or over the
    whole column when ball is False; inf where the arc is empty.

    In a column every E_i and |V|^2 is a sinusoid k + p cos(sigma) + q
    sin(sigma).  On the arc the minimum of the envelope sits at an arc end,
    at a critical point of one ratio E_i / |V|^2, where E_i' |V|^2 - E_i
    (|V|^2)' vanishes, or at a crossing E_i = E_j.  Both conditions are a
    constant plus one harmonic, with closed-form roots, so the least envelope
    value over these candidates is the minimum.  With one constraint this is
    the arithmetic of `bisector.column_minima`, to the bit."""
    deltas = np.asarray(deltas, dtype=float)
    den, (top, *rest) = _column_rows(torus, torus.delta_rows(deltas), [pos, *negs])
    den, top = np.array(den), np.array(top)
    nums = [top - np.array(e) for e in rest]
    if ball:
        mid, half = ball_arcs(torus, deltas)
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
    B of `GiraudTorus.delta_rows`: each form on its own, apart from the
    program's stacked `bisector._column_sinusoids`."""
    den = _harmonic(*_abs2_terms(torus.qr, B))
    # <w, V> = V @ f, f = w^H J as in `HermitianSpace.inner_grid`: f is
    # formed once for both qr and B
    fs = [w.conj() @ torus.space.J for w in ws]
    return den, [_harmonic(*_abs2_terms((torus.qr @ f)[None], (B @ f)[:, None])) for f in fs]


def _abs2_terms(u: np.ndarray, v: np.ndarray):
    """(A, C) with |u - z v_d|^2 = A_d - 2 Re(z C_d) for |z| = 1, where u has
    shape (k,) and v shape (len(deltas), k): A = |u|^2 + |v_d|^2, C = u^H v_d."""
    return np.vdot(u, u).real + (v.real**2 + v.imag**2).sum(axis=1), v @ u.conj()


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
    J = b.p.space.J
    alphas = np.exp(1j * np.linspace(0, 2 * math.pi, n_alpha, endpoint=False))
    poles = b.q.v - alphas[:, None] * b.p.v
    em, ep, rho, keep = _null_circles(_polar_basis(poles, J), J)
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


def _boundary_circle(B, J):
    """t -> representatives of the null circle of the plane spanned by the
    rows of B, or None when that line misses the closed ball."""
    em, ep, rho, keep = _null_circles(B, J)
    if not keep:
        return None
    return lambda ts: _circle_points(em, ep, rho, ts)


def boundary_circle_of_plane(p: HVec, r: HVec):
    """Parametrization t -> representatives of (span(p, r) /\\ null cone).

    Returns None when the complex line through [p], [r] misses the closed
    ball.
    """
    return _boundary_circle(np.stack([p.v, r.v]), p.space.J)


def slice_boundary_circle(pole_vec: HVec):
    """Boundary circle of the polar line of pole_vec, as t -> vectors."""
    J = pole_vec.space.J
    return _boundary_circle(_polar_basis(pole_vec.v, J), J)


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
    J = p.space.J
    ux, uy = tangent_direction(p, x), tangent_direction(p, y)

    def ip(a, b):
        return (a.conj() @ J @ b)

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
    scale = max(ap, aq, z.length() * math.sqrt(b.scale()))
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
        scale = max(a.length() * b.length(), 1e-300)
        return abs(inner(a, b)) <= tol * scale

    def _noniso(a):
        return locate(a, tol) is not Location.BOUNDARY

    return (
        _ok(p, q) and _ok(q, r) and _ok(r, p) and _noniso(p) and _noniso(q) and _noniso(r)
    )
