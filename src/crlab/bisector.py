"""Bisectors, extors, their pairs and parametrized intersections.

A bisector is the equal-modulus locus |<z,p>| = |<z,q>| cut down to the
closure of the negative cone; its extension to all of CP^2 is the extor.
The Gram determinant r = <p,p><q,q> - <p,q><q,p> of equal-norm lifts sorts
the locus into a metric bisector (r < 0), a fan (r = 0), or a Clifford
cone (r > 0); the focus is always the pole [p box q] of the complex spine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    GeometryError,
    HVec,
    Location,
    box,
    inner,
    locate,
    proj_equal,
    tolerance,
)

TORUS_GRID_DEFAULT = 720
TORUS_REFINE_FACTOR = 4
# bound on |fl(<V, V>) - <V, V>| per unit of |A| + 2|C| (see TorusGrid)
FORM_ROUNDING = 16 * 2.0**-53


class BisectorKind(enum.Enum):
    METRIC_BISECTOR = "metric-bisector"
    FAN = "fan"
    CLIFFORD_CONE = "clifford-cone"


@dataclass(frozen=True)
class Bisector:
    p: HVec
    q: HVec
    focus: HVec
    r_disc: float
    kind: BisectorKind

    def scale(self) -> float:
        return float(np.linalg.norm(self.p.v) * np.linalg.norm(self.q.v))


def classify_bisector(p: HVec, q: HVec, tol=None) -> Bisector:
    """Build the bisector of two equal-norm lifts and classify it by r_disc."""
    tol = tolerance(tol)
    np_, nq = p.norm(), q.norm()
    scale = max(abs(np_), abs(nq), np.linalg.norm(p.v) * np.linalg.norm(q.v))
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
    scale = max(ap, aq, np.linalg.norm(z.v) * math.sqrt(b.scale()))
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


class ExtorPairKind(enum.Enum):
    CONFOCAL = "confocal"
    BALANCED = "balanced"
    SEMI_BALANCED = "semi-balanced"
    UNBALANCED = "unbalanced"


def _focus_in_extor(f: HVec, b: Bisector, tol) -> bool:
    ap, aq = abs(inner(f, b.p)), abs(inner(f, b.q))
    scale = max(np.linalg.norm(f.v) * math.sqrt(b.scale()), 1e-300)
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


@dataclass(frozen=True)
class GiraudSample:
    theta: float
    phi: float
    point: HVec
    norm: float


class GiraudTorus:
    """The intersection torus of the coequidistant extors E(p,q), E(p,r).

    Points are [(q - e^{i theta} p) box (r - e^{i phi} p)], expanded as
    qr - e^{-i theta} pr - e^{-i phi} qp in the precomputed box products
    qr = q box r, pr = p box r, qp = q box p.  `vectors`, `point` and
    `sample` evaluate that expansion at given angles; grids go only through
    `sigma_delta`, which evaluates forms on the covering (sigma, delta) grid
    in closed form, without building the grid points.
    """

    def __init__(self, p: HVec, q: HVec, r: HVec, tol=None):
        tol = tolerance(tol)
        b1 = classify_bisector(p, q, tol)
        b2 = classify_bisector(p, r, tol)
        kind = classify_pair(b1, b2, tol)
        if kind is not ExtorPairKind.UNBALANCED:
            raise GeometryError(f"pair is {kind.value}; torus needs an unbalanced pair")
        self.p, self.q, self.r = p, q, r
        self.space = p.space
        self.qr = box(q, r).v
        self.pr = box(p, r).v
        self.qp = box(q, p).v
        self.bis1, self.bis2 = b1, b2

    def vectors(self, theta, phi) -> np.ndarray:
        """Representatives at broadcastable arrays of angles, shape (..., 3)."""
        return (
            self.qr
            - np.exp(-1j * np.asarray(theta))[..., None] * self.pr
            - np.exp(-1j * np.asarray(phi))[..., None] * self.qp
        )

    def point(self, theta: float, phi: float) -> HVec:
        return HVec(self.vectors(theta, phi), self.space)

    def sample(self, theta: float, phi: float) -> GiraudSample:
        pt = self.point(theta, phi)
        return GiraudSample(theta, phi, pt, pt.norm())

    def delta_rows(self, deltas) -> np.ndarray:
        """B(delta) = e^{-i delta} pr + e^{i delta} qp, shape (len(deltas), 3):
        with theta = sigma + delta and phi = sigma - delta the torus point is
        qr - e^{-i sigma} B(delta)."""
        e = np.exp(-1j * np.asarray(deltas))[:, None]
        return e * self.pr + e.conj() * self.qp

    def norm_terms(self, deltas):
        """(A, C) with <V, V> = A - 2 Re(e^{-i sigma} C) at (sigma, delta):
        A = <qr, qr> + <B, B> is real and C = <qr, B>, one value per delta."""
        B, sp = self.delta_rows(deltas), self.space
        return sp.norm_grid(self.qr) + sp.norm_grid(B), sp.inner_grid(self.qr, B)

    def sigma_delta(self, n: int, delta0: float) -> "TorusGrid":
        """Forms on the (sigma, delta) grid that covers the torus once: n
        values of sigma on [0, 2 pi) and n // 2 of delta on delta0 + [0, pi)."""
        sigmas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        deltas = delta0 + np.linspace(0.0, math.pi, n // 2, endpoint=False)
        return TorusGrid(self, sigmas, deltas)


def _re_outer(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Re(z_i c_j) for every pair, from real outer products."""
    return np.multiply.outer(z.real, c.real) - np.multiply.outer(z.imag, c.imag)


def _sinusoid_at(A, C, zr, zi, d) -> np.ndarray:
    """A_d - 2 Re(z C_d) at cells of columns d with z = zr + i zi.

    The roundings are those of A - 2 _re_outer(z, C), so the values equal
    it bit for bit (negating and doubling are exact); the operations run in
    place, because at a few 1e4 cells fresh temporaries cost more than the
    arithmetic."""
    out = zr * C.real[d]
    t = C.imag[d]
    t *= zi
    out -= t
    out *= -2.0
    out += np.take(A, d, out=t)
    return out


def _abs2_terms(u: np.ndarray, v: np.ndarray):
    """(A, C) with |u - z v_d|^2 = A_d - 2 Re(z C_d) for |z| = 1, where u has
    shape (k,) and v shape (len(deltas), k): A = |u|^2 + |v_d|^2, C = u^H v_d."""
    return np.vdot(u, u).real + (v.real**2 + v.imag**2).sum(axis=1), v @ u.conj()


class TorusGrid:
    """Forms of unit representatives on a (sigma, delta) grid of a
    GiraudTorus, evaluated in closed form.

    The point at (sigma_s, delta_d) is V = qr - z_s B_d with z_s =
    e^{-i sigma_s} (see GiraudTorus.delta_rows).  Every quantity read from
    it is a ratio of sinusoids in sigma: for any linear map L into C^k,
    |L V|^2 = |L qr - z_s L B_d|^2 = A_d - 2 Re(z_s C_d) with A_d = |L qr|^2
    + |L B_d|^2 and C_d = (L qr)^H L B_d (`_abs2_terms`).  So are <V, V>
    (`GiraudTorus.norm_terms`), |V|^2 (L the identity), |<w, V>|^2 (L = w^H
    J) and |p x V|^2 (L = p x .), and every grid value is one of them over
    |V|^2, that of the row-normalized point V / |V|.  The coefficients are
    taken once per delta-column; the whole-grid forms take their outer
    products through `_re_outer`, and ball_abs2 and ball_chordal evaluate
    the sinusoids only at the ball cells (`_at_ball`), without forming
    torus points.

    Evaluated this way, a sinusoid in column d is off by at most about
    16 u (A_d + 2 |C_d|) <= 16 u max_sigma |L V|^2 (u = 2^-53, see below),
    that is 16 u kappa_d times the column's largest ratio, kappa_d =
    max|V|^2 / min|V|^2.  |V|^2 itself is taken in a form without that
    cancellation (`_inv_sq_at`), on the whole grid and at the ball cells
    alike, and whole-grid numerators |<w, V>|^2 as |<w, qr> - z_s <w,
    B_d>|^2 (`abs2`); on the tori of the face family the ratios stay below
    1e-12 of the grid's largest ratio through alpha2 = 1.56.

    The ball cells are found column by column, without the dense form.  In
    column d the form is the sinusoid h(sigma) = A_d - 2 |C_d| cos(sigma -
    arg C_d), so h <= 0 on the single arc arg C_d +- arccos(A_d / 2|C_d|)
    (the whole column when A_d <= -2|C_d|, none when A_d > 2|C_d|).  The
    float value f = fl(A_d - 2 (zr cr - zi ci)) at cell (s, d), with z_s =
    zr + i zi and C_d = cr + i ci, differs from h(sigma_s) by at most E_d = 16 u (|A_d| + 2 |C_d|), u = 2^-53: the three
    roundings of the expression give u |A_d| + 6 u |z_s| |C_d| to first
    order (|zr cr| + |zi ci| <= |z_s| |C_d|), and z_s = e^{-i sigma_s} to a
    few ulps adds 2 |C_d| |z_s - e^{-i sigma_s}|; 16 u leaves ample slack.
    Every cell with f <= 0 thus has h(sigma_s) <= E_d, that is, lies on the
    arc arg C_d +- arccos((A_d - E_d) / 2|C_d|).  That arc is widened by one
    cell for the rounding of arccos, angle and the index arithmetic (errors
    far below a cell), and the float test f <= 0 is applied inside it, in
    the same operations as the dense form, so the cells are exactly those
    of `_form <= 0`.  A column with C_d = 0 has f = A_d everywhere: all
    ball when A_d <= 0, else none.
    """

    def __init__(self, torus: GiraudTorus, sigmas: np.ndarray, deltas: np.ndarray):
        self.torus = torus
        self.sigmas, self.deltas = sigmas, deltas
        self._z = np.exp(-1j * sigmas)
        self._B = torus.delta_rows(deltas)

    @cached_property
    def _sq_terms(self):
        """(A, C) of the sinusoid |V|^2."""
        return _abs2_terms(self.torus.qr, self._B)

    @cached_property
    def _form(self) -> np.ndarray:
        """<V, V> on the grid, before normalization."""
        A, C = self.torus.norm_terms(self.deltas)
        return A - 2.0 * _re_outer(self._z, C)

    @cached_property
    def norm(self) -> np.ndarray:
        """<V, V> / |V|^2, shape (len(sigmas), len(deltas))."""
        return self._form * self._grid_inv_sq

    @cached_property
    def ball_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(sigma, delta) indices of the ball cells, norm <= 0, in row-major
        order: the cells of `_form <= 0.0`, found from the per-column arcs
        (see the class docstring)."""
        n, m = len(self.sigmas), len(self.deltas)
        A, C = self.torus.norm_terms(self.deltas)
        mod = np.abs(C)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = (A - FORM_ROUNDING * (np.abs(A) + 2.0 * mod)) / (2.0 * mod)
        zero = mod == 0.0  # the form is A on the whole column
        x[zero] = np.where(A[zero] <= 0.0, -np.inf, np.inf)
        half = np.arccos(np.clip(x, -1.0, 1.0))
        step = 2.0 * math.pi / n
        lo = np.ceil((np.angle(C) - half) / step) - 1.0
        count = np.minimum(np.floor((np.angle(C) + half) / step) + 2.0 - lo, n)
        count, lo = count.astype(np.intp), lo.astype(np.intp)
        d = np.repeat(np.arange(m), count)
        s = np.repeat(lo - (np.cumsum(count) - count), count)
        s += np.arange(len(d))
        s %= n
        keep = _sinusoid_at(A, C, self._z.real[s], self._z.imag[s], d) <= 0.0
        key = s[keep]
        key *= m
        key += d[keep]
        key.sort()
        return np.divmod(key, m)

    @cached_property
    def _ball_z(self):
        """(Re z_s, Im z_s, d) at the ball cells, gathered once."""
        s, d = self.ball_cells
        return self._z.real[s], self._z.imag[s], d

    def _at_ball(self, A: np.ndarray, C: np.ndarray) -> np.ndarray:
        """The sinusoid A_d - 2 Re(z_s C_d) at the ball cells."""
        return _sinusoid_at(A, C, *self._ball_z)

    def _inv_sq_at(self, zr, zi, d) -> np.ndarray:
        """1 / |V|^2 at the cells (z_s = zr + i zi, column d; the arguments
        broadcast), without the cancellation of the plain sinusoid near its
        column minimum: with c_d = C_d / |C_d| on the unit circle, |V|^2 =
        m_d + |C_d| |z_s - conj(c_d)|^2, and the minimum m_d = A_d - 2 |C_d|
        is (|qr| - |B_d|)^2 + 2 |qr x B_d|^2 / (|qr| |B_d| + |C_d|) by
        Lagrange's identity."""
        qr, B = self.torus.qr, self._B
        C = self._sq_terms[1]
        mod = np.abs(C)
        c = C / np.where(mod > 0.0, mod, 1.0)
        qn, bn = np.linalg.norm(qr), np.linalg.norm(B, axis=1)
        cross = np.cross(qr, B)
        low = (qn - bn) ** 2 + 2.0 * (cross.real**2 + cross.imag**2).sum(axis=1) / np.maximum(
            qn * bn + mod, np.finfo(float).tiny
        )
        re = zr - c.real[d]
        im = zi + c.imag[d]
        re *= re
        im *= im
        re += im
        re *= mod[d]
        re += low[d]
        return np.divide(1.0, re, out=re)

    @cached_property
    def _grid_inv_sq(self) -> np.ndarray:
        """1 / |V|^2 on the whole grid."""
        return self._inv_sq_at(self._z.real[:, None], self._z.imag[:, None], np.arange(len(self.deltas)))

    @cached_property
    def _ball_inv_sq(self) -> np.ndarray:
        """1 / |V|^2 at the ball cells."""
        return self._inv_sq_at(*self._ball_z)

    @cached_property
    def ball(self) -> np.ndarray:
        """The cells of the locus in the closed ball, norm <= 0, as a mask."""
        mask = np.zeros((len(self.sigmas), len(self.deltas)), dtype=bool)
        mask[self.ball_cells] = True
        return mask

    @cached_property
    def ball_points(self) -> np.ndarray:
        """Unit representatives at the ball cells in row-major order, shape (cells, 3)."""
        return self._points(slice(None))

    def _points(self, i) -> np.ndarray:
        """Unit representatives at the ball cells selected by the index i."""
        s, d = self.ball_cells
        V = self.torus.qr - self._z[s[i], None] * self._B[d[i]]
        return V / np.linalg.norm(V, axis=-1, keepdims=True)

    def abs2(self, w: np.ndarray) -> np.ndarray:
        """|<w, V>|^2 / |V|^2 for a coordinate vector w, on the whole grid."""
        sp = self.torus.space
        a, b = sp.inner_grid(w, self.torus.qr), sp.inner_grid(w, self._B)
        # a - z_s b_d, its imaginary part as Re(z_s (-i b_d))
        re = a.real - _re_outer(self._z, b)
        im = a.imag - _re_outer(self._z, -1j * b)
        return (re**2 + im**2) * self._grid_inv_sq

    def ball_abs2(self, w: np.ndarray) -> np.ndarray:
        """|<w, V>|^2 / |V|^2 at the ball cells, in the order of ball_points."""
        sp = self.torus.space
        a, b = sp.inner_grid(w, self.torus.qr), sp.inner_grid(w, self._B)
        # |a - z_s b_d|^2, with a and b_d as vectors of C^1
        out = self._at_ball(*_abs2_terms(a[None], b[:, None]))
        out *= self._ball_inv_sq
        return out

    def ball_chordal(self, p: np.ndarray) -> np.ndarray:
        """Projective chordal distance sqrt(1 - |p^H V|^2 / (|p|^2 |V|^2)) of
        the ball cells to the class of a coordinate vector p, in the order of
        ball_points.

        By Lagrange's identity its square is the ratio of sinusoids |p x V|^2
        / (|p|^2 |V|^2), off by at most 32 u kappa with kappa = (|qr| +
        |B_d|)^2 / |V|^2 (see the class docstring).  Where that bound is not
        small against the value, at cells within rounding of the point p,
        the distance is taken from the unit point itself as sqrt(1 -
        min(|p^H V|, 1)^2); with exact arithmetic both agree."""
        p = p / np.linalg.norm(p)
        K = np.cross(p, np.eye(3))  # x @ K = p x x
        dist = self._at_ball(*_abs2_terms(self.torus.qr @ K, self._B @ K))
        dist *= self._ball_inv_sq
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        near = np.flatnonzero(dist <= self._chordal_floor)
        if near.size:
            overlap = np.abs(self._points(near).conj() @ p)
            dist[near] = np.sqrt(np.maximum(0.0, 1.0 - np.minimum(overlap, 1.0) ** 2))
        return dist

    @cached_property
    def _chordal_floor(self) -> float:
        """A distance below which ball_chordal's sinusoid may be all rounding:
        the square root of four times its bound 32 u max kappa."""
        t_max = (np.linalg.norm(self.torus.qr) + np.linalg.norm(self._B, axis=1)).max() ** 2
        return math.sqrt(4.0 * 2.0 * FORM_ROUNDING * t_max * self._ball_inv_sq.max(initial=0.0))


def level_g(theta, phi):
    """The symmetric level function cos(theta) + cos(phi) + cos(phi - theta)."""
    return np.cos(theta) + np.cos(phi) + np.cos(phi - theta)


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


class SymmetricKind(enum.Enum):
    DISK = "disk"
    TRI_CIRCLE_DISK = "tri-circle-disk"
    TORUS_MINUS_TWO_DISKS = "torus-minus-two-disks"


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
        out.append(b.p + complex(math.cos(tau), math.sin(tau)) * b.q)
    return out[0], out[1]
