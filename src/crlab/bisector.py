"""Bisectors, extors, their pairs and parametrized intersections.

A bisector is the equal-modulus locus |<z,p>| = |<z,q>| cut down to the
closure of the negative cone; its extension to all of CP^2 is the extor.
The Gram determinant r = <p,p><q,q> - <p,q><q,p> of equal-norm lifts sorts
the locus into a metric bisector (r < 0), a fan (r = 0), or a Clifford
cone (r > 0); the focus is always the pole [p box q] of the complex spine.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GeometryError,
    HVec,
    box,
    inner,
    proj_equal,
    tolerance,
)


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
        return self.p.length() * self.q.length()


def classify_bisector(p: HVec, q: HVec, tol=None) -> Bisector:
    """Build the bisector of two equal-norm lifts and classify it by r_disc."""
    tol = tolerance(tol)
    np_, nq = p.norm(), q.norm()
    scale = max(abs(np_), abs(nq), p.length() * q.length())
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


class ExtorPairKind(enum.Enum):
    CONFOCAL = "confocal"
    BALANCED = "balanced"
    SEMI_BALANCED = "semi-balanced"
    UNBALANCED = "unbalanced"


def _focus_in_extor(f: HVec, b: Bisector, tol) -> bool:
    ap, aq = abs(inner(f, b.p)), abs(inner(f, b.q))
    scale = max(f.length() * math.sqrt(b.scale()), 1e-300)
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


class GiraudTorus:
    """The intersection torus of the coequidistant extors E(p,q), E(p,r),
    built from their two bisectors (`classify_bisector`).

    Points are [(q - e^{i theta} p) box (r - e^{i phi} p)], expanded as
    qr - e^{-i theta} pr - e^{-i phi} qp in the precomputed box products
    qr = q box r, pr = p box r, qp = q box p.  `vectors` evaluates that
    expansion at given angles.  With theta = sigma + delta and phi = sigma -
    delta the point is qr - e^{-i sigma} B(delta), so every form on a
    delta-column is a sinusoid in sigma, formed by `_column_sinusoids` alone:
    `column_minima` reads the ball part of each column in closed form for
    verify, and `column_forms` evaluates the forms on a (sigma, delta) grid
    for the figures.
    """

    def __init__(self, b1: Bisector, b2: Bisector, tol=None):
        """The torus of E(p, q) and E(p, r) from their classified bisectors
        b1 = (p, q) and b2 = (p, r), which are not classified again."""
        if b1.p is not b2.p and not np.array_equal(b1.p.v, b2.p.v):
            raise GeometryError("the bisectors of a torus need a common first lift")
        kind = classify_pair(b1, b2, tolerance(tol))
        if kind is not ExtorPairKind.UNBALANCED:
            raise GeometryError(f"pair is {kind.value}; torus needs an unbalanced pair")
        self.p, self.q, self.r = b1.p, b1.q, b2.q
        self.space = self.p.space
        self.qr = box(self.q, self.r).v
        self.pr = b2.focus.v  # p box r
        self.qp = -b1.focus.v  # q box p = -(p box q)
        self.bis1, self.bis2 = b1, b2

    def vectors(self, theta, phi) -> np.ndarray:
        """Representatives at broadcastable arrays of angles, shape (..., 3)."""
        return (
            self.qr
            - np.exp(-1j * np.asarray(theta))[..., None] * self.pr
            - np.exp(-1j * np.asarray(phi))[..., None] * self.qp
        )

    def delta_rows(self, deltas) -> np.ndarray:
        """B(delta) = e^{-i delta} pr + e^{i delta} qp, shape (len(deltas), 3):
        with theta = sigma + delta and phi = sigma - delta the torus point is
        qr - e^{-i sigma} B(delta)."""
        e = np.exp(-1j * np.asarray(deltas))[:, None]
        return e * self.pr + e.conj() * self.qp

    def norm_terms(self, deltas):
        """(A, C) with <V, V> = A - 2 Re(e^{-i sigma} C) at (sigma, delta):
        A = <qr, qr> + <B, B> is real and C = <qr, B>, one value per delta."""
        sp, B = self.space, self.delta_rows(deltas)
        return sp.norm_grid(self.qr) + sp.norm_grid(B), sp.inner_grid(self.qr, B)

    def column_forms(self, sigmas, deltas, pos, neg) -> list:
        """[<V, V>, |<pos, V>|^2, |<neg, V>|^2], each over |V|^2 and of shape
        (len(sigmas), len(deltas)), for coordinate vectors pos and neg: the
        rows of `_column_sinusoids` for the block of whole columns, so no
        torus point is formed.  |V|^2 is the plain sinusoid, which cancels
        near its column minimum: on the face-family torus at alpha2 = 1.56
        the ratios agree with a 40-digit evaluation of the same points to
        about 6e-12 of the grid's largest value, and to 1e-15 at alpha2 =
        0.7."""
        kpq, (A, C), _ = _column_sinusoids([(self, deltas, pos, neg, False)])
        cos, sin = np.cos(sigmas)[:, None], np.sin(sigmas)[:, None]
        sq, *forms = [k + p * cos + q * sin for k, p, q in [kpq[:, 0], (A, -2.0 * C.real, -2.0 * C.imag), kpq[:, 1], kpq[:, 2]]]
        return [f / sq for f in forms]


def _column_sinusoids(blocks) -> tuple:
    """The one stage that forms a torus column's sinusoids in sigma, for a
    stack of blocks (torus, deltas, pos, neg, ball) of tori in one space,
    with coordinate vectors pos and neg: per column the rows (k, p, q) of
    k + p cos(sigma) + q sin(sigma) for |V|^2, |<pos, V>|^2 and |<neg, V>|^2,
    shape (3, 3, columns); the terms (A, C) of <V, V> = A - 2 Re(e^{-i sigma}
    C) (`GiraudTorus.norm_terms`); and the ball arc (mid, half) of `_arcs`,
    or the whole column (0, pi) for a block whose ball is False.

    Each block's products with its torus's rows qr, pr, qp and its pos, neg
    keep the shapes of the block alone, and every other stage runs once,
    elementwise, on the stack, so a column has the same bits in any stack."""
    sizes = [len(b[1]) for b in blocks]
    # per block the rows pos, neg, qr, pr, qp; functionals w^H J, then qr^H
    X = np.array([r for t, _, w1, w2, _ in blocks for r in (w1, w2, t.qr, t.pr, t.qp)]).reshape(-1, 5, 3)
    qr, qr_h, space = X[:, 2], X[:, 2].conj(), blocks[0][0].space
    F = np.concatenate([X[:, :3].conj() @ space.J, qr_h[:, None]], axis=1)
    e = np.exp(-1j * np.concatenate([b[1] for b in blocks]))
    PQ = np.repeat(X[:, 3:].transpose(1, 2, 0), sizes, axis=2)
    Bt = e * PQ[0] + e.conj() * PQ[1]  # `delta_rows` of every column, laid out (3, columns)
    # <B, B> per column and <qr, qr> per block; |qr|^2 as np.vdot forms it
    N = space.norm_grid(np.concatenate([Bt.T, qr]))
    QN = np.stack([np.matmul(qr_h[:, None], qr[..., None])[:, 0, 0].real, N[len(e) :]], axis=1)
    Zs, Ss, i, start, F4, Q4 = [], [], 0, 0, F[..., None], qr[:, None, None]
    # a run of blocks of one size shares one stacked matmul per product, each
    # item in the shapes of its block alone
    for m, run in itertools.groupby(sizes):
        g = len(list(run))
        B = np.ascontiguousarray(Bt[:, start : start + g * m].T).reshape(g, 1, m, 3)  # rows, as BLAS reads them
        P = np.matmul(B, F4[i : i + g])  # <pos, B>, <neg, B>, <qr, B>_J, <B, qr>
        u = np.matmul(Q4[i : i + g], F4[i : i + g, :2])  # <pos, qr>, <neg, qr>
        Zs.append(np.concatenate([P, np.matmul(P[:, :2], u.conj())], axis=1).transpose(1, 0, 2, 3).reshape(6, -1))
        Ss.append(np.repeat(np.concatenate([QN[i : i + g], np.matmul(u.conj(), u)[..., 0, 0].real], axis=1).T, m, axis=1))
        i, start = i + g, start + g * m
    Z, S = np.concatenate(Zs, axis=1), np.concatenate(Ss, axis=1)
    A, C = S[1] + N[: len(e)], Z[2]
    mid, half = _arcs(A, C)
    in_ball = np.repeat([b[4] for b in blocks], sizes)
    sq = np.concatenate([Bt, Z[:2]])
    sq = sq.real**2 + sq.imag**2
    cross = Z[[3, 4, 5]]
    kpq = np.array([S[[0, 2, 3]] + [(sq[0] + sq[1]) + sq[2], sq[3], sq[4]], -2.0 * cross.real, -2.0 * cross.imag])
    return kpq, (A, C), (np.where(in_ball, mid, 0.0), np.where(in_ball, half, math.pi))


def column_minima(blocks) -> tuple:
    """(minima, mid, half) per column of the stacked blocks (torus, deltas,
    pos, neg, ball) of `_column_sinusoids`: the exact minimum over sigma of
    E / |V|^2, E = |<pos, V>|^2 - |<neg, V>|^2, over the column's ball arc
    mid +- half (mid = arg C, half = arccos(A / 2|C|) for <V, V> = A - 2|C|
    cos(sigma - arg C); pi where the whole column is in the ball, nan where
    no point is), or over the whole column (0 +- pi) for a block whose ball
    is False; inf where the arc is empty.  verify's call, through
    `torus_exclusion` (six blocks, 724 columns at grid 720), takes about
    0.4 ms.

    On the arc the minimum of the ratio sits at an arc end or where E' |V|^2
    - E (|V|^2)' vanishes, a constant plus one harmonic with closed-form
    roots, so no sigma is sampled.  A candidate that is no root
    (`_harmonic_roots`) is still a point of the arc, so it cannot take the
    minimum below the true one.  On the face-family tori through alpha2 =
    1.56 the values agree with a 40-digit evaluation of the same points to
    about 2e-11 relative."""
    kpq, _, (mid, half) = _column_sinusoids(blocks)
    # a column with an empty arc reads inf; the others are evaluated
    live = np.flatnonzero(~np.isnan(half))
    kpq, lmid, lhalf = kpq[..., live], mid[live], half[live]
    sines = np.array([kpq[:, 1] - kpq[:, 2], kpq[:, 0]])  # E and |V|^2
    # offsets from mid: the arc ends, then both roots in (-pi, pi]
    roots = np.array(_harmonic_roots(*_ratio_critical(*sines)))
    t = np.concatenate([[-lhalf, lhalf], math.pi - np.remainder(math.pi + lmid - roots, 2 * math.pi)])
    sigma = lmid + t
    top, bottom = sines[:, 0, None] + sines[:, 1, None] * np.cos(sigma) + sines[:, 2, None] * np.sin(sigma)
    minima = np.full(len(half), math.inf)
    minima[live] = np.where(np.abs(t) <= lhalf, top / bottom, math.inf).min(axis=0)
    return minima, mid, half


def vertex_angles(pairs) -> list[tuple[float, float]]:
    """(theta, phi) of the torus point at the vertex t of each (torus, t)
    pair: a torus point is J-orthogonal to both factors q - e^{i th} p and
    r - e^{i ph} p, so e^{-i th} = <q,t>/<p,t> and e^{-i ph} = <r,t>/<p,t>,
    from one Gram array of the tori's p, q, r against the vertices."""
    W = np.array([x.v for torus, _ in pairs for x in (torus.p, torus.q, torus.r)])
    G = pairs[0][0].space.inner_grid(W, np.array([t.v for _, t in pairs])).tolist()
    return [(-cmath.phase(g[3 * i + 1] / g[3 * i]), -cmath.phase(g[3 * i + 2] / g[3 * i])) for i, g in enumerate(G)]


def torus_exclusion(passes, blocks, m: int) -> tuple[list, np.ndarray]:
    """([(margin, vertex residuals)] per pass (torus, neg, vertices), and the
    minima of the further column `blocks`): a pass is the claim that on the
    ball part of `torus` |<z, p>| <= |<z, neg>|, p the torus's own first
    lift, holds only at the two `vertices`.  Both vertices lie on the
    delta-column delta_v = (theta - phi) / 2 mod pi (`vertex_angles`), at
    the two ends of its ball arc, where the contact is of second order.  The
    margin is the exact minimum of |<p, z>|^2 - |<neg, z>|^2, z unit, on the
    arcs of the m columns delta_v + (k + 1/2) pi / m, over sin^2(delta -
    delta_v); a vertex's residual is its distance (`proj_distance`) to the
    nearer end of the delta_v arc.  One `column_minima` call reads these
    columns, each delta_v column as a block alone, and `blocks`.  Exact in
    sigma, sampled in delta; about 0.55 ms for verify's two passes and TF's
    two reads at m = 360."""
    k = len(passes)
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    dvs = np.array([((th - ph) / 2.0) % math.pi for th, ph in vertex_angles([(t, v[0]) for t, _, v in passes])])
    # the passes' columns, then each delta_v column alone, then `blocks`
    cols = [(t, d, t.p.v, neg.v, True) for ds in (dvs[:, None] + offsets, dvs[:, None]) for (t, neg, _), d in zip(passes, ds)]
    minima, mid, half = column_minima(cols + blocks)
    margins = (minima[: k * m].reshape(k, m) / np.sin(offsets) ** 2).min(axis=1)
    mid, half = mid[k * m : k * m + k, None], half[k * m : k * m + k, None]
    s, dv = mid + half * [-1.0, 1.0], dvs[:, None]
    # per pass: the two arc ends, then the two vertices, as unit vectors
    x = np.array([[*t.vectors(a, b), *(y.v for y in vs)] for (t, _, vs), a, b in zip(passes, s + dv, s - dv)])
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    ends, t = x[:, :2], x[:, 2:]
    # [pass, vertex, end]: each end less its projection on the vertex
    d = ends[:, None] - (t.conj() @ ends.transpose(0, 2, 1))[..., None] * t[:, :, None]
    resids = np.where(np.isnan(half), math.inf, np.linalg.norm(d, axis=-1).min(axis=-1))
    return [(float(a), r) for a, r in zip(margins, resids.tolist())], minima[k * m + k :]


def giraud_circle_tangents(pairs):
    """Affine-chart velocities, shape (k, 2), of the Giraud circles of the k
    (torus, vertex) pairs at their vertices, with the torus points V (k, 3)
    at `vertex_angles` and their distances (`core.proj_distance`) to the
    vertices, as one array evaluation."""
    R = np.array([(t.qr, t.pr, t.qp) for t, _ in pairs])
    PQ = np.exp(-1j * np.array(vertex_angles(pairs)))[..., None] * R[:, 1:]
    # `GiraudTorus.vectors` and its theta and phi derivatives
    v, dv = R[:, 0] - PQ[:, 0] - PQ[:, 1], 1j * PQ
    x = np.array([t.v for _, t in pairs])
    a, b = (y / np.linalg.norm(y, axis=1, keepdims=True) for y in (v, x))
    dist = np.linalg.norm(a - (b.conj() * a).sum(axis=1, keepdims=True) * b, axis=1)
    g = 2.0 * ((v.conj() @ pairs[0][0].space.J)[:, None] * dv).sum(axis=-1).real
    # curve tangent in parameter space is orthogonal to the norm gradient
    w = (dv * (g[:, ::-1] * [-1.0, 1.0])[..., None]).sum(axis=1)
    # velocity in the affine chart that pins the relative lift scale
    j = np.argmax(np.abs(x), axis=1)
    vj, wj = (y[np.arange(len(pairs)), j, None] for y in (v, w))
    what = (w * vj - v * wj) / vj**2
    return what[np.arange(3) != j[:, None]].reshape(-1, 2), v, dist


def _arcs(A, C):
    """The ball arcs (mid, half) of `_column_sinusoids` from the norm terms (A, C)."""
    mod2 = 2.0 * np.abs(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(A / mod2, -1.0, 1.0))
    half[A <= -mod2] = math.pi
    half[A > mod2] = math.nan
    return np.arctan2(C.imag, C.real), half  # arg C, as np.angle forms it


def _ratio_critical(num, den):
    """(k, p, q) of num' den - num den' for two sinusoids in (k, p, q) rows:
    the sin^2 and cos^2 terms sum to a constant, and the products sin cos
    cancel, so it is a constant plus one harmonic."""
    num, den = np.asarray(num), np.asarray(den)
    # q1 p0 - p1 q0, q1 k0 - k1 q0, k1 p0 - p1 k0
    return num[[2, 2, 0]] * den[[1, 0, 1]] - num[[1, 0, 1]] * den[[2, 2, 0]]


def _harmonic_roots(k, p, q):
    """The two roots phase +- arccos(-k / R) of k + R cos(sigma - phase) =
    k + p cos(sigma) + q sin(sigma); where it has none, the angles at which
    it comes nearest to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(-k / np.hypot(p, q), -1.0, 1.0))
    phase = np.arctan2(q, p)
    return phase - half, phase + half


def level_g(theta, phi):
    """The symmetric level function cos(theta) + cos(phi) + cos(phi - theta)."""
    return np.cos(theta) + np.cos(phi) + np.cos(phi - theta)


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

