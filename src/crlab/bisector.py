"""Bisectors, extors, their pairs and parametrized intersections, decided
on tables of lifts.

A bisector is the equal-modulus locus |<z,p>| = |<z,q>| cut down to the
closure of the negative cone; its extension to all of CP^2 is the extor.
The Gram determinant r = <p,p><q,q> - <p,q><q,p> of equal-norm lifts sorts
the locus into a metric bisector (r < 0), a fan (r = 0), or a Clifford
cone (r > 0); the focus is always the pole [p box q] of the complex spine.
Every decision here reads a Gram table G[i, j] = <x_i, x_j> of a table of
lifts, or the box products of its rows (`core.box_rows`), so that a whole
family of bisectors is one array evaluation.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math

import numpy as np

from .core import GeometryError, sesquilinear


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


def _proj_distances(a, b) -> np.ndarray:
    """Row by row, the distance of the unit representatives of a and b at
    optimal phase: a less its projection on b."""
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    return np.linalg.norm(a - sesquilinear(b, a)[..., None] * b, axis=-1)


class GiraudTorus:
    """The intersection torus of the coequidistant extors E(p,q), E(p,r) of
    an unbalanced pair (`pair_kinds`), from its lifts and box products.

    Points are [(q - e^{i theta} p) box (r - e^{i phi} p)], expanded as
    qr - e^{-i theta} pr - e^{-i phi} qp in the box products qr = q box r,
    pr = p box r, qp = q box p.  With theta = sigma + delta and phi =
    sigma - delta the point is qr - e^{-i sigma} B(delta), B(delta) =
    e^{-i delta} pr + e^{i delta} qp, so every form on a delta-column is a
    sinusoid in sigma, formed by `_column_sinusoids`
    alone: `column_minima` reads the ball part of each column in closed
    form for verify, and `column_forms` evaluates the forms on a (sigma,
    delta) grid for the figures.
    """

    def __init__(self, lifts, rows, space):
        """The torus of the lifts (p, q, r), coordinate vectors of `space`,
        with the box products rows = (q box r, p box r, q box p)."""
        self.p, self.q, self.r = lifts
        self.qr, self.pr, self.qp = rows
        self.space = space

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
    shape (3, 3, columns); the terms A = <qr, qr> + <B, B> and C = <qr, B>
    of <V, V> = A - 2 Re(e^{-i sigma} C); and the ball arc (mid, half) of
    `_arcs`, or the whole column (0, pi) for a block whose ball is False.

    Every product is a `core.sesquilinear` sum, elementwise on the whole
    stack, so a column has the same bits in any stack."""
    sizes, space = [len(b[1]) for b in blocks], blocks[0][0].space
    R = np.array([(w1, w2, t.qr, t.pr, t.qp) for t, _, w1, w2, _ in blocks])
    # per block <pos, qr>, <neg, qr>, <qr, qr> and |qr|^2, then per column
    # its block's values and its block's rows pos, neg, qr, pr, qp
    per_block = np.concatenate([space.form(R[:, :3], R[:, 2, None]), sesquilinear(R[:, 2], R[:, 2])[:, None]], axis=1)
    up, un, nq, eq = np.repeat(per_block.T, sizes, axis=1)
    X, (pr, qp) = (np.repeat(R[:, i].transpose(1, 0, 2), sizes, axis=1) for i in (slice(3), slice(3, 5)))
    e = np.exp(-1j * np.concatenate([b[1] for b in blocks]))[:, None]
    B = e * pr + e.conj() * qp
    fp, fn, C = space.form(X, B)
    A = nq.real + space.form(B, B).real
    sq = np.array([fp, fn, up, un])
    sq = sq.real**2 + sq.imag**2
    k = [eq.real + sesquilinear(B, B).real, sq[0] + sq[2], sq[1] + sq[3]]
    cross = np.array([sesquilinear(X[2], B), fp * up.conj(), fn * un.conj()])
    kpq = np.array([k, -2.0 * cross.real, -2.0 * cross.imag])
    mid, half = _arcs(A, C)
    in_ball = np.repeat([b[4] for b in blocks], sizes)
    return kpq, (A, C), (np.where(in_ball, mid, 0.0), np.where(in_ball, half, math.pi))


def column_minima(blocks) -> tuple:
    """(minima, mid, half) per column of the stacked blocks (torus, deltas,
    pos, neg, ball) of `_column_sinusoids`: the exact minimum over sigma of
    E / |V|^2, E = |<pos, V>|^2 - |<neg, V>|^2, over the column's ball arc
    mid +- half (mid = arg C, half = arccos(A / 2|C|) for <V, V> = A - 2|C|
    cos(sigma - arg C); pi where the whole column is in the ball, nan where
    no point is), or over the whole column (0 +- pi) for a block whose ball
    is False; inf where the arc is empty.

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
    W = np.array([x for torus, _ in pairs for x in (torus.p, torus.q, torus.r)])
    G = pairs[0][0].space.inner_grid(W, np.array([t for _, t in pairs])).tolist()
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
    delta_v); a vertex's residual is its projective distance to the nearer
    end of the delta_v arc.  One `column_minima` call reads these columns,
    each delta_v column as a block alone, and `blocks`.  Exact in sigma,
    sampled in delta."""
    k, (offsets, sin2) = len(passes), _offsets(m)
    dvs = np.array([((th - ph) / 2.0) % math.pi for th, ph in vertex_angles([(t, v[0]) for t, _, v in passes])])
    # the passes' columns, then each delta_v column alone, then `blocks`
    cols = [(t, d, t.p, neg, True) for ds in (dvs[:, None] + offsets, dvs[:, None]) for (t, neg, _), d in zip(passes, ds)]
    minima, mid, half = column_minima(cols + blocks)
    margins = (minima[: k * m].reshape(k, m) / sin2).min(axis=1)
    mid, half = mid[k * m : k * m + k, None], half[k * m : k * m + k, None]
    s, dv = mid + half * np.array([-1.0, 1.0]), dvs[:, None]
    # per pass the torus points qr - e^{-i theta} pr - e^{-i phi} qp at the two
    # arc ends, and their distances [pass, vertex, end] to the two vertices
    R = np.array([(t.qr, t.pr, t.qp) for t, _, _ in passes])
    ends = R[:, None, 0] - np.exp(-1j * (s + dv))[..., None] * R[:, None, 1] - np.exp(-1j * (s - dv))[..., None] * R[:, None, 2]
    dist = _proj_distances(ends[:, None], np.array([vs for _, _, vs in passes])[:, :, None])
    resids = np.where(np.isnan(half), math.inf, dist.min(axis=-1))
    return [(float(a), r) for a, r in zip(margins, resids.tolist())], minima[k * m + k :]


@functools.cache
def _offsets(m: int):
    """The column offsets (k + 1/2) pi / m of `torus_exclusion` and their
    sin^2, formed once per m."""
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    return offsets, np.sin(offsets) ** 2


def giraud_circle_tangents(pairs):
    """Affine-chart velocities, shape (k, 2), of the Giraud circles of the k
    (torus, vertex) pairs at their vertices, with the torus points V (k, 3)
    at `vertex_angles` and their projective distances (unit representatives
    at optimal phase) to the vertices, as one array evaluation."""
    R = np.array([(t.qr, t.pr, t.qp) for t, _ in pairs])
    PQ = np.exp(-1j * np.array(vertex_angles(pairs)))[..., None] * R[:, 1:]
    # the torus point qr - e^{-i theta} pr - e^{-i phi} qp and its theta and
    # phi derivatives
    v, dv = R[:, 0] - PQ[:, 0] - PQ[:, 1], 1j * PQ
    x = np.array([t for _, t in pairs])
    g = 2.0 * pairs[0][0].space.form(v[:, None], dv).real
    # curve tangent in parameter space is orthogonal to the norm gradient
    w = (dv * (g[:, ::-1] * [-1.0, 1.0])[..., None]).sum(axis=1)
    # velocity in the affine chart that pins the relative lift scale
    j = np.argmax(np.abs(x), axis=1)
    vj, wj = (y[np.arange(len(pairs)), j, None] for y in (v, w))
    what = (w * vj - v * wj) / vj**2
    return what[np.arange(3) != j[:, None]].reshape(-1, 2), v, _proj_distances(v, x)


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


def symmetric_kinds(boxes, space, tol) -> tuple[list, list]:
    """(u, kinds) of the intersections B(p,q) /\\ B(p,r) of order-3
    symmetric triples, decided by u = <pxq, pxq> / <pxq, qxr> against 2/3,
    from the box products (p box q, q box r, r box p) of each triple, shape
    (m, 3, 3), and their Gram blocks, one form.  Raises GeometryError for
    a triple that is not order-3 symmetric, or whose mixed product is not
    real negative."""
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
