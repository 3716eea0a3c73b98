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
    """The intersection torus of the coequidistant extors E(p,q), E(p,r).

    Points are [(q - e^{i theta} p) box (r - e^{i phi} p)], expanded as
    qr - e^{-i theta} pr - e^{-i phi} qp in the precomputed box products
    qr = q box r, pr = p box r, qp = q box p.  `vectors` and `point`
    evaluate that expansion at given angles.  With theta = sigma + delta and
    phi = sigma - delta the point is qr - e^{-i sigma} B(delta), so every
    form on a delta-column is a sinusoid in sigma: `ball_arcs` and
    `column_minima` read the ball part of each column in closed form, and
    `column_forms` evaluates the forms on a (sigma, delta) grid.
    """

    def __init__(self, p: HVec, q: HVec, r: HVec, tol=None):
        tol = tolerance(tol)
        self._pair(classify_bisector(p, q, tol), classify_bisector(p, r, tol), tol)

    @classmethod
    def from_bisectors(cls, b1: Bisector, b2: Bisector, tol=None) -> "GiraudTorus":
        """The torus of E(p, q) and E(p, r) from their classified bisectors
        b1 = (p, q) and b2 = (p, r), which are not classified again."""
        if b1.p is not b2.p and not np.array_equal(b1.p.v, b2.p.v):
            raise GeometryError("the bisectors of a torus need a common first lift")
        torus = cls.__new__(cls)
        torus._pair(b1, b2, tolerance(tol))
        return torus

    def _pair(self, b1: Bisector, b2: Bisector, tol):
        kind = classify_pair(b1, b2, tol)
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

    def point(self, theta: float, phi: float) -> HVec:
        return HVec(self.vectors(theta, phi), self.space)

    def delta_rows(self, deltas) -> np.ndarray:
        """B(delta) = e^{-i delta} pr + e^{i delta} qp, shape (len(deltas), 3):
        with theta = sigma + delta and phi = sigma - delta the torus point is
        qr - e^{-i sigma} B(delta)."""
        e = np.exp(-1j * np.asarray(deltas))[:, None]
        return e * self.pr + e.conj() * self.qp

    def norm_terms(self, deltas):
        """(A, C) with <V, V> = A - 2 Re(e^{-i sigma} C) at (sigma, delta):
        A = <qr, qr> + <B, B> is real and C = <qr, B>, one value per delta."""
        return self._norm_terms(self.delta_rows(deltas))

    def _norm_terms(self, B):
        sp = self.space
        return sp.norm_grid(self.qr) + sp.norm_grid(B), sp.inner_grid(self.qr, B)

    def ball_arcs(self, deltas):
        """(mid, half) per delta-column: the form <V, V> = A - 2 |C|
        cos(sigma - arg C) is <= 0 exactly on the arc mid +- half, mid =
        arg C and half = arccos(A / 2|C|).  half is pi where the whole column
        is in the ball (A <= -2|C|, which covers C = 0 with A <= 0) and nan
        where no point is (A > 2|C|)."""
        return _arcs(*self.norm_terms(deltas))

    def column_minima(self, deltas, pos, neg, ball: bool = True) -> np.ndarray:
        """Per delta-column, the exact minimum over sigma of E / |V|^2 with
        E = |<pos, V>|^2 - |<neg, V>|^2, for coordinate vectors pos and neg:
        over the column's ball arc (`ball_arcs`), or over the whole column
        when ball is False; inf where the arc is empty.

        In a column E and |V|^2 are sinusoids k + p cos(sigma) + q sin(sigma)
        (`_column_rows`).  On the arc the minimum of the ratio sits at an arc
        end or where E' |V|^2 - E (|V|^2)' vanishes, a constant plus one
        harmonic with closed-form roots, so no sigma is sampled.  A candidate
        that is no root (`_harmonic_roots`) is still a point of the arc, so
        it cannot take the minimum below the true one.  On the face-family
        tori through alpha2 = 1.56 the values agree with a 40-digit
        evaluation of the same points to about 2e-11 relative."""
        deltas = np.asarray(deltas, dtype=float)
        B = self.delta_rows(deltas)
        den, (top, low) = self._column_rows(B, [pos, neg])
        num = [a - b for a, b in zip(top, low)]
        if ball:
            mid, half = _arcs(*self._norm_terms(B))
        else:
            mid, half = np.zeros(len(deltas)), np.full(len(deltas), math.pi)
        # offsets from mid: the arc ends, then both roots in (-pi, pi]
        roots = _harmonic_roots(*_ratio_critical(num, den))
        t = np.array([-half, half] + [math.pi - np.remainder(math.pi + mid - r, 2 * math.pi) for r in roots])
        sigma = mid + t
        cos, sin = np.cos(sigma), np.sin(sigma)
        (k1, p1, q1), (k0, p0, q0) = num, den
        ratio = (k1 + p1 * cos + q1 * sin) / (k0 + p0 * cos + q0 * sin)
        return np.where(np.abs(t) <= half, ratio, math.inf).min(axis=0)

    def column_forms(self, sigmas, deltas, ws) -> list:
        """[<V, V> / |V|^2, then |<w, V>|^2 / |V|^2 for each coordinate
        vector w], each of shape (len(sigmas), len(deltas)): on every
        delta-column each form is a sinusoid k + p cos(sigma) + q sin(sigma)
        (`norm_terms`, `_column_rows`), so no torus point is formed.  |V|^2
        is the plain sinusoid, which cancels near its column minimum: on the
        face-family torus at alpha2 = 1.56 the ratios agree with a 40-digit
        evaluation of the same points to about 6e-12 of the grid's largest
        value, and to 1e-15 at alpha2 = 0.7."""
        B = self.delta_rows(deltas)
        den, abs2 = self._column_rows(B, ws)
        cos, sin = np.cos(sigmas)[:, None], np.sin(sigmas)[:, None]
        sq, *forms = [k + p * cos + q * sin for k, p, q in [den, _harmonic(*self._norm_terms(B)), *abs2]]
        return [f / sq for f in forms]

    def _column_rows(self, B, ws):
        """Per delta-column rows (k, p, q) of |V|^2 and of each |<w, V>|^2 =
        |<w, qr> - e^{-i sigma} <w, B_d>|^2, as sinusoids in sigma, for the
        rows B of `delta_rows`."""
        den = _harmonic(*_abs2_terms(self.qr, B))
        # <w, V> = V @ f, f = w^H J as in `HermitianSpace.inner_grid`: f is
        # formed once for both qr and B
        fs = [w.conj() @ self.space.J for w in ws]
        return den, [_harmonic(*_abs2_terms((self.qr @ f)[None], (B @ f)[:, None])) for f in fs]


def _arcs(A, C):
    """`GiraudTorus.ball_arcs` from the norm terms (A, C) of the columns."""
    mod2 = 2.0 * np.abs(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(A / mod2, -1.0, 1.0))
    half[A <= -mod2] = math.pi
    half[A > mod2] = math.nan
    return np.angle(C), half


def _abs2_terms(u: np.ndarray, v: np.ndarray):
    """(A, C) with |u - z v_d|^2 = A_d - 2 Re(z C_d) for |z| = 1, where u has
    shape (k,) and v shape (len(deltas), k): A = |u|^2 + |v_d|^2, C = u^H v_d."""
    return np.vdot(u, u).real + (v.real**2 + v.imag**2).sum(axis=1), v @ u.conj()


def _harmonic(A, C) -> tuple:
    """The sinusoid A - 2 Re(e^{-i sigma} C) as the rows (k, p, q) of k +
    p cos(sigma) + q sin(sigma)."""
    return A, -2.0 * C.real, -2.0 * C.imag


def _ratio_critical(num, den):
    """(k, p, q) of num' den - num den' for two sinusoids in (k, p, q) rows:
    the sin^2 and cos^2 terms sum to a constant, and the products sin cos
    cancel, so it is a constant plus one harmonic."""
    (k1, p1, q1), (k0, p0, q0) = num, den
    return q1 * p0 - p1 * q0, q1 * k0 - k1 * q0, k1 * p0 - p1 * k0


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

