"""The visual sphere of a point: charts, projections and angle bounds.

The visual sphere of [p] is the CP^1 of complex lines through [p].  Two
points p', p'' of the polar line of p give the chart

    psi(q) = <p', q> / <p'', q>,

which depends only on the line through [p] and [q].  Projections of
bisectors based at p are closed disks here; their boundaries are honest
circles in every chart, which the intersection controls below exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GeometryError,
    HVec,
    Location,
    box,
    cross,
    inner,
    locate,
    proj_equal,
    tolerance,
)
from .bisector import Bisector, BisectorKind

INF = complex(math.inf, 0.0)


def ext_div(num: complex, den: complex, tol=1e-12) -> complex:
    """Division on the extended complex plane with a single infinity."""
    if abs(den) <= tol * abs(num):
        if num == 0 and den == 0:
            raise GeometryError("0/0 in extended-complex division")
        return INF
    return num / den


@dataclass(frozen=True)
class VisualChart:
    """A coordinate on the visual sphere of `base` given by two polar points."""

    base: HVec
    p_prime: HVec
    p_dprime: HVec

    def __post_init__(self):
        scale = self.base.length()
        for w in (self.p_prime, self.p_dprime):
            if abs(inner(w, self.base)) > 1e-8 * scale * w.length():
                raise GeometryError("chart points must lie on the polar line of base")
        if box(self.p_prime, self.p_dprime).is_zero(1e-12):
            raise GeometryError("chart points must be distinct")

    def __call__(self, q: HVec) -> complex:
        """Chart coordinate of the line through base and q (q != base)."""
        num = inner(self.p_prime, q)
        den = inner(self.p_dprime, q)
        if num == 0 and den == 0:
            raise GeometryError("chart undefined at its base point")
        return ext_div(num, den)

    def values(self, V: np.ndarray) -> np.ndarray:
        """Vectorized chart on an array of representatives, shape (..., 3)."""
        sp = self.base.space
        num = sp.inner_grid(self.p_prime.v, V)
        den = sp.inner_grid(self.p_dprime.v, V)
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den


def tangency_check(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """Whether the line through [p] and [r] meets the spinal surface of
    (p, q) only at [r].

    Requires equal nonzero norms, a real nonzero <p, q>, and r on the
    spinal surface; then the test is the existence of a sign eps with
    <p,r> = eps <q,r> while <q,p> != eps <p,p>.
    """
    tol = tolerance(tol)
    npp, nq = p.norm(), q.norm()
    scale = p.length() * q.length()
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


def _null_circles(B, J):
    """Null circles of the planes spanned by the row pairs of B (..., 2, 3).

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
    G = B.conj() @ J @ np.swapaxes(B, -1, -2)
    a, d, b = G[..., 0, 0].real, G[..., 1, 1].real, G[..., 0, 1]
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
        v_p = np.stack([np.where(up, g, bn), np.where(up, bc, g)], axis=-1)
        v_m = np.stack([np.where(up, bn, -g), np.where(up, -g, bc)], axis=-1)
        rho = np.sqrt(-lam_m / lam_p)
    scale = 1e-14 * np.maximum(np.abs(lam_m), np.abs(lam_p))
    keep = (lam_m < -scale) & (lam_p > scale)
    em = (v_m[..., None, :] @ B)[..., 0, :]
    ep = (v_p[..., None, :] @ B)[..., 0, :]
    return em, ep, rho, keep


def _polar_basis(poles, J):
    """Orthonormal row pairs (..., 2, 3) spanning the polar lines of poles
    (..., 3).  The polar line of a pole is the Euclidean complement of
    w = J pole; with e the unit vector on the least |w_i|, it is spanned by
    u1 = conj(w x e) and u2 = conj(w x u1), |u1|^2 = |w|^2 - |w_i|^2 and
    |u2| = |w| |u1|, each scaled to norm 1."""
    w = poles @ J.T
    e = np.eye(3)[np.argmin(np.abs(w), axis=-1)]
    u1 = cross(w, e).conj()
    u1 /= np.linalg.norm(u1, axis=-1, keepdims=True)
    u2 = cross(w, u1).conj()
    u2 /= np.linalg.norm(u2, axis=-1, keepdims=True)
    return np.stack([u1, u2], axis=-2)


def _circle_points(em, ep, rho, ts):
    """The points em + rho e^{it} ep at the angles ts."""
    phase = rho * np.exp(1j * np.atleast_1d(ts))
    return em[None, :] + phase[:, None] * ep[None, :]


@dataclass(frozen=True)
class Silhouette:
    """The silhouette circle |z - center| = radius of a bisector in a chart
    of its base point's visual sphere.  eps is the sign of the slice p -
    eps q it comes from; the projected disk is the circle's inside when
    bounded, else its outside; residual is a sampled boundary's largest
    distance from the circle, where one was taken (`project_bisector`)."""

    center: complex
    radius: float
    eps: float
    bounded: bool
    residual: float = 0.0


def silhouette_circles(chart: VisualChart, bisectors, tol=None) -> list[Silhouette]:
    """The silhouette of each bisector from its own base point, the chart's
    base, in closed form; the polar bases and null circles of their slices
    are taken as one batch.

    The lines through [p] tangent to the spinal surface touch it on the
    boundary circle of the slice with pole p - eps q, eps = -sign <p, q>
    (see `tangency_check`), the pole of norm 2(<p,p> + |<p,q>|) > 0.  Each
    line through [p] meets that slice once, and the slice's ball disk lies
    on the bisector, so the projection is the chart image of that disk.
    Its boundary em + rho e^{it} ep goes to (a + b w)/(c + d w), |w| = 1,
    with a, b = <p', em>, rho <p', ep> and c, d = <p'', em>, rho <p'', ep>:
    the circle of centre (a c* - b d*)/(|c|^2 - |d|^2) and radius |ad - bc|
    / ||c|^2 - |d|^2|, the image of |w| < 1 lying inside when |c| > |d|.
    """
    return _silhouettes(chart, bisectors, tolerance(tol))[0]


def _silhouettes(chart: VisualChart, bisectors, tol):
    """`silhouette_circles` with the boundary circles em + rho e^{it} ep of
    the slices, as (silhouettes, em, ep, rho) with one row per bisector."""
    poles, signs = [], []
    for b in bisectors:
        if not proj_equal(chart.base, b.p, 1e-8):
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
    J = chart.base.space.J
    em, ep, rho, _ = _null_circles(_polar_basis(np.array(poles), J), J)
    P = np.stack([chart.p_prime.v, chart.p_dprime.v]).conj() @ J
    sils = []
    for eps, e_m, e_p, r in zip(signs, em, ep, rho):
        (a, bw), (c, d) = P @ np.stack([e_m, r * e_p]).T
        den = abs(c) ** 2 - abs(d) ** 2
        if abs(den) <= tol * (abs(c) ** 2 + abs(d) ** 2):
            raise GeometryError("silhouette passes through the chart's infinity")
        center = (a * c.conjugate() - bw * d.conjugate()) / den
        sils.append(Silhouette(complex(center), float(abs(a * d - bw * c) / abs(den)), eps, bool(den > 0)))
    return sils, em, ep, rho


@dataclass
class DiskProjection:
    """Projection of a bisector based at p onto the visual sphere of [p].

    boundary: sampled boundary polyline in the supplied chart.
    circle: the exact silhouette circle, with the polyline's residual.
    priv_radius: modulus of the boundary in the rotation-invariant chart
    whose 0 and infinity are the lines to [q] and to the focus.
    contains_zero: whether the line to [q] projects inside the disk (true
    exactly when the pair discriminant is negative).
    """

    chart: VisualChart
    boundary: np.ndarray
    boundary_eps: float
    circle: Silhouette
    priv_radius: float | None
    contains_zero: bool


def project_bisector(chart: VisualChart, b: Bisector, n_boundary=1024, tol=None) -> DiskProjection:
    """Silhouette of the bisector from its own base point in a given chart:
    the circle of `silhouette_circles`, sampled at n_boundary points of its
    slice.  Off fans, the privileged chart sees that slice at one modulus."""
    (sil,), em, ep, rho = _silhouettes(chart, [b], tolerance(tol))
    pts = _circle_points(em[0], ep[0], rho[0], np.linspace(0, 2 * math.pi, n_boundary, endpoint=False))
    boundary = chart.values(pts)
    finite = boundary[np.isfinite(boundary)]
    sil = replace(sil, residual=float(np.abs(np.abs(finite - sil.center) - sil.radius).max()))
    priv_radius = None
    if b.kind is not BisectorKind.FAN:
        priv = VisualChart(b.p, b.focus, box(b.p, b.focus))
        mods = np.abs(priv.values(pts))
        if mods.max() - mods.min() > 1e-6 * max(float(mods.mean()), 1.0):
            raise GeometryError("silhouette circle has no constant modulus in the privileged chart")
        priv_radius = float(mods.mean())
    return DiskProjection(
        chart, boundary, sil.eps, sil, priv_radius,
        contains_zero=b.kind is not BisectorKind.FAN and b.r_disc < 0,
    )


def angular_diameter(p: HVec, q: HVec, tol=None) -> float:
    """The real angular diameter of the bisector of (p, q) seen from [p].

    With cosh^2(d/2) = <p,q><q,p> / (<p,p><q,q>) for the hyperbolic
    distance d between the two interior points, the angular radius around
    the axis toward [q] is arccos(tanh(d/4)): the angle function
    sinh(r)(cosh r + cos phi) / (1 + 2 cos phi cosh r + cosh^2 r) on the
    boundary circle (r = d/2) is decreasing in cos phi, so the extreme
    directions sit on the midpoint slice (phi = 0), not at the spine ends
    (which realize tanh(d/2), the *largest* cosine).  The diameter is twice
    the radius by rotational symmetry about the axis.
    """
    tol = tolerance(tol)
    if locate(p, tol) is not Location.INSIDE or locate(q, tol) is not Location.INSIDE:
        raise GeometryError("angular diameter needs two interior points")
    c2 = (abs(inner(p, q)) ** 2) / (p.norm() * q.norm())
    if c2 < 1.0:
        raise GeometryError("inconsistent distance data")
    half_d = math.acosh(math.sqrt(c2))
    return 2.0 * math.acos(math.tanh(half_d / 2.0))

