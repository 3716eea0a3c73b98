"""The visual sphere of a point: charts and the projections of bisectors.

The visual sphere of [p] is the CP^1 of complex lines through [p].  Two
points p', p'' of the polar line of p give the chart

    psi(q) = <p', q> / <p'', q>,

which depends only on the line through [p] and [q].  Projections of
bisectors based at p are closed disks here; their boundaries are honest
circles in every chart, which the intersection controls below exploit.
The decisions read a Gram table of lifts, and the silhouettes of a
family of bisectors are one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GeometryError, HermitianSpace, apply, cross

INF = complex(math.inf, 0.0)
_EYE3 = np.eye(3)


def ext_div(num: complex, den: complex, tol=1e-12) -> complex:
    """Division on the extended complex plane with a single infinity."""
    if abs(den) <= tol * abs(num):
        if num == 0 and den == 0:
            raise GeometryError("0/0 in extended-complex division")
        return INF
    return num / den


@dataclass(frozen=True, eq=False)
class VisualChart:
    """A coordinate on the visual sphere of `base` given by two polar
    points, each a coordinate vector of `space`."""

    base: np.ndarray
    p_prime: np.ndarray
    p_dprime: np.ndarray
    space: HermitianSpace

    def __post_init__(self):
        X = np.array([self.base, self.p_prime, self.p_dprime])
        L = np.linalg.norm(X, axis=1)
        if (np.abs(self.space.inner_grid(X[1:], X[0])) > 1e-8 * L[0] * L[1:]).any():
            raise GeometryError("chart points must lie on the polar line of base")
        if np.abs(cross(X[1], X[2])).max() <= 1e-12:
            raise GeometryError("chart points must be distinct")

    def __call__(self, q) -> complex:
        """Chart coordinate, on the extended plane, of the line through base
        and the coordinate vector q (q != base)."""
        num, den = (complex(self.space.form(w, q)) for w in (self.p_prime, self.p_dprime))
        if num == 0 and den == 0:
            raise GeometryError("chart undefined at its base point")
        return ext_div(num, den)

    def values(self, V: np.ndarray) -> np.ndarray:
        """Vectorized chart on an array of representatives, shape (..., 3)."""
        num, den = (self.space.form(w, V) for w in (self.p_prime, self.p_dprime))
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den


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
    w = apply(space.J, poles)
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


def silhouette_circles(chart: VisualChart, Q, pq, scale, tol):
    """(silhouettes, (em, ep, rho)): the silhouette of each bisector of the
    chart's base p with a row of Q, shape (k, 3), given pq = <p, Q_i> and
    the scales |p| |Q_i|, seen from p in closed form, and the boundary
    circles em + rho e^{it} ep of their slices, one row per bisector; the
    polar bases and null circles of the slices are taken as one batch.

    The lines through [p] tangent to the spinal surface touch it on the
    boundary circle of the slice with pole p - eps q, eps = -sign <p, q>
    (a line through [p] and [r] touches it at [r] alone when <p, r> = eps
    <q, r> while <q, p> != eps <p, p>: the oracle `tangencies` in
    tests/oracles.py), the pole of norm 2(<p,p> + |<p,q>|) > 0.  Each
    line through [p] meets that slice once, and the slice's ball disk lies
    on the bisector, so the projection is the chart image of that disk.
    Its boundary em + rho e^{it} ep goes to (a + b w)/(c + d w), |w| = 1,
    with a, b = <p', em>, rho <p', ep> and c, d = <p'', em>, rho <p'', ep>:
    the circle of centre (a c* - b d*)/(|c|^2 - |d|^2) and radius |ad - bc|
    / ||c|^2 - |d|^2|, the image of |w| < 1 lying inside when |c| > |d|.
    """
    gates = [1e3 * tol * max(x, 1.0) for x in scale]
    if any(abs(z.imag) > g or abs(z) <= tol * x for z, g, x in zip(pq.tolist(), gates, scale)):
        raise GeometryError("silhouette circle needs a real nonzero <p, q>")
    eps = -np.sign(pq.real)
    poles = chart.base - eps[:, None] * Q
    if any(n <= g for n, g in zip(chart.space.norm_grid(poles).tolist(), gates)):
        raise GeometryError("silhouette slice has a pole of norm <= 0")
    em, ep, rho, _ = _null_circles(_polar_basis(poles, chart.space), chart.space)
    # a, b = <p', em>, rho <p', ep> and c, d = <p'', em>, rho <p'', ep>, per bisector
    X, Y = np.stack([chart.p_prime, chart.p_dprime]), np.stack([em, rho[:, None] * ep], axis=1)
    abcd = chart.space.form(X[:, None], Y[:, None])
    sils = []
    for e, ((a, bw), (c, d)) in zip(eps.tolist(), abcd):
        den = abs(c) ** 2 - abs(d) ** 2
        if abs(den) <= tol * (abs(c) ** 2 + abs(d) ** 2):
            raise GeometryError("silhouette passes through the chart's infinity")
        center = (a * c.conjugate() - bw * d.conjugate()) / den
        sils.append(Silhouette(complex(center), float(abs(a * d - bw * c) / abs(den)), e, bool(den > 0)))
    return sils, (em, ep, rho)
