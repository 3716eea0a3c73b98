"""Giraud tori of pairs of bisectors, read from the box products of a
table of lifts.

A bisector is the equal-modulus locus |<z,p>| = |<z,q>| cut down to the
closure of the negative cone; its extension to all of CP^2 is the extor,
whose focus is the pole [p box q] of the complex spine.  Two extors E(p,q)
and E(p,r) of equal-norm lifts meet in a Giraud torus when the pair is
unbalanced: neither focus lies in the other extor (the oracle `pair_kinds`
in tests/oracles.py; every pair verify reads is unbalanced at each alpha2,
tests/test_face_family_identities.py).

A torus of lifts (p, q, r) is read from its box products qr = q box r, pr
= p box r and qp = q box p (`core.box_rows`).  Its points are [(q - e^{i
theta} p) box (r - e^{i phi} p)] = qr - e^{-i theta} pr - e^{-i phi} qp;
with theta = sigma + delta and phi = sigma - delta that is qr - e^{-i
sigma} B(delta), B(delta) = e^{-i delta} pr + e^{i delta} qp, so every
form on a delta-column is a sinusoid in sigma.  A torus comes as a row
array R (..., 5, 3) = (pos, neg, qr, pr, qp), with the two coordinate
vectors whose forms are read, and one stage forms the sinusoids of its
columns (`_column_sinusoids`): `column_minima` reads each column's ball
part in closed form for verify, and `column_forms` evaluates the forms on
a (sigma, delta) grid for the spinal-trace figure, both from the pass
array of `verify.FaceFamily`; a whole family of tori is one evaluation.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import sesquilinear


def column_forms(R, sigmas, deltas, space) -> list:
    """[<V, V>, |<pos, V>|^2, |<neg, V>|^2], each over |V|^2 and of shape
    (..., len(sigmas), len(deltas)), on the (sigma, delta) grid of the tori
    of the row arrays R (..., 5, 3) = (pos, neg, qr, pr, qp) of
    `_column_sinusoids`: its sinusoids evaluated at each sigma, so no torus
    point is formed.  |V|^2 is the plain sinusoid, which cancels near its
    column minimum: on the face-family torus at alpha2 = 1.56 the ratios
    agree with a 40-digit evaluation of the same points to about 6e-12 of
    the grid's largest value, and to 1e-15 at alpha2 = 0.7."""
    kpq, (A, C) = _column_sinusoids(R, deltas, space)
    cos, sin = np.cos(sigmas)[:, None], np.sin(sigmas)[:, None]
    rows = [kpq[:, 0], (A, -2.0 * C.real, -2.0 * C.imag), kpq[:, 1], kpq[:, 2]]
    sq, *forms = [k[..., None, :] + p[..., None, :] * cos + q[..., None, :] * sin for k, p, q in rows]
    return [f / sq for f in forms]


def _column_sinusoids(R, deltas, space) -> tuple:
    """The one stage that forms a torus column's sinusoids in sigma, for row
    arrays R (..., 5, 3) = (pos, neg, qr, pr, qp) of tori in `space`, with
    coordinate vectors pos and neg, and delta-columns deltas (..., m) that
    broadcast against the leading axes of R: per column the rows (k, p, q)
    of k + p cos(sigma) + q sin(sigma) for |V|^2, |<pos, V>|^2 and |<neg,
    V>|^2, shape (3, 3, ..., m); and the terms A = <qr, qr> + <B, B> and C
    = <qr, B> of <V, V> = A - 2 Re(e^{-i sigma} C), from which `_arcs` takes
    the ball arc.

    Every product is a `core.sesquilinear` sum, elementwise on the whole
    broadcast, so a column has the same bits in any stack: the products
    with qr are formed once per row array, those with B(delta) per column."""
    pos, neg, qr, pr, qp = np.moveaxis(np.asarray(R)[..., None, :, :], -2, 0)
    up, un, nq = (space.form(x, qr) for x in (pos, neg, qr))
    e = np.exp(-1j * np.asarray(deltas))[..., None]
    B = e * pr + e.conj() * qp
    fp, fn, C = (space.form(x, B) for x in (pos, neg, qr))
    A = nq.real + space.form(B, B).real
    sq = [z.real**2 + z.imag**2 for z in (fp, fn, up, un)]
    k = [sesquilinear(qr, qr).real + sesquilinear(B, B).real, sq[0] + sq[2], sq[1] + sq[3]]
    cross = np.array([sesquilinear(qr, B), fp * up.conj(), fn * un.conj()])
    return np.array([k, -2.0 * cross.real, -2.0 * cross.imag]), (A, C)


def column_minima(R, deltas, space) -> tuple:
    """(minima, mid, half), each of shape (..., m), per column of the row
    arrays R (..., 5, 3) = (pos, neg, qr, pr, qp) and delta-columns (...,
    m) of `_column_sinusoids`: the exact minimum over sigma of E / |V|^2, E
    = |<pos, V>|^2 - |<neg, V>|^2, over the column's ball arc mid +- half
    (mid = arg C, half = arccos(A / 2|C|) for <V, V> = A - 2|C| cos(sigma -
    arg C); pi where the whole column is in the ball, nan where no point
    is); inf where the arc is empty.

    On the arc the minimum of the ratio sits at an arc end or where E' |V|^2
    - E (|V|^2)' vanishes, a constant plus one harmonic with closed-form
    roots, so no sigma is sampled.  A candidate that is no root
    (`_harmonic_roots`) is still a point of the arc, so it cannot take the
    minimum below the true one.  On the face-family tori through alpha2 =
    1.56 the values agree with a 40-digit evaluation of the same points to
    about 2e-11 relative."""
    kpq, (A, C) = _column_sinusoids(R, deltas, space)
    mid, half = _arcs(A, C)
    # a column with an empty arc reads inf; the others are evaluated
    live = ~np.isnan(half)
    kpq, lmid, lhalf = kpq[:, :, live], mid[live], half[live]
    sines = np.array([kpq[:, 1] - kpq[:, 2], kpq[:, 0]])  # E and |V|^2
    # offsets from mid: the arc ends, then both roots in (-pi, pi]
    roots = np.array(_harmonic_roots(*_ratio_critical(*sines)))
    t = np.concatenate([[-lhalf, lhalf], math.pi - np.remainder(math.pi + lmid - roots, 2 * math.pi)])
    sigma = lmid + t
    top, bottom = sines[:, 0, None] + sines[:, 1, None] * np.cos(sigma) + sines[:, 2, None] * np.sin(sigma)
    minima = np.full(half.shape, math.inf)
    minima[live] = np.where(np.abs(t) <= lhalf, top / bottom, math.inf).min(axis=0)
    return minima, mid, half


def torus_exclusion(R, dv: float, m: int, space) -> list[float]:
    """The margin of each pass of the row arrays R (..., 5, 3) = (p, neg,
    qr, pr, qp) of `_column_sinusoids`: a pass is the claim that on the
    ball part of its torus |<z, p>| <= |<z, neg>|, p the torus's own first
    lift, holds only at its two vertices.  Both vertices are the ends of the
    ball arc of the delta-column dv (`family.delta_v`), where the contact is
    of second order.  The margin is the exact minimum of |<p, z>|^2 -
    |<neg, z>|^2, z unit, on the arcs of the m columns dv + (k + 1/2) pi /
    m, over sin^2(delta - dv); inf where no column meets the ball.  One
    `column_minima` call reads every pass.  Exact in sigma, sampled in
    delta."""
    offsets, sin2 = _offsets(m)
    minima, _, _ = column_minima(R, dv + offsets, space)
    return (minima / sin2).min(axis=-1).tolist()


@functools.cache
def _offsets(m: int):
    """The column offsets (k + 1/2) pi / m of `torus_exclusion` and their
    sin^2, formed once per m."""
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    return offsets, np.sin(offsets) ** 2


def _arcs(A, C):
    """The ball arcs (mid, half) of `column_minima` from the terms (A, C)."""
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
