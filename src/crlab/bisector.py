"""Giraud tori of pairs of bisectors, read from the box products of a
table of lifts.

A bisector is the equal-modulus locus |<z,p>| = |<z,q>| cut down to the
closure of the negative cone; its extension to all of CP^2 is the extor,
whose focus is the pole [p box q] of the complex spine.  Two extors E(p,q)
and E(p,r) of equal-norm lifts meet in a Giraud torus when the pair is
unbalanced: neither focus lies in the other extor (the oracle `pair_kinds`
in tests/oracles.py; every pair of the face family is unbalanced at each
alpha2, tests/test_face_family_identities.py).

A torus of lifts (p, q, r) is read from its box products qr = q box r, pr
= p box r and qp = q box p (`core.box_rows`).  Its points are [(q - e^{i
theta} p) box (r - e^{i phi} p)] = qr - e^{-i theta} pr - e^{-i phi} qp;
with theta = sigma + delta and phi = sigma - delta that is qr - e^{-i
sigma} B(delta), B(delta) = e^{-i delta} pr + e^{i delta} qp, so every
form on a delta-column is a sinusoid in sigma.  A torus comes as a row
array R (..., 5, 3) = (pos, neg, qr, pr, qp), with the two coordinate
vectors whose forms are read, and one stage forms the sinusoids of its
columns (`_column_sinusoids`), which `column_forms` evaluates on a (sigma,
delta) grid for the spinal-trace figure, from the pass array of
`verify.FaceFamily`.  `verify` reads no column: TF's margin is the closed
form `family.exclusion_margin` (tests/test_tf_margin_identities.py).
"""

from __future__ import annotations

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
    = <qr, B> of <V, V> = A - 2 Re(e^{-i sigma} C).

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


def level_g(theta, phi):
    """The symmetric level function cos(theta) + cos(phi) + cos(phi - theta)."""
    return np.cos(theta) + np.cos(phi) + np.cos(phi - theta)
