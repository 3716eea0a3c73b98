"""Hermitian linear algebra on C^3 with a signature (2,1) form.

Points of the complex hyperbolic plane and its boundary are carried as
homogeneous 3-vectors together with the Hermitian form that evaluates them.
The sesquilinear convention throughout is

    <u, v> = u^H J v

(conjugate-linear in the first slot, linear in the second).  All derived
formulas in the other modules assume this convention; tests flag any
identity that only holds after a conjugation swap.

Every Hermitian product is a fixed-order elementwise sum, `sesquilinear`
(`HermitianSpace.form` on the terms of J): no BLAS routine forms a number,
and a row has its bits in any array.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

# the tolerance rule lives in the numpy-free `scalar`; its names are read here too
from .scalar import DEFAULT_TOL, GeometryError, tolerance

EUCLIDEAN = ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0))


class Model(enum.Enum):
    BALL = "ball"
    SIEGEL = "siegel"
    CUSTOM = "custom"


def cross(a, b):
    """Bilinear cross product a x b (no conjugation) of (..., 3) arrays."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def sesquilinear(X, Y, terms=EUCLIDEAN):
    """The sum of conj(X_i) c Y_j over the terms (i, j, c), left to right, of
    arrays of shape (..., 3) broadcast against each other, shape (...): a
    unit c multiplies nothing, any other is taken as (conj(X_i) c) Y_j.  The
    default terms give the Euclidean product sum conj(X_i) Y_i."""
    Xc, total = np.conj(X), None
    for i, j, c in terms:
        t = Xc[..., i] * Y[..., j] if c == 1.0 else Xc[..., i] * c * Y[..., j]
        total = t if total is None else total + t
    return total


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _adjugate_and_signature(J):
    """adj(J), det J and the signature (pos, neg) of a Hermitian 3x3 J.

    The columns of adj(J) are cross products of the rows of J.  The
    characteristic polynomial x^3 - c1 x^2 + c2 x - c3 has c1 = tr J,
    c2 = tr adj(J) (the principal 2x2 minors) and c3 = det J; its roots are
    real, so Descartes' rule of signs counts them exactly: the positive ones
    on (1, -c1, c2, -c3), the negative ones on (1, c1, c2, c3).
    """
    adj = cross(J[[1, 2, 0]], J[[2, 0, 1]]).T
    det = (J[0, 0] * adj[0, 0] + J[0, 1] * adj[1, 0] + J[0, 2] * adj[2, 0]).real
    c1, c2 = np.trace(J).real, np.trace(adj).real
    return adj, det, (_sign_changes((1.0, -c1, c2, -det)), _sign_changes((1.0, c1, c2, det)))


@dataclass(frozen=True)
class HermitianSpace:
    """A Hermitian form of signature (2,1) on C^3.

    The signature is read off the characteristic polynomial and J_inv is
    adj(J) / det J, both in closed form (`_adjugate_and_signature`); terms
    are the nonzero entries (i, j, J_ij) of J in row order."""

    J: np.ndarray
    model_tag: Model = Model.CUSTOM
    J_inv: np.ndarray = field(init=False, repr=False, compare=False)
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        J = np.asarray(self.J, dtype=complex)
        if J.shape != (3, 3):
            raise GeometryError("form matrix must be 3x3")
        if np.abs(J - J.conj().T).max() > 1e-12:
            raise GeometryError("form matrix must be Hermitian")
        adj, det, signature = _adjugate_and_signature(J)
        if signature != (2, 1):
            raise GeometryError("form must have signature (2,1)")
        J.setflags(write=False)
        object.__setattr__(self, "J", J)
        J_inv = adj / det
        J_inv.setflags(write=False)
        object.__setattr__(self, "J_inv", J_inv)
        terms = tuple((i, j, complex(J[i, j])) for i in range(3) for j in range(3) if J[i, j] != 0)
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if not isinstance(other, HermitianSpace):
            return NotImplemented
        return self.model_tag == other.model_tag and np.array_equal(self.J, other.J)

    def __hash__(self):
        return hash((self.model_tag, self.J.tobytes()))

    def form(self, X, Y):
        """<X, Y> of arrays of shape (..., 3) broadcast against each other:
        `sesquilinear` on the terms of J (three products and two sums)."""
        return sesquilinear(X, Y, self.terms)


@functools.cache
def siegel_model() -> HermitianSpace:
    """The Siegel form, built and checked once per process: the instance is
    shared, and both J and J_inv are read-only."""
    J = np.zeros((3, 3), dtype=complex)
    J[0, 2] = J[1, 1] = J[2, 0] = 1.0
    return HermitianSpace(J, Model.SIEGEL)


@dataclass(frozen=True)
class HVec:
    """A vector of C^3 interpreted in a fixed Hermitian space.

    A nonzero HVec doubles as a homogeneous representative of a point of
    CP^2.  It is the per-object form of a row of the program's point
    tables, kept for the eigendata of `isometry` and the tests.
    """

    v: np.ndarray
    space: HermitianSpace

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(3)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def norm(self) -> float:
        """Real value of <v, v>."""
        return inner(self, self).real


def inner(u: HVec, v: HVec) -> complex:
    """<u, v> = u^H J v; conjugate-symmetric: inner(u,v) = conj(inner(v,u))."""
    # identity first: comparing the forms runs np.array_equal on J
    if u.space is not v.space and u.space != v.space:
        raise GeometryError("operands live in different Hermitian spaces")
    return complex(u.space.form(u.v, v.v))
