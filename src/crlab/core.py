"""Hermitian linear algebra on C^3 with a signature (2,1) form.

Points of the complex hyperbolic plane and its boundary are carried as
homogeneous 3-vectors together with the Hermitian form that evaluates them.
The sesquilinear convention throughout is

    <u, v> = u^H J v

(conjugate-linear in the first slot, linear in the second).  All derived
formulas in the other modules assume this convention; tests flag any
identity that only holds after a conjugation swap.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-9
PROJ_EQ_TOL = 1e-8


def tolerance(tol=None):
    """Resolve a tolerance: explicit argument > CRLAB_TOL env var > default."""
    if tol is not None:
        return float(tol)
    env = os.environ.get("CRLAB_TOL")
    if env:
        return float(env)
    return DEFAULT_TOL


class Model(enum.Enum):
    BALL = "ball"
    SIEGEL = "siegel"
    CUSTOM = "custom"


class Location(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class GeometryError(ValueError):
    """Raised when an operation's geometric preconditions fail."""


def cross(a, b):
    """Bilinear cross product a x b (no conjugation) of (..., 3) arrays."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


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
    det = (J[0] @ adj[:, 0]).real
    c1, c2 = np.trace(J).real, np.trace(adj).real
    return adj, det, (_sign_changes((1.0, -c1, c2, -det)), _sign_changes((1.0, c1, c2, det)))


@dataclass(frozen=True)
class HermitianSpace:
    """A Hermitian form of signature (2,1) on C^3.

    The signature is read off the characteristic polynomial and J_inv is
    adj(J) / det J, both in closed form (`_adjugate_and_signature`)."""

    J: np.ndarray
    model_tag: Model = Model.CUSTOM
    J_inv: np.ndarray = field(init=False, repr=False, compare=False)

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

    def __eq__(self, other):
        if not isinstance(other, HermitianSpace):
            return NotImplemented
        return self.model_tag == other.model_tag and np.array_equal(self.J, other.J)

    def __hash__(self):
        return hash((self.model_tag, self.J.tobytes()))

    def inner_grid(self, w: np.ndarray, V: np.ndarray) -> np.ndarray:
        """<w, V_i> for every row V_i of V, shape (..., 3) -> (...): the
        functional w^H J is formed once and applied by one matmul.  For k
        rows w_j, shape (k, 3), it is the Gram array <w_j, V_i> of shape
        (..., k)."""
        return V @ (w.conj() @ self.J).T

    def norm_grid(self, V: np.ndarray) -> np.ndarray:
        """<V_i, V_i> (real) for every row V_i of V, shape (..., 3) -> (...).

        Summed as V_i . conj(J V_i), whose real part is the norm, so only
        one grid-sized temporary is allocated."""
        JV = V @ self.J.T
        return np.einsum("...k,...k->...", V, np.conjugate(JV, out=JV)).real


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
    CP^2; `locate` classifies the point against the null cone.
    """

    v: np.ndarray
    space: HermitianSpace

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(3)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    def is_zero(self, tol=1e-14) -> bool:
        return bool(np.abs(self.v).max() <= tol)

    def norm(self) -> float:
        """Real value of <v, v>."""
        return inner(self, self).real

    def length(self) -> float:
        """Euclidean length |v| of the representative."""
        return _length(self.v)


def _length(v: np.ndarray) -> float:
    """Euclidean length of a complex vector, summed as np.linalg.norm sums
    it, to the same bits."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _check_same_space(u: HVec, v: HVec):
    # identity first: comparing the forms runs np.array_equal on J
    if u.space is not v.space and u.space != v.space:
        raise GeometryError("operands live in different Hermitian spaces")


def inner(u: HVec, v: HVec) -> complex:
    """<u, v> = u^H J v; conjugate-symmetric: inner(u,v) = conj(inner(v,u))."""
    _check_same_space(u, v)
    return complex(np.vdot(u.v, u.space.J @ v.v))


def box(u: HVec, v: HVec) -> HVec:
    """Hermitian cross product: the unique s with <s, r> = det(u, v, r).

    Computed as J^{-1} conj(u x v); for the ball and Siegel forms this
    reduces to the usual coordinate formulas.  Collinear inputs give the
    zero vector.
    """
    _check_same_space(u, v)
    cross = np.array(
        [
            u.v[1] * v.v[2] - u.v[2] * v.v[1],
            u.v[2] * v.v[0] - u.v[0] * v.v[2],
            u.v[0] * v.v[1] - u.v[1] * v.v[0],
        ]
    )
    return HVec(u.space.J_inv @ cross.conj(), u.space)


def locate(v: HVec, tol=None) -> Location:
    """Classify [v] against the null cone of the form, with a tolerance band.

    The band scales with the squared Euclidean norm of the representative,
    so the answer is invariant under rescaling of v.
    """
    if v.is_zero():
        raise GeometryError("cannot locate the zero vector")
    tol = tolerance(tol)
    scale = v.length() ** 2
    n = v.norm()
    if n < -tol * scale:
        return Location.INSIDE
    if n > tol * scale:
        return Location.OUTSIDE
    return Location.BOUNDARY


def proj_equal(u: HVec, v: HVec, tol=PROJ_EQ_TOL) -> bool:
    """Projective equality after optimal phase/scale alignment."""
    return proj_distance(u, v) <= tol


def proj_distance(u: HVec, v: HVec) -> float:
    """Euclidean distance between unit representatives at optimal phase."""
    nu, nv = u.length(), v.length()
    if nu == 0 or nv == 0:
        raise GeometryError("zero vector has no projective class")
    a, b = u.v / nu, v.v / nv
    return _length(a - np.vdot(b, a) * b)  # a less its projection on b

