"""SU(2,1) elements: validity, trace classification, eigendata, fixed points.

One rule, `trace_side`, reads an element's class from its trace alone, as
Goldman's classification does (*Complex Hyperbolic Geometry*, 1999): about
the nearest cusp 3 omega^k of the deltoid f = 0, a trace within 10 tol of
the cusp is unipotent (or the identity), and off it the sign of f, written
about the cusp, names the side.  The same rule gives the eigenvalues (the
roots of the SU(2,1) cubic, solved about the cusp), the norm signs of the
eigenvectors (Krein signs, read without the eigenvector) and, through
`rotation_turn`, the order of a rotation; `family.param_side` reads the
alpha1 = 0 slice through the trace rule, and reads the order there in
closed form.  The trace rule is scalar code, defined in the numpy-free
`scalar` and imported here.  `classify` asks the matrix only what the
trace cannot tell: the identity from a unipotent element, and a complex
reflection from an ellipto-parabolic one.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import HermitianSpace, HVec
from .scalar import (
    MAX_ORDER,
    OMEGA,
    TURN_SLACK,
    GeometryError,
    SideKind,
    TraceSide,
    tolerance,
    trace_side,
)


class IsometryKind(enum.Enum):
    IDENTITY = "identity"
    REGULAR_ELLIPTIC = "regular-elliptic"
    NON_REGULAR_ELLIPTIC = "non-regular-elliptic"
    UNIPOTENT = "unipotent"
    ELLIPTIC_PARABOLIC = "elliptic-parabolic"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class Isometry:
    """A matrix lift in SU(2,1) for a fixed Hermitian space."""

    M: np.ndarray
    space: HermitianSpace

    def __post_init__(self):
        M = np.asarray(self.M, dtype=complex).reshape(3, 3)
        M.setflags(write=False)
        object.__setattr__(self, "M", M)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(self.M @ other.M, self.space)

    def inv(self) -> "Isometry":
        # U^-1 = J^-1 U^H J for a J-unitary U; cheaper and exacter than inv().
        return Isometry(self.space.J_inv @ self.M.conj().T @ self.space.J, self.space)

    def trace(self) -> complex:
        return complex(np.trace(self.M))


def su21_residuals(M, space: HermitianSpace):
    """(unitarity residual, determinant residual) of a candidate lift."""
    M = np.asarray(M, dtype=complex)
    unit_res = float(np.abs(M.conj().T @ space.J @ M - space.J).max())
    det_res = float(abs(np.linalg.det(M) - 1.0))
    return unit_res, det_res


def verify_su21(M, space: HermitianSpace, tol=None):
    """Check M^H J M = J and det M = 1; returns (ok, unit_res, det_res)."""
    tol = tolerance(tol)
    unit_res, det_res = su21_residuals(M, space)
    scale = max(1.0, float(np.abs(M).max()) ** 2)
    return (unit_res <= tol * scale and det_res <= tol * scale, unit_res, det_res)


def goldman_f(z):
    """f(z) = |z|^4 - 8 Re(z^3) + 18 |z|^2 - 27; invariant under z -> wz, w^3=1.

    A scalar gives a float, an array an array of f elementwise.
    """
    z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
    return abs(z) ** 4 - 8.0 * (z**3).real + 18.0 * abs(z) ** 2 - 27.0


def _cubic_roots(c2: complex, c1: complex, c0: complex):
    """Roots of x^3 - c2 x^2 + c1 x - c0 by Cardano, branch by separation."""
    # substitute x = t + c2/3 to get the depressed cubic t^3 + p t + q
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = -2.0 * shift**3 + c1 * shift - c0
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = cmath.sqrt(disc)
    # pick the cube-root argument with larger modulus to avoid cancellation
    u3a, u3b = -q / 2.0 + sq, -q / 2.0 - sq
    u3 = u3a if abs(u3a) >= abs(u3b) else u3b
    roots = [u3 ** (1.0 / 3.0) * OMEGA**k for k in range(3)]
    return [u - p / (3.0 * u) + shift for u in roots]


def _newton_refine(lam, c2, c1, c0):
    for _ in range(3):
        f = ((lam - c2) * lam + c1) * lam - c0
        df = (3.0 * lam - 2.0 * c2) * lam + c1
        lam = lam - f / df
    return lam


def _cusp_roots(side: TraceSide):
    """The z with omega^k (1 + z) the eigenvalues of trace tau.

    At x = omega^k (1 + z) the SU(2,1) cubic x^3 - tau x^2 + conj(tau) x - 1
    reads z^3 - eps z^2 + (conj(eps) - 2 eps) z + conj(eps) - eps, whose
    coefficients keep the digits of eps.  At a cusp the root is z = 0,
    three times; on f = 0 the repeated root is the root of the derivative
    at which the cubic vanishes.
    """
    eps = side.eps
    c2, c1, c0 = eps, eps.conjugate() - 2.0 * eps, eps - eps.conjugate()
    if side.kind is SideKind.UNIPOTENT:
        return [0j, 0j, 0j]
    if side.kind is SideKind.REPEATED:
        disc = cmath.sqrt(c2 * c2 - 3.0 * c1)
        mu = min(((c2 + disc) / 3.0, (c2 - disc) / 3.0), key=lambda z: abs(((z - c2) * z + c1) * z - c0))
        return [mu, mu, c2 - 2.0 * mu]
    return [_newton_refine(z, c2, c1, c0) for z in _cubic_roots(c2, c1, c0)]


def nullspace_vector(A):
    """Least-singular right-singular vector of A."""
    _, s, vh = np.linalg.svd(A)
    return vh[-1].conj(), float(s[-1])


def _eigenvector_for(M, lam):
    """Eigenvector via cross products of rows of M - lam I, SVD fallback."""
    A = M - lam * np.eye(3)
    best = None
    best_norm = -1.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        w = np.cross(A[i], A[j])
        n = np.linalg.norm(w)
        if n > best_norm:
            best, best_norm = w, n
    scale = max(np.linalg.norm(A, "fro"), 1e-300)
    if best_norm <= 1e-10 * scale**2:
        v, _ = nullspace_vector(A)
        return v, True
    return best / best_norm, False


@dataclass(frozen=True)
class EigenTriple:
    value: complex
    vector: HVec
    # the sign of <v, v> for a simple unit eigenvalue; 0 off the unit
    # circle, where v is null, and for a repeated eigenvalue
    norm_sign: int
    residual: float
    generalized: bool = False  # vector from defective (clustered) eigenspace


def eigen(g: Isometry, tol=None):
    """Eigendata of a 3x3 lift: three (value, vector, norm sign) triples."""
    return _eigen(g, trace_side(g.trace(), tol))


def _eigen(g: Isometry, side: TraceSide):
    """The eigenvalues are the roots of the SU(2,1) cubic of the trace
    (`_cusp_roots`), the eigenvectors row cross products of M - lam I with
    an SVD fallback for near-defective matrices, flagged as generalized.

    The norm sign of a simple unit eigenvalue lam is its Krein sign
    (Gohberg, Lancaster and Rodman, *Indefinite Linear Algebra and
    Applications*, 2005), read without the eigenvector: for a J-unitary M
    the left eigenvector of lam is v^H J, so adj(lam I - M) J^-1 =
    chi'(lam) v v^H / <v, v> and sign <v, v> = sign Re(chi'(lam) /
    tr(adj(lam I - M) J^-1)), with chi'(lam) the product of lam's
    differences to the other two eigenvalues.
    """
    M = g.M
    values = [OMEGA**side.k * (1.0 + z) for z in _cusp_roots(side)]
    unit = {SideKind.ELLIPTIC: [0, 1, 2], SideKind.REPEATED: [2]}.get(side.kind, [])
    if side.kind is SideKind.LOXODROMIC:
        unit = [min(range(3), key=lambda i: abs(abs(values[i]) - 1.0))]
    triples = []
    for i, lam in enumerate(values):
        vec, generalized = _eigenvector_for(M, lam)
        res = float(np.linalg.norm(M @ vec - lam * vec))
        sgn = 0
        if i in unit:
            A = lam * np.eye(3) - M
            adj_tr = complex((np.cross(A[[1, 2, 0]], A[[2, 0, 1]]) * g.space.J_inv).sum())
            dchi = (lam - values[i - 1]) * (lam - values[i - 2])
            krein = (dchi * adj_tr.conjugate()).real
            sgn = (krein > 0) - (krein < 0)
        triples.append(EigenTriple(lam, HVec(vec, g.space), sgn, res, generalized))
    return triples


@dataclass(frozen=True)
class IsometryClass:
    kind: IsometryKind
    eigen: tuple
    trace: complex
    goldman: float


def classify(g: Isometry, tol=None) -> IsometryClass:
    """Classify a lift by `trace_side`.  The matrix tells only the identity
    from a unipotent element, and at a repeated eigenvalue lam a complex
    reflection (M - lam I of rank 1) from an ellipto-parabolic element."""
    tr = g.trace()
    side = trace_side(tr, tol)
    triples = _eigen(g, side)
    lam = triples[0].value  # omega^k at a cusp, else the repeated value
    if side.kind is SideKind.UNIPOTENT:
        identity = np.abs(g.M - lam * np.eye(3)).max() <= 1e-8
        kind = IsometryKind.IDENTITY if identity else IsometryKind.UNIPOTENT
    elif side.kind is SideKind.REPEATED:
        s = np.linalg.svd(g.M - lam * np.eye(3), compute_uv=False)
        reflection = s[1] <= 1e-6 * max(s[0], 1.0)
        kind = IsometryKind.NON_REGULAR_ELLIPTIC if reflection else IsometryKind.ELLIPTIC_PARABOLIC
    else:
        kind = IsometryKind.REGULAR_ELLIPTIC if side.kind is SideKind.ELLIPTIC else IsometryKind.LOXODROMIC
    return IsometryClass(kind, tuple(triples), tr, goldman_f(tr))


@dataclass(frozen=True)
class EllipticType:
    """Rotation-angle pair of a regular elliptic element.

    Angles are measured on the positive-norm eigenvectors relative to the
    negative-norm eigenvector's eigenvalue; (p, q, n) is the reduced integer
    form with gcd(p, q, n) = 1, and the angles are then 2 pi p / n and
    2 pi q / n.  For an element whose angles are not recognized as rational
    multiples of 2 pi the measured pair (angle1, angle2) is reported with
    p = q = n = None.
    """

    p: int | None
    q: int | None
    n: int | None
    angle1: float
    angle2: float

    @property
    def is_finite(self) -> bool:
        return self.n is not None


def rotation_turn(turn: float, scale=1.0) -> Fraction | None:
    """The fraction p/n (n <= MAX_ORDER) within TURN_SLACK scale / |turn|
    of a rotation by 2 pi turn, or None."""
    frac = Fraction(turn).limit_denominator(MAX_ORDER)
    if frac == 0 or abs(turn - frac) > TURN_SLACK * scale / abs(turn):
        return None
    return frac


def elliptic_type(g: Isometry, tol=None) -> EllipticType:
    """Type of a regular elliptic element, each angle read by `rotation_turn`
    at the scale of M's rounding, in ulps: |c1 - conj(tr)| + |det - 1|, with
    c1 = tr adj M the characteristic polynomial's middle coefficient.

    With the turns reduced as p1/n1 and p2/n2 and n = lcm(n1, n2) at most
    MAX_ORDER, the type (p1 n/n1, p2 n/n2, n) has gcd 1: a prime d | n
    divides n1, say, to its full power in n, so d divides neither p1 nor
    n/n1.  No power of g is checked: a regular elliptic M has distinct eigenvalues lam,
    lam e^{2 pi i p/n}, lam e^{2 pi i q/n}, so it is diagonalizable and
    M^n = lam^n I, where det M = 1 gives lam^{3n} = 1: g^n is the
    identity of PU(2,1).
    """
    cls = classify(g, tol)
    if cls.kind is not IsometryKind.REGULAR_ELLIPTIC:
        raise GeometryError("elliptic type is defined for regular elliptic elements")
    neg = [t for t in cls.eigen if t.norm_sign < 0]
    pos = [t for t in cls.eigen if t.norm_sign > 0]
    if len(neg) != 1 or len(pos) != 2:
        raise GeometryError("eigenvector norms do not split as (+,+,-)")
    # canonical order: first angle >= second
    angles = sorted((cmath.phase(t.value / neg[0].value) for t in pos), reverse=True)
    M = g.M
    adj = np.cross(M[[1, 2, 0]], M[[2, 0, 1]])  # the columns of adj M
    miss = abs(np.trace(adj) - cls.trace.conjugate()) + abs((M[0] * adj[0]).sum() - 1.0)
    turns = [rotation_turn(a / (2 * math.pi), max(1.0, miss / 2.0**-52)) for a in angles]
    n = None if None in turns else math.lcm(*(fr.denominator for fr in turns))
    if n is None or n > MAX_ORDER:
        return EllipticType(None, None, None, angles[0], angles[1])
    p, q = (fr.numerator * (n // fr.denominator) for fr in turns)
    return EllipticType(p, q, n, 2 * math.pi * p / n, 2 * math.pi * q / n)
