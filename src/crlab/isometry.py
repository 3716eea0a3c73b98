"""SU(2,1) elements: validity, trace classification, eigendata, fixed points.

Classification follows the eigenvalues: three pairwise separated ones make
a regular element (loxodromic when one is off the unit circle), clustered
ones decide between unipotent, ellipto-parabolic, non-regular elliptic and
the identity.  f(z) = |z|^4 - 8 Re(z^3) + 18|z|^2 - 27 is reported alongside;
its triple zero at tr = 3 makes a band on f unfit to decide regularity.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import GeometryError, HermitianSpace, HVec, tolerance

OMEGA = cmath.exp(2j * math.pi / 3)

UNIPOTENT_CLUSTER_TOL = 1e-6
CLUSTER_GAP = 5e-5  # eigenvalues closer than this (relative) form one cluster
EIGEN_RESIDUAL_TOL = 1e-7
RATIONAL_ANGLE_TOL = 1e-8
MAX_ELLIPTIC_ORDER = 512


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
    if abs(u3) < 1e-300:
        ts = [0.0 + 0.0j] * 3
    else:
        u = u3 ** (1.0 / 3.0)
        roots = [u * OMEGA**k for k in range(3)]
        ts = [u_ - p / (3.0 * u_) for u_ in roots]
    return [t + shift for t in ts]


def _newton_refine(lam, c2, c1, c0, steps=3):
    for _ in range(steps):
        f = ((lam - c2) * lam + c1) * lam - c0
        df = (3.0 * lam - 2.0 * c2) * lam + c1
        if abs(df) < 1e-300:
            break
        lam = lam - f / df
    return lam


def _polish_clusters(roots, c2, c1):
    """Snap nearly-coincident roots to their well-conditioned cluster value.

    A perturbed triple root scatters like eps^(1/3), a double root like
    eps^(1/2); the cluster means recover the exact values from the cubic's
    coefficients (c2/3 for a triple, a root of the derivative for a double).
    """
    gap = CLUSTER_GAP * max(1.0, max(abs(r) for r in roots))
    d01, d02, d12 = (
        abs(roots[0] - roots[1]),
        abs(roots[0] - roots[2]),
        abs(roots[1] - roots[2]),
    )
    if d01 <= gap and d02 <= gap and d12 <= gap:
        lam = c2 / 3.0
        return [lam, lam, lam]
    for (i, j), d in (((0, 1), d01), ((0, 2), d02), ((1, 2), d12)):
        if d <= gap:
            k = 3 - i - j
            # double root solves the derivative 3x^2 - 2 c2 x + c1 = 0
            disc = cmath.sqrt(c2 * c2 - 3.0 * c1)
            cand = [(c2 + disc) / 3.0, (c2 - disc) / 3.0]
            mean = (roots[i] + roots[j]) / 2.0
            mu = min(cand, key=lambda x: abs(x - mean))
            out = [None, None, None]
            out[i] = out[j] = mu
            out[k] = c2 - 2.0 * mu
            return out
    return roots


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
    norm_sign: int  # sign of <v, v>, 0 on the null cone
    residual: float
    generalized: bool = False  # vector from defective (clustered) eigenspace


def eigen(g: Isometry, tol=None):
    """Eigendata of a 3x3 lift: three (value, vector, norm sign) triples.

    The characteristic cubic is solved in closed form from tr M, tr M^2 and
    det M, each root polished by Newton; eigenvectors come from row cross
    products of M - lam I with an SVD fallback for near-defective matrices,
    which are flagged as generalized.
    """
    tol = tolerance(tol)
    M = g.M
    c2 = complex(np.trace(M))
    c1 = (c2 * c2 - complex(np.trace(M @ M))) / 2.0
    c0 = complex(np.linalg.det(M))
    roots = [_newton_refine(lam, c2, c1, c0) for lam in _cubic_roots(c2, c1, c0)]
    roots = _polish_clusters(roots, c2, c1)
    scale = max(float(np.abs(M).max()), 1.0)
    triples = []
    for lam in roots:
        vec, generalized = _eigenvector_for(M, lam)
        res = float(np.linalg.norm(M @ vec - lam * vec))
        hv = HVec(vec, g.space)
        n = hv.norm()
        sgn = 0
        if n > tol * 1.0:
            sgn = 1
        elif n < -tol * 1.0:
            sgn = -1
        triples.append(EigenTriple(lam, hv, sgn, res, generalized))
    if all(t.generalized for t in triples):
        # fully defective within resolution; keep data but no residual promise
        return triples
    worst = max(t.residual for t in triples if not t.generalized)
    if worst > max(EIGEN_RESIDUAL_TOL * scale, EIGEN_RESIDUAL_TOL):
        # disambiguate with numpy's QR eigensolver before giving up
        vals, vecs = np.linalg.eig(M)
        triples = []
        for k in range(3):
            hv = HVec(vecs[:, k], g.space)
            n = hv.norm()
            sgn = 1 if n > tol else (-1 if n < -tol else 0)
            res = float(np.linalg.norm(M @ vecs[:, k] - vals[k] * vecs[:, k]))
            triples.append(EigenTriple(complex(vals[k]), hv, sgn, res))
    return triples


def cube_root_cluster(values, tol=UNIPOTENT_CLUSTER_TOL):
    """Common k with all values within tol of OMEGA^k, or None."""
    for k in range(3):
        target = OMEGA**k
        if all(abs(v - target) <= tol for v in values):
            return k
    return None


@dataclass(frozen=True)
class IsometryClass:
    kind: IsometryKind
    eigen: tuple
    trace: complex
    goldman: float
    condition: float = 0.0


def classify(g: Isometry, tol=None) -> IsometryClass:
    """Classify a lift from the separation and moduli of its eigenvalues."""
    tol = tolerance(tol)
    tr = g.trace()
    triples = eigen(g, tol)
    values = [t.value for t in triples]
    cond = max(t.residual for t in triples)
    gap = CLUSTER_GAP * max(1.0, max(abs(v) for v in values))

    k = cube_root_cluster(values)
    if k is not None:
        if np.abs(g.M - (OMEGA**k) * np.eye(3)).max() <= 1e-8:
            kind = IsometryKind.IDENTITY
        else:
            kind = IsometryKind.UNIPOTENT
    elif any(abs(abs(v) - 1.0) > UNIPOTENT_CLUSTER_TOL for v in values):
        kind = IsometryKind.LOXODROMIC
    elif min(abs(values[i] - values[j]) for i, j in ((0, 1), (0, 2), (1, 2))) > gap:
        kind = IsometryKind.REGULAR_ELLIPTIC
    else:
        # repeated unit eigenvalue: diagonalizable <=> boundary reflection
        lam0 = _repeated_value(values)
        A = g.M - lam0 * np.eye(3)
        _, s, _ = np.linalg.svd(A)
        if s[1] <= 1e-6 * max(s[0], 1.0):
            kind = IsometryKind.NON_REGULAR_ELLIPTIC
        else:
            kind = IsometryKind.ELLIPTIC_PARABOLIC
    return IsometryClass(kind, tuple(triples), tr, goldman_f(tr), cond)


def _repeated_value(values):
    pairs = [(abs(values[i] - values[j]), (values[i] + values[j]) / 2)
             for i in range(3) for j in range(i + 1, 3)]
    return min(pairs)[1]


@dataclass(frozen=True)
class EllipticType:
    """Rotation-angle pair of a regular elliptic element.

    Angles are measured on the positive-norm eigenvectors relative to the
    negative-norm eigenvector's eigenvalue; (p, q, n) is the reduced integer
    form with angle_i = 2 pi p_i / n and gcd(p, q, n) = 1.  For an element
    whose angles are not recognized as rational multiples of 2 pi the pair
    (angle1, angle2) is still reported with p = q = n = None.
    """

    p: int | None
    q: int | None
    n: int | None
    angle1: float
    angle2: float

    @property
    def is_finite(self) -> bool:
        return self.n is not None


def _recognize_angle(theta: float):
    """theta ~ 2 pi p/n with small denominator, else None."""
    frac = Fraction(theta / (2 * math.pi)).limit_denominator(MAX_ELLIPTIC_ORDER)
    if abs(theta / (2 * math.pi) - float(frac)) > RATIONAL_ANGLE_TOL:
        return None
    return frac


def elliptic_type(g: Isometry, tol=None) -> EllipticType:
    """Type of a regular elliptic element, reduced so gcd(p, q, n) = 1."""
    tol = tolerance(tol)
    cls = classify(g, tol)
    if cls.kind is not IsometryKind.REGULAR_ELLIPTIC:
        raise GeometryError("elliptic type is defined for regular elliptic elements")
    neg = [t for t in cls.eigen if t.norm_sign < 0]
    pos = [t for t in cls.eigen if t.norm_sign > 0]
    if len(neg) != 1 or len(pos) != 2:
        raise GeometryError("eigenvector norms do not split as (+,+,-)")
    lam_neg = neg[0].value
    angles = sorted(
        (cmath.phase(t.value / lam_neg) for t in pos), reverse=True
    )  # canonical order: first angle >= second
    fr1, fr2 = _recognize_angle(angles[0]), _recognize_angle(angles[1])
    if fr1 is None or fr2 is None:
        return EllipticType(None, None, None, angles[0], angles[1])
    n = math.lcm(fr1.denominator, fr2.denominator)
    p = fr1.numerator * (n // fr1.denominator)
    q = fr2.numerator * (n // fr2.denominator)
    common = math.gcd(math.gcd(abs(p), abs(q)), n)
    if common > 1:
        p, q, n = p // common, q // common, n // common
    # order check: g^n must project to the identity
    Mn = np.linalg.matrix_power(g.M, n)
    if min(np.abs(Mn - (OMEGA**k) * np.eye(3)).max() for k in range(3)) > 1e-6:
        return EllipticType(None, None, None, angles[0], angles[1])
    return EllipticType(p, q, n, angles[0], angles[1])
