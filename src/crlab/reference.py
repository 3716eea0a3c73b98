"""The paper's own objects that no verification or figure computes with:
trace coordinates and the character variety, the discreteness region Z,
the peripheral words and their classes, Schwartz's peripheral generator,
checked builds of a representation, fixed points of single elements, the
ball and custom models of the form, the point table of the alpha1 = 0
slice (`face_points`, its rows named in `family`) with the row kernels
`apply` and `box_rows`, and the per-point forms: the remarkable points as
HVecs, the box product of two HVecs, the location of a point against the
null cone and projective equality.

The command line never loads this module; the tests and interactive use
import it as `crlab.reference`.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import GeometryError, HermitianSpace, HVec, Model, siegel_model, tolerance
from .family import (
    P_A, P_B, P_U, P_U1, P_U2, P_V, P_W, U_PA, FamilyParams, FamilyRep, char_P, char_Q, discriminant_D, rho_s, rho_t,
)
from .isometry import (
    OMEGA,
    Isometry,
    IsometryClass,
    IsometryKind,
    classify,
    nullspace_vector,
    trace_side,
    verify_su21,
)
from .scalar import wall_gap

# peripheral words on T1/T2 and the link-group relator, in the letters s, t
WORD_M1 = "ts^-1"
WORD_L1 = "ts^-1ts^-1ts^-1"
WORD_M2 = "st"
WORD_L2 = "ststst"
WORD_L2_LONG = "ststs^-1t^3s^-1t"
WORD_RELATOR = "ts^-1t^-3s^-2t^-1st^3s^2"
PROJ_EQ_TOL = 1e-8


class Location(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def apply(M, X):
    """M x for every row x of X (..., 3), M (..., 3, 3) broadcast against the
    leading axes of X: x_0 M[:, 0] + x_1 M[:, 1] + x_2 M[:, 2], left to right."""
    return X[..., 0, None] * M[..., 0] + X[..., 1, None] * M[..., 1] + X[..., 2, None] * M[..., 2]


def face_points(alpha2: float) -> np.ndarray:
    """The table P, shape (14, 3), on the alpha1 = 0 slice, of the
    remarkable points p_A, p_B, p_U, p_V = S p_U, p_W = S p_V,
    p_U', p_U'' and of U p_A, U p_B, U p_V, U p_W, U^-1 p_B, U^-1 p_V and
    U^-1 p_W (U = S^-1 T), in the order of the row names `family.P_A` ..
    `family.UI_PW`.

    p_U' and p_U'' are the eigenvectors of U for the eigenvalues e^{l},
    e^{-l} (loxodromic side) or e^{i beta}, e^{-i beta} (elliptic side), in
    closed form with delta = sqrt((tr U - 3)(tr U + 1)), tr U - 3 from
    `wall_gap` as in `param_side`; at the unipotent parameter delta = 0
    and the two coincide.  Every other row is `apply` of S, U or U^-1 to a
    row, where J U = S^H J T is the form of the columns of S against those
    of T, and J U^-1 = T^H J S its adjoint."""
    params, sp = FamilyParams(0.0, alpha2), siegel_model()
    S, T = rho_s(params), rho_t(params)
    G = sp.form(S.T[:, None], T.T[None])
    UU = apply(sp.J_inv, np.stack([G.T, G.conj()])).transpose(0, 2, 1)  # U, U^-1
    e = cmath.exp(1j * alpha2)
    c8 = 8.0 * math.cos(alpha2) ** 2
    delta = cmath.sqrt(8.0 * wall_gap(alpha2) * (c8 + 1.0))
    P = np.zeros((14, 3), dtype=complex)
    P[P_A, 0] = P[P_B, 2] = 1.0
    P[P_U] = 1.0, -math.sqrt(2.0) / 2.0 * e, e * e
    P[P_V] = apply(S, P[P_U])
    P[P_W] = apply(S, P[P_V])
    for row, d in ((P_U1, delta), (P_U2, -delta)):
        P[row] = 2.0 * (2.0 * e * e + 1.0), -math.sqrt(2.0) * e * (2.0 * e * e + 1.0 + d), -(c8 + 1.0) - d
    P[U_PA:] = apply(UU[[0, 0, 0, 0, 1, 1, 1]], P[[P_A, P_B, P_V, P_W, P_B, P_V, P_W]])
    return P


def box_rows(a, b, space: HermitianSpace) -> np.ndarray:
    """The box products of the rows of a and b, shape (..., 3): J^{-1}
    conj(a x b), the unique s with <s, r> = det(a, b, r).  Each complex
    product is formed from its real parts as Python's complex scalars form
    it (no fused multiply-add), so every row has the bits of the same
    product taken on one pair of complex scalars."""
    # the six products a_i b_j of both terms of the cross product at once
    x, y = a[..., [1, 2, 0, 2, 0, 1]], b[..., [2, 0, 1, 1, 2, 0]]
    re = x.real * y.real - x.imag * y.imag
    im = x.real * y.imag + x.imag * y.real
    c = np.empty(re.shape[:-1] + (3,), dtype=complex)
    c.real = re[..., :3] - re[..., 3:]
    c.imag = im[..., 3:] - im[..., :3]
    return apply(space.J_inv, c)


def box(u: HVec, v: HVec) -> HVec:
    """Hermitian cross product: the unique s with <s, r> = det(u, v, r).

    Computed as J^{-1} conj(u x v) (`box_rows` on one pair); for the
    ball and Siegel forms this reduces to the usual coordinate formulas.
    Collinear inputs give the zero vector.
    """
    if u.space is not v.space and u.space != v.space:
        raise GeometryError("operands live in different Hermitian spaces")
    return HVec(box_rows(u.v, v.v, u.space), u.space)


def locate(v: HVec, tol=None) -> Location:
    """Classify [v] against the null cone of the form, with a tolerance band.

    The band scales with the squared Euclidean norm of the representative,
    so the answer is invariant under rescaling of v.
    """
    if np.abs(v.v).max() <= 1e-14:
        raise GeometryError("cannot locate the zero vector")
    tol = tolerance(tol)
    scale = _length(v.v) ** 2
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
    nu, nv = _length(u.v), _length(v.v)
    if nu == 0 or nv == 0:
        raise GeometryError("zero vector has no projective class")
    a, b = u.v / nu, v.v / nv
    return _length(a - np.vdot(b, a) * b)  # a less its projection on b


def _length(v: np.ndarray) -> float:
    """Euclidean length of a complex vector, summed as np.linalg.norm sums
    it, to the same bits."""
    return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


@dataclass(frozen=True)
class RemarkablePoints:
    """Fixed points of the distinguished elements on the alpha1 = 0 slice,
    the first seven rows of `face_points` as HVecs.

    p_U_prime and p_U_dprime are formed at every parameter, the wall
    included, where they merge; which side the parameter is on is
    `param_side`'s to say."""

    p_A: HVec
    p_B: HVec
    p_U: HVec
    p_V: HVec
    p_W: HVec
    p_U_prime: HVec
    p_U_dprime: HVec


def remarkable_points(params: FamilyParams) -> RemarkablePoints:
    """The remarkable points as HVecs (`face_points`); p_V and p_W
    are the S-translates of p_U."""
    if abs(params.alpha1) > 1e-14:
        raise GeometryError("remarkable points are tabulated on the alpha1 = 0 slice")
    sp = siegel_model()
    return RemarkablePoints(*(HVec(x, sp) for x in face_points(params.alpha2)[:7]))


def ball_model() -> HermitianSpace:
    return HermitianSpace(np.diag([1.0, 1.0, -1.0]).astype(complex), Model.BALL)


def custom_model(J) -> HermitianSpace:
    return HermitianSpace(np.asarray(J, dtype=complex), Model.CUSTOM)


def build_rep(params: FamilyParams, check=True, tol=None) -> FamilyRep:
    rep = FamilyRep(params)
    if check:
        tol_ = tolerance(tol)
        for g in (rep.S, rep.T):
            ok, u_res, d_res = verify_su21(g.M, rep.space, tol_)
            if not ok:
                raise GeometryError(
                    f"generator fails SU(2,1) residuals ({u_res:.2e}, {d_res:.2e})"
                )
            if np.abs(np.linalg.matrix_power(g.M, 3) - np.eye(3)).max() > 1e3 * tol_:
                raise GeometryError("generator is not of order 3")
    return rep


def alpha2_for_length(length: float) -> float:
    """The alpha2 < ALPHA2_LIM at which U is loxodromic of length l > 0: the
    nearest float or one ulp from it (50-digit check, l = 0.25 to 1e-6).
    Near the wall sinh^2(l/2) ~ 2 sin(2 ALPHA2_LIM) (ALPHA2_LIM - alpha2), so
    the nearest float is off in length by |dl/l| <= ulp(alpha2) / (4
    (ALPHA2_LIM - alpha2)) (4.9e-7 at l = 1e-5, 1.2e-4 at 1e-6), one ulp
    more by up to three times that: floats sample alpha2 no finer."""
    if length <= 0:
        raise GeometryError("length must be positive")
    tr = 2.0 * math.cosh(length) + 1.0
    if tr >= 8.0:
        raise GeometryError("length exceeds the family (needs cosh(l) < 7/2)")
    return math.acos(math.sqrt(tr / 8.0))


@dataclass(frozen=True)
class TraceCoords:
    """Trace coordinates (z, w, x) = (tr st, tr st^-1, tr [s,t])."""

    z: complex
    w: complex
    x: complex


def trace_coords(rep: FamilyRep) -> TraceCoords:
    S, T = rep.S.M, rep.T.M
    z = complex(np.trace(S @ T))
    w = complex(np.trace(S @ rep.T.inv().M))
    x = complex(np.trace(S @ T @ rep.S.inv().M @ rep.T.inv().M))
    return TraceCoords(z, w, x)


def char_variety_residuals(tc: TraceCoords):
    """Residuals of x + conj(x) = Q(z,w) and |x|^2 = P(z,w)."""
    r1 = abs(2.0 * tc.x.real - char_Q(tc.z, tc.w))
    r2 = abs(abs(tc.x) ** 2 - char_P(tc.z, tc.w))
    return r1, r2


def region_Z(params: FamilyParams):
    """(inside, margin): membership in the discreteness region D(...) > 0."""
    val = discriminant_D(
        4.0 * math.cos(params.alpha1) ** 2, 4.0 * math.cos(params.alpha2) ** 2
    )
    return val > 0.0, val


def peripheral_type(params: FamilyParams, tol=None) -> IsometryClass:
    """Class of rho(t s^-1), the peripheral holonomy being deformed."""
    rep = FamilyRep(params)
    return classify(rep.word(WORD_M1), tol)


def schwartz_peripheral_matrix() -> np.ndarray:
    """An SU(2,1)-conjugate of the ellipto-parabolic peripheral generator."""
    theta = math.acos(-7.0 / 8.0) / 3.0
    return cmath.exp(1j * theta) * np.array(
        [[1.0, 0.0, -0.5j], [0.0, cmath.exp(-3j * theta), 0.0], [0.0, 0.0, 1.0]],
        dtype=complex,
    )


def canonical_fixed_point(g: Isometry, tol=None) -> HVec:
    """The distinguished fixed point of a regular or unipotent element.

    Regular elliptic: the negative-norm eigenvector (interior fixed point).
    Loxodromic: the unit-modulus eigenvalue's eigenvector (polar point of
    the axis).  Unipotent: the unique eigendirection (boundary point).
    """
    tol = tolerance(tol)
    cls = classify(g, tol)
    if cls.kind is IsometryKind.REGULAR_ELLIPTIC:
        for t in cls.eigen:
            if t.norm_sign < 0:
                return t.vector
        raise GeometryError("regular elliptic without negative eigenvector")
    if cls.kind is IsometryKind.LOXODROMIC:
        best = min(cls.eigen, key=lambda t: abs(abs(t.value) - 1.0))
        return best.vector
    if cls.kind is IsometryKind.UNIPOTENT:
        k = trace_side(cls.trace, tol).k
        vec, _ = nullspace_vector(g.M - OMEGA**k * np.eye(3))
        return HVec(vec, g.space)
    raise GeometryError(
        f"no canonical fixed point for class {cls.kind.value}"
    )

