"""The two-parameter family of Z/3 * Z/3 representations into SU(2,1).

Everything is built in the Siegel model.  The family is parametrized by a
pair of angles (alpha1, alpha2); the distinguished one-parameter slice used
by the verification engine fixes alpha1 = 0.  The element U = rho(s)^-1
rho(t) drives the deformation: its trace is 8 cos^2(alpha2), so U is
loxodromic for alpha2 < ALPHA2_LIM, unipotent at ALPHA2_LIM and elliptic
beyond, where 8 cos^2(alpha2) = 2 cos(beta) + 1 ties alpha2 to the rotation
angle beta.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GeometryError, apply, siegel_model
from .isometry import Isometry, SideKind, rotation_turn, trace_side

ALPHA2_LIM = math.acos(math.sqrt(3.0 / 8.0))
# arccos sqrt(3/8) - ALPHA2_LIM, the wall's rounding remainder
ALPHA2_LIM_REM = -4.935854701949338e-17
# pi/2 - math.pi / 2, pi/2's rounding remainder
PIO2_REM = 6.123233995736766e-17


@dataclass(frozen=True)
class FamilyParams:
    alpha1: float = 0.0
    alpha2: float = 0.0

    def __post_init__(self):
        if not (-math.pi / 2 < self.alpha1 < math.pi / 2):
            raise GeometryError("alpha1 outside (-pi/2, pi/2)")

    @property
    def x1(self) -> float:
        return math.sqrt(2.0 * math.cos(self.alpha1))


def rho_s(params: FamilyParams) -> np.ndarray:
    a1, a2 = params.alpha1, params.alpha2
    x1 = params.x1
    phase = cmath.exp(-1j * a1 / 3.0)
    return phase * np.array(
        [
            [cmath.exp(1j * a1), x1 * cmath.exp(1j * (a1 - a2)), -1.0],
            [-x1 * cmath.exp(1j * a2), -cmath.exp(1j * a1), 0.0],
            [-1.0, 0.0, 0.0],
        ],
        dtype=complex,
    )


def rho_t(params: FamilyParams) -> np.ndarray:
    a1, a2 = params.alpha1, params.alpha2
    x1 = params.x1
    phase = cmath.exp(1j * a1 / 3.0)
    return phase * np.array(
        [
            [0.0, 0.0, -1.0],
            [0.0, -cmath.exp(-1j * a1), -x1 * cmath.exp(-1j * (a1 + a2))],
            [-1.0, x1 * cmath.exp(1j * a2), cmath.exp(-1j * a1)],
        ],
        dtype=complex,
    )


_WORD_TOKEN = re.compile(r"([st])(?:\^(-?\d+))?", re.IGNORECASE)


def parse_word(word: str):
    """Parse a word in s, t with integer exponents into (letter, power) pairs."""
    word = word.replace(" ", "")
    pos = 0
    out = []
    while pos < len(word):
        m = _WORD_TOKEN.match(word, pos)
        if not m:
            raise GeometryError(f"cannot parse group word at ...{word[pos:]!r}")
        letter = m.group(1).lower()
        power = int(m.group(2)) if m.group(2) else 1
        out.append((letter, power))
        pos = m.end()
    return out


@dataclass(frozen=True)
class FamilyRep:
    """A representation of the family, with its distinguished elements."""

    params: FamilyParams

    @cached_property
    def space(self):
        """The Siegel space, one instance shared by every representation."""
        return siegel_model()

    @cached_property
    def S(self) -> Isometry:
        return Isometry(rho_s(self.params), self.space)

    @cached_property
    def T(self) -> Isometry:
        return Isometry(rho_t(self.params), self.space)

    def word(self, word: str) -> Isometry:
        """Evaluate a group word such as "ts^-1ts^2" in this representation.
        rho(s)^3 = rho(t)^3 = I (the group is Z/3 * Z/3), so a power is
        taken mod 3, keeping its sign: s^-1 is the exact inverse, not s^2."""
        M = np.eye(3, dtype=complex)
        gens = {"s": self.S.M, "t": self.T.M}
        inv = {"s": self.S.inv().M, "t": self.T.inv().M}
        for letter, power in parse_word(word):
            base = gens[letter] if power >= 0 else inv[letter]
            for _ in range(abs(power) % 3):
                M = M @ base
        return Isometry(M, self.space)


@dataclass(frozen=True)
class ParamSide:
    """Which side of the unipotent wall alpha2 sits on, and the parameter there.

    delta is the square root of (tr U - 3)(tr U + 1): 2i sin(beta) on the
    elliptic side and 2 sinh(l) on the loxodromic side.
    """

    kind: SideKind
    beta: float | None = None  # rotation angle, elliptic side
    length: float | None = None  # translation length l, loxodromic side
    n: int | None = None  # order when beta reads as 2 pi / n
    delta: complex = 0.0


def _wall_gap(alpha2: float) -> float:
    """(tr U - 3)/8 = cos^2 alpha2 - cos^2 L = sin(L - alpha2) sin(L + alpha2),
    L = arccos sqrt(3/8) carried as ALPHA2_LIM + ALPHA2_LIM_REM, so that L -
    alpha2 keeps its relative digits near the wall, where 8 cos^2 alpha2 - 3
    loses them."""
    return math.sin((ALPHA2_LIM - alpha2) + ALPHA2_LIM_REM) * math.sin(ALPHA2_LIM + alpha2)


def param_side(alpha2: float, tol=None) -> ParamSide:
    """The side of alpha2 by `isometry.trace_side` of tr U = 8 cos^2 alpha2,
    and the order n where `rotation_turn` reads beta as 2 pi / n.  The
    length and delta read tr U - 3 from `_wall_gap`, with sinh^2(l/2) =
    (tr U - 3)/4 from cosh l = (tr U - 1)/2, and keep their relative digits
    up to the wall."""
    tr = 8.0 * math.cos(alpha2) ** 2
    kind = trace_side(tr, tol).kind
    if kind is SideKind.UNIPOTENT:
        return ParamSide(kind, delta=0.0)
    gap = _wall_gap(alpha2)
    delta = cmath.sqrt(8.0 * gap * (tr + 1.0))
    if kind is SideKind.LOXODROMIC:
        return ParamSide(kind, length=2.0 * math.asinh(math.sqrt(2.0 * gap)), delta=delta)
    beta = math.acos((tr - 1.0) / 2.0)
    turn = rotation_turn(beta / (2.0 * math.pi))
    n = turn.denominator if turn is not None and turn.numerator == 1 else None
    return ParamSide(kind, beta=beta, n=n, delta=delta)


def alpha2_for_order(n: int) -> float:
    """The alpha2 > ALPHA2_LIM at which U becomes elliptic of order n >= 4."""
    if n < 4:
        raise GeometryError("order must be at least 4")
    return math.acos(math.sqrt((2.0 * math.cos(2.0 * math.pi / n) + 1.0) / 8.0))


# the rows of the point table of `face_points`: the remarkable points, then
# the U-translates that verify and the proofs' tie tests read
P_A, P_B, P_U, P_V, P_W, P_U1, P_U2, U_PA, U_PB, U_PV, U_PW, UI_PB, UI_PV, UI_PW = range(14)


def face_points(alpha2: float) -> np.ndarray:
    """The table P, shape (14, 3), on the alpha1 = 0 slice, of the
    remarkable points p_A, p_B, p_U, p_V = S p_U, p_W = S p_V,
    p_U', p_U'' and of U p_A, U p_B, U p_V, U p_W, U^-1 p_B, U^-1 p_V and
    U^-1 p_W (U = S^-1 T), in the order of the row names above.

    p_U' and p_U'' are the eigenvectors of U for the eigenvalues e^{l},
    e^{-l} (loxodromic side) or e^{i beta}, e^{-i beta} (elliptic side), in
    closed form with delta = sqrt((tr U - 3)(tr U + 1)), tr U - 3 from
    `_wall_gap` as in `param_side`; at the unipotent parameter delta = 0 and
    the two coincide.  Every other row is `core.apply` of S, U or U^-1 to a
    row, where J U = S^H J T is the form of the columns of S against those
    of T, and J U^-1 = T^H J S its adjoint."""
    params, sp = FamilyParams(0.0, alpha2), siegel_model()
    S, T = rho_s(params), rho_t(params)
    G = sp.form(S.T[:, None], T.T[None])
    UU = apply(sp.J_inv, np.stack([G.T, G.conj()])).transpose(0, 2, 1)  # U, U^-1
    e = cmath.exp(1j * alpha2)
    c8 = 8.0 * math.cos(alpha2) ** 2
    delta = cmath.sqrt(8.0 * _wall_gap(alpha2) * (c8 + 1.0))
    P = np.zeros((14, 3), dtype=complex)
    P[P_A, 0] = P[P_B, 2] = 1.0
    P[P_U] = 1.0, -math.sqrt(2.0) / 2.0 * e, e * e
    P[P_V] = apply(S, P[P_U])
    P[P_W] = apply(S, P[P_V])
    for row, d in ((P_U1, delta), (P_U2, -delta)):
        P[row] = 2.0 * (2.0 * e * e + 1.0), -math.sqrt(2.0) * e * (2.0 * e * e + 1.0 + d), -(c8 + 1.0) - d
    P[U_PA:] = apply(UU[[0, 0, 0, 0, 1, 1, 1]], P[[P_A, P_B, P_V, P_W, P_B, P_V, P_W]])
    return P


def char_Q(z: complex, w: complex) -> float:
    return abs(z) ** 2 + abs(w) ** 2 - 3.0


def char_P(z: complex, w: complex) -> float:
    return (
        2.0 * (z**3).real
        + 2.0 * (w**3).real
        + abs(z) ** 2 * abs(w) ** 2
        - 6.0 * abs(z) ** 2
        - 6.0 * abs(w) ** 2
        + 9.0
    )


def discriminant_D(x: float, y: float) -> float:
    """D(x, y) = x^3 y^3 - 9 x^2 y^2 - 27 x y^2 + 81 x y - 27 x - 27."""
    return x**3 * y**3 - 9.0 * x**2 * y**2 - 27.0 * x * y**2 + 81.0 * x * y - 27.0 * x - 27.0


def trace_ts_inv(alpha1, alpha2):
    """tr rho(t s^-1) in closed form, elementwise over arrays of angles.

    With x1^2 = 2 cos(alpha1) (cos alpha1 > 0 on the family's domain),
    tr(T S^-1) = 2 e^{-2i(2a1/3 + a2)} [cos a1 e^{i a1} + e^{2i a2}
    + e^{2i(a1 + a2)} + cos a1 e^{i(a1 + 4 a2)}], which is 8 cos^2 alpha2 on
    the alpha1 = 0 slice.
    """
    a1, a2 = np.asarray(alpha1, dtype=float), np.asarray(alpha2, dtype=float)
    c = np.cos(a1)
    return 2.0 * np.exp(-2j * (2.0 * a1 / 3.0 + a2)) * (
        c * np.exp(1j * a1)
        + np.exp(2j * a2)
        + np.exp(2j * (a1 + a2))
        + c * np.exp(1j * (a1 + 4.0 * a2))
    )


def delta0(alpha2: float) -> float:
    """The delta at which the complex-line locus meets the torus of
    J_0^- and J_-1^- (mod pi), on its (sigma, delta) grid; at alpha2 = 0
    the limit -pi/2, where the quotient below has a zero denominator."""
    if alpha2 == 0.0:
        return -math.pi / 2.0
    return math.atan((1.0 - 2.0 * math.cos(2 * alpha2)) / (2.0 * math.sin(2 * alpha2)))


# alpha* = arccos sqrt(t*), t* the root in (0, 1) of 1024 t^3 + 320 t^2 - 39 t
# - 9, as the largest double at most alpha*: up to it the column of
# `exclusion_margin` meets the ball (tests/test_tf_margin_identities.py)
ALPHA2_STAR = 1.1350434993058038


def exclusion_margin(alpha2: float) -> float:
    """TF's exclusion margin at alpha2 in (0, pi/2): the exact infimum of E /
    (|V|^2 sin^2 u), E = |<p_U, V>|^2 - |<p_V, V>|^2, over the closed ball
    part of the torus of J_0^- and J_-1^-, u = delta - delta_v the offset
    of the point's delta-column from the vertex column.  With c =
    cos(alpha2), s = sin(alpha2) and K = 3s cos u - c sin u, the column u
    meets the ball exactly when K^2 + 6 sin^2 u <= 3|K|, and its least
    ratio is 24c^2 / (3c cos u + s sin u)^2 = 24c^2 / ((8c^2 + 1) cos^2(u
    - u*)), tan u* = tan(alpha2) / 3: so the infimum is that value at the
    open column nearest u*.  Up to ALPHA2_STAR that is u* itself, and the
    margin 24c^2 / (8c^2 + 1); above it, it is the band edge u_e in (0,
    u*), the one root there of K^2 + 6 sin^2 u = 3K, bisected in `math`
    from the sign of 6 sin^2 u - K (3 - K), with 3 - K = 6 (sin^2(eps/2) + s
    sin^2(u/2)) + c sin u and eps = pi/2 - alpha2, which keeps its digits
    up to pi/2 (tests/test_tf_margin_identities.py)."""
    if alpha2 <= ALPHA2_STAR:
        c2 = math.cos(alpha2) ** 2
        return 24.0 * c2 / (8.0 * c2 + 1.0)
    # exact by Sterbenz's lemma, but for pi/2's own remainder
    eps = (math.pi / 2.0 - alpha2) + PIO2_REM
    c, s, h = math.sin(eps), math.cos(eps), math.sin(0.5 * eps) ** 2
    lo, hi = 0.0, math.atan2(s, 3.0 * c)
    u = 0.5 * hi
    while lo < u < hi:
        d = 6.0 * (h + s * math.sin(0.5 * u) ** 2) + c * math.sin(u)
        if 6.0 * math.sin(u) ** 2 < (3.0 - d) * d:
            lo = u
        else:
            hi = u
        u = 0.5 * (lo + hi)
    look = 3.0 * c * math.cos(hi) + s * math.sin(hi)
    return 24.0 * c * c / (look * look)


def elliptic_disks(n: int) -> tuple[complex, complex, float]:
    """(centre of J_0^+, centre of J_0^-, sin(half)): the projections of the
    bisectors of p_U with p_V and with p_W to the visual sphere of [p_U] at
    the elliptic order n >= 4, in the chart of rows (p_U', p_U'') where U
    acts by z -> e^{2 i beta} z, beta = 2 pi/n.

    With x = cos(beta), t = 2x + 1 = 8c^2 (c = cos alpha2, s = sin alpha2)
    and b = 128 c^3 s sin(beta) > 0, the centres are 12t cos(beta/2)
    e^{-+i beta/2} / (6t (1 + x)(2x - 1) +- b) and each radius is |centre|
    sin(half), sin(half) = sin(beta) sqrt(8t)/3.  No denominator vanishes
    at an order; where one is negative (orders 4..8) the centre lies on the
    opposite ray and the disk is the outside of its circle.  The chart
    images of p_A and p_B are e^{-i beta} and 1
    (tests/test_gc_disk_identities.py)."""
    beta = 2.0 * math.pi / n
    x = math.cos(beta)
    t = 2.0 * x + 1.0
    c2 = t / 8.0
    b = 128.0 * c2 * math.sqrt(c2 * (1.0 - c2)) * math.sin(beta)
    a = 6.0 * t * (1.0 + x) * (2.0 * x - 1.0)
    hc, hs = math.cos(0.5 * beta), math.sin(0.5 * beta)
    plus, minus = 12.0 * t * hc / (a + b), 12.0 * t * hc / (a - b)
    sin_half = math.sin(beta) * math.sqrt(8.0 * t) / 3.0
    return complex(plus * hc, -plus * hs), complex(minus * hc, minus * hs), sin_half


def schwartz_point() -> complex:
    """Trace coordinate w of the real-axis uniformization of the same link."""
    theta = math.acos(-7.0 / 8.0) / 3.0
    return 2.0 * cmath.exp(1j * theta) + cmath.exp(-2j * theta)

