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
import enum
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GeometryError, apply, siegel_model, tolerance
from .isometry import Isometry

ALPHA2_LIM = math.acos(math.sqrt(3.0 / 8.0))
MAX_ORDER = 10**6  # largest rotation order param_side recognizes


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
        """Evaluate a group word such as "ts^-1ts^2" in this representation."""
        M = np.eye(3, dtype=complex)
        gens = {"s": self.S.M, "t": self.T.M}
        inv = {"s": self.S.inv().M, "t": self.T.inv().M}
        for letter, power in parse_word(word):
            base = gens[letter] if power >= 0 else inv[letter]
            for _ in range(abs(power)):
                M = M @ base
        return Isometry(M, self.space)


class SideKind(enum.Enum):
    ELLIPTIC = "elliptic"
    UNIPOTENT = "unipotent"
    LOXODROMIC = "loxodromic"


@dataclass(frozen=True)
class ParamSide:
    """Which side of the unipotent wall alpha2 sits on, and the parameter there.

    delta is the square root of (tr U - 3)(tr U + 1): 2i sin(beta) on the
    elliptic side and 2 sinh(l) on the loxodromic side.
    """

    kind: SideKind
    beta: float | None = None  # rotation angle, elliptic side
    length: float | None = None  # translation length l, loxodromic side
    n: int | None = None  # order when beta = 2 pi / n exactly
    delta: complex = 0.0


def param_side(alpha2: float, tol=None) -> ParamSide:
    tol = tolerance(tol)
    tr = 8.0 * math.cos(alpha2) ** 2
    delta = cmath.sqrt((tr - 3.0) * (tr + 1.0))
    if abs(tr - 3.0) <= 10 * tol:
        return ParamSide(SideKind.UNIPOTENT, delta=0.0)
    if tr < 3.0:
        beta = math.acos((tr - 1.0) / 2.0)
        n = None
        ratio = 2.0 * math.pi / beta
        cand = round(ratio)
        if cand >= 3 and abs(ratio - cand) <= 1e-8 * cand and cand <= MAX_ORDER:
            n = int(cand)
        return ParamSide(SideKind.ELLIPTIC, beta=beta, n=n, delta=delta)
    length = math.acosh((tr - 1.0) / 2.0)
    return ParamSide(SideKind.LOXODROMIC, length=length, delta=delta)


def alpha2_for_order(n: int) -> float:
    """The alpha2 > ALPHA2_LIM at which U becomes elliptic of order n >= 4."""
    if n < 4:
        raise GeometryError("order must be at least 4")
    return math.acos(math.sqrt((2.0 * math.cos(2.0 * math.pi / n) + 1.0) / 8.0))


# the rows of the point table of `face_points`: the remarkable points, then
# the U-translates that verify reads
P_A, P_B, P_U, P_V, P_W, P_U1, P_U2, U_PA, U_PB, U_PV, U_PW, UI_PB, UI_PV, UI_PW, U2_PV, UI2_PW = range(16)


def face_points(alpha2: float) -> np.ndarray:
    """The table P, shape (16, 3), on the alpha1 = 0 slice, of the
    remarkable points p_A, p_B, p_U, p_V = S p_U, p_W = S p_V,
    p_U', p_U'' and of U p_A, U p_B, U p_V, U p_W, U^-1 p_B, U^-1 p_V,
    U^-1 p_W, U^2 p_V and U^-2 p_W (U = S^-1 T), in the order of the row
    names above.

    p_U' and p_U'' are the eigenvectors of U for the eigenvalues e^{l},
    e^{-l} (loxodromic side) or e^{i beta}, e^{-i beta} (elliptic side), in
    closed form with delta = sqrt((tr U - 3)(tr U + 1)) as in `param_side`;
    at the unipotent parameter delta = 0 and the two coincide.  Every other
    row is `core.apply` of S, U or U^-1 to a row, where J U = S^H J T is the
    form of the columns of S against those of T, and J U^-1 = T^H J S its
    adjoint."""
    params, sp = FamilyParams(0.0, alpha2), siegel_model()
    S, T = rho_s(params), rho_t(params)
    G = sp.form(S.T[:, None], T.T[None])
    UU = apply(sp.J_inv, np.stack([G.T, G.conj()])).transpose(0, 2, 1)  # U, U^-1
    e = cmath.exp(1j * alpha2)
    c8 = 8.0 * math.cos(alpha2) ** 2
    delta = cmath.sqrt((c8 - 3.0) * (c8 + 1.0))
    P = np.zeros((16, 3), dtype=complex)
    P[P_A, 0] = P[P_B, 2] = 1.0
    P[P_U] = 1.0, -math.sqrt(2.0) / 2.0 * e, e * e
    P[P_V] = apply(S, P[P_U])
    P[P_W] = apply(S, P[P_V])
    for row, d in ((P_U1, delta), (P_U2, -delta)):
        P[row] = 2.0 * (2.0 * e * e + 1.0), -math.sqrt(2.0) * e * (2.0 * e * e + 1.0 + d), -(c8 + 1.0) - d
    P[U_PA:U2_PV] = apply(UU[[0, 0, 0, 0, 1, 1, 1]], P[[P_A, P_B, P_V, P_W, P_B, P_V, P_W]])
    P[U2_PV:] = apply(UU, P[[U_PV, UI_PW]])
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


def involution_matrix(alpha2: float) -> np.ndarray:
    """The U(2,1) involution fixing p_U and swapping p_V with p_W (alpha1 = 0)."""
    e = cmath.exp(1j * alpha2)
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [-math.sqrt(2.0) * e, -1.0, 0.0],
            [-1.0, -math.sqrt(2.0) / e, 1.0],
        ],
        dtype=complex,
    )


def delta0(alpha2: float) -> float:
    """The delta at which the complex-line locus meets the torus of
    J_0^- and J_-1^- (mod pi), on its (sigma, delta) grid; at alpha2 = 0
    the limit -pi/2, where the quotient below has a zero denominator."""
    if alpha2 == 0.0:
        return -math.pi / 2.0
    return math.atan((1.0 - 2.0 * math.cos(2 * alpha2)) / (2.0 * math.sin(2 * alpha2)))


def schwartz_point() -> complex:
    """Trace coordinate w of the real-axis uniformization of the same link."""
    theta = math.acos(-7.0 / 8.0) / 3.0
    return 2.0 * cmath.exp(1j * theta) + cmath.exp(-2j * theta)

