"""The two-parameter family of Z/3 * Z/3 representations into SU(2,1).

Everything is built in the Siegel model.  The family is parametrized by a
pair of angles (alpha1, alpha2); the distinguished one-parameter slice used
by the verification engine fixes alpha1 = 0.  The element U = rho(s)^-1
rho(t) drives the deformation: its trace is 8 cos^2(alpha2), so U is
loxodromic for alpha2 < ALPHA2_LIM, unipotent at ALPHA2_LIM and elliptic
beyond, where 8 cos^2(alpha2) = 2 cos(beta) + 1 ties alpha2 to the rotation
angle beta.

The slice's scalar closed forms (the side `param_side`, `alpha2_for_order`,
TF's margin `exclusion_margin` and GC's `elliptic_disks`) are defined in the
numpy-free `scalar` and imported here; this module adds the matrices, the
group words and the names of the rows of the point table, which
`reference.face_points` forms.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import siegel_model
from .isometry import Isometry
from .scalar import (
    ALPHA2_LIM,
    ALPHA2_LIM_REM,
    ALPHA2_STAR,
    PIO2_REM,
    GeometryError,
    ParamSide,
    SideKind,
    alpha2_for_order,
    elliptic_disks,
    exclusion_margin,
    param_side,
)


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


# the rows of the point table `reference.face_points`: the remarkable points,
# then the U-translates that the proofs' tie tests read
P_A, P_B, P_U, P_V, P_W, P_U1, P_U2, U_PA, U_PB, U_PV, U_PW, UI_PB, UI_PV, UI_PW = range(14)


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


def schwartz_point() -> complex:
    """Trace coordinate w of the real-axis uniformization of the same link."""
    theta = math.acos(-7.0 / 8.0) / 3.0
    return 2.0 * cmath.exp(1j * theta) + cmath.exp(-2j * theta)

