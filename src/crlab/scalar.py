"""The scalar half of the program: everything `verify` and `crlab verify`
read, in `math` and `cmath` alone, with no numpy.

Since every number of a verification report is a closed form in alpha2,
the order n or the length l, the verify path needs no array: this module
holds the tolerance rule, the trace rule and order window of `isometry`,
and the side, order, TF margin and GC disks of `family`.  `core`, `isometry`
and `family` import these names back, so each stays where it was read
before (`crlab.family.param_side`, `crlab.core.tolerance`, ...), and a
process that runs only `verify` never loads numpy.
"""

from __future__ import annotations

import cmath
import enum
import math
import os
from dataclasses import dataclass

DEFAULT_TOL = 1e-9
# the format of every float a CSV or a summary line writes
CSV_FMT = "%.17g"


def tolerance(tol=None):
    """Resolve a tolerance: explicit argument > CRLAB_TOL env var > default.
    A CRLAB_TOL that is not a number raises a ValueError that names it."""
    if tol is not None:
        return float(tol)
    env = os.environ.get("CRLAB_TOL")
    if not env:
        return DEFAULT_TOL
    try:
        return float(env)
    except ValueError:
        raise ValueError(f"CRLAB_TOL={env!r} is not a number") from None


class GeometryError(ValueError):
    """Raised when an operation's geometric preconditions fail."""


# ---------------------------------------------------------------------------
# the trace rule and the order window of `isometry`

OMEGA = cmath.exp(2j * math.pi / 3)

# A trace pins the turn t of a rotation by 2 pi t to TURN_SLACK scale / |t|:
# scale is 1 for param_side's 8 cos^2 alpha2, and for a matrix M the ulps
# (at least 1) by which M's characteristic polynomial misses the SU(2,1)
# cubic of its trace.  |t - p/n| |t| / scale reads at most 1.65e-17 through
# param_side at every order n <= 3e5 (alpha2_for_order), 1.85e-17 through
# s^-1 t at orders to 232,079, and 1.92e-17 on 6,000 conjugates of s^+-1
# and t^+-1 by words of length 1-3.
TURN_SLACK = 4e-17
# the largest order that window pins: the windows of 1/n and of any p/m
# (m <= MAX_ORDER) stay apart while 2 TURN_SLACK MAX_ORDER^3 <= 1
MAX_ORDER = 232_079


class SideKind(enum.Enum):
    """An element's class by its trace."""

    ELLIPTIC = "elliptic"  # f < 0: three distinct unit eigenvalues
    UNIPOTENT = "unipotent"  # at a cusp: unipotent or the identity
    LOXODROMIC = "loxodromic"  # f > 0
    REPEATED = "repeated"  # f = 0 off the cusps: a repeated unit eigenvalue


@dataclass(frozen=True)
class TraceSide:
    kind: SideKind
    k: int  # the nearest cusp is 3 omega^k
    eps: complex  # omega^-k tr - 3


def trace_side(tau, tol=None) -> TraceSide:
    """The side of an element of trace tau, read about its nearest cusp.

    With eps = omega^-k tau - 3 = x + iy, Goldman's f(tau) equals
    108 y^2 + 4x(x^2 + 9y^2) + |eps|^4 exactly ((tau - 3)^3 (tau + 1) for
    real tau): summed so, its sign keeps its digits next to the cusp,
    where `isometry.goldman_f` loses them to cancellation.  Unipotent within
    |eps| <= 10 tol; a repeated eigenvalue where |f| is within tol of the
    size of its terms; else elliptic for f < 0 and loxodromic for f > 0.
    """
    tol = tolerance(tol)
    k = round(1.5 * cmath.phase(tau) / math.pi) % 3
    eps = tau * OMEGA**-k - 3.0
    x, y = eps.real, eps.imag
    terms = (108.0 * y * y, 4.0 * x * (x * x + 9.0 * y * y), (x * x + y * y) ** 2)
    f = sum(terms)
    if abs(eps) <= 10 * tol:
        kind = SideKind.UNIPOTENT
    elif abs(f) <= tol * sum(map(abs, terms)):
        kind = SideKind.REPEATED
    else:
        kind = SideKind.ELLIPTIC if f < 0 else SideKind.LOXODROMIC
    return TraceSide(kind, k, eps)


# ---------------------------------------------------------------------------
# the alpha1 = 0 slice of `family`: side, order, TF margin and GC disks

ALPHA2_LIM = math.acos(math.sqrt(3.0 / 8.0))
# arccos sqrt(3/8) - ALPHA2_LIM, the wall's rounding remainder
ALPHA2_LIM_REM = -4.935854701949338e-17
# pi/2 - math.pi / 2, pi/2's rounding remainder
PIO2_REM = 6.123233995736766e-17


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


def wall_gap(alpha2: float) -> float:
    """(tr U - 3)/8 = cos^2 alpha2 - cos^2 L = sin(L - alpha2) sin(L + alpha2),
    L = arccos sqrt(3/8) carried as ALPHA2_LIM + ALPHA2_LIM_REM, so that L -
    alpha2 keeps its relative digits near the wall, where 8 cos^2 alpha2 - 3
    loses them."""
    return math.sin((ALPHA2_LIM - alpha2) + ALPHA2_LIM_REM) * math.sin(ALPHA2_LIM + alpha2)


def param_side(alpha2: float, tol=None) -> ParamSide:
    """The side of alpha2 by `trace_side` of tr U = 8 cos^2 alpha2, and the
    order n where beta reads as 2 pi / n: n = round(1/t) for the turn t =
    beta / 2 pi, kept when n <= MAX_ORDER and |t - 1/n| <= TURN_SLACK / t.
    The windows about the 1/n are disjoint, so this is the n that
    `isometry.rotation_turn` reads, with no search.  The length and
    delta read tr U - 3 from `wall_gap`, with sinh^2(l/2) = (tr U - 3)/4
    from cosh l = (tr U - 1)/2, and keep their relative digits up to the
    wall."""
    tr = 8.0 * math.cos(alpha2) ** 2
    kind = trace_side(tr, tol).kind
    if kind is SideKind.UNIPOTENT:
        return ParamSide(kind, delta=0.0)
    gap = wall_gap(alpha2)
    delta = cmath.sqrt(8.0 * gap * (tr + 1.0))
    if kind is SideKind.LOXODROMIC:
        return ParamSide(kind, length=2.0 * math.asinh(math.sqrt(2.0 * gap)), delta=delta)
    beta = math.acos((tr - 1.0) / 2.0)
    turn = beta / (2.0 * math.pi)
    n = round(1.0 / turn)
    if n > MAX_ORDER or abs(turn - 1.0 / n) > TURN_SLACK / turn:
        n = None
    return ParamSide(kind, beta=beta, n=n, delta=delta)


def alpha2_for_order(n: int) -> float:
    """The alpha2 > ALPHA2_LIM at which U becomes elliptic of order n >= 4."""
    if n < 4:
        raise GeometryError("order must be at least 4")
    return math.acos(math.sqrt((2.0 * math.cos(2.0 * math.pi / n) + 1.0) / 8.0))


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
