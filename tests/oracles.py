"""Reference implementations that the tests compare the program against.

None of these is on a program path, and none is imported by `crlab`.  The
map below names, for each group, the program path (`src/crlab`) or the
proof module (tests/test_*_identities.py) that it ties to, and
tests/test_lint.py keeps every name here read by some test module.

- The face family's rows: the point table `point_table`
  (`reference.face_points`), the tori `TORI` of the bisectors `BISECTORS`
  (`TORUS_LIFTS`, `torus_lifts`, `torus_rows`, `face_torus` with the
  one-torus view `GiraudTorus`), TF's pass `passes`, LC's former pass
  `plus_pass` and their Gram table (`face_gram`, `gram`, `row_lengths`).
  Every proof module's tie test holds its symbols to these rows.
- The torus column stage `_column_sinusoids` and its grid forms
  `column_forms`: held to the proved forms of
  tests/test_tf_margin_identities.py and to the spinal-trace figure
  (`figures.figure_spinal_trace`, tests/test_figures.py).
- The sampled margin that TF's closed form `family.exclusion_margin` is
  held to (tests/test_tf_margin_identities.py): `column_minima` (ball
  arcs `_arcs`, critical points `_ratio_critical`, `_harmonic_roots`) on
  the columns `_offsets` about the vertex column `delta_v`, as
  `torus_exclusion` and `torus_pass` (`TORUS_GRID_DEFAULT`); itself held
  to sampled torus points (`torus_vectors`, `point`, tests/test_bisector.py).
- The bi-tangency that `verify._bitangency` reports as proved zeros:
  `giraud_circle_tangents` at the vertex angles `vertex_angles`
  (`_proj_distances`), held to tests/test_bitangency_identities.py.
- The trichotomy of an order-3 symmetric triple, which LC no longer
  decides (its triples are proved disks, tests/test_lc_identities.py,
  which holds its symbols to their box rows `lc_triples`):
  `symmetric_intersection_type` (`SymmetricIntersection`,
  `SymmetricKind`), and the grid oracle `brute_force_symmetric_kind`
  (`count_sublevel_components`, `periodic_components`, `_row_runs`,
  `_runs_overlap`, `TORUS_REFINE_FACTOR`) on `bisector.level_g`, for
  acceptance criterion 6a.
- The preconditions that tests/test_face_family_identities.py proves and
  `FaceFamily` does not run, one form each, on single `HVec`s:
  `classify_bisector` (`Bisector`, `BisectorKind`, `_length`),
  `classify_pair` (`ExtorPairKind`, `_focus_in_extor`), `giraud_torus`
  and `tangency_check`, held to the proved decisions on the golden-verdict
  parameters (tests/test_verify.py) and to acceptance criterion 6b.
- Points of bisectors: `membership` (`Membership`),
  `real_spine_endpoints`, `is_autopolar_triple`, sampled spinal surfaces
  and null circles (`spinal_samples`, `slice_boundary_circle`,
  `boundary_circle_of_plane`, `_boundary_circle`, `circle_points`, the
  null-circle kernel `_null_circles` on the polar bases `_polar_basis`,
  `_EYE3`) and the sampled tangency count `line_spinal_crossings`, for
  acceptance criteria 6b and 6c.
- The visual sphere of [p_U]: the chart `oriented_chart` in which U acts
  by `chart_multiplier` (proved in tests/test_incidence_identities.py),
  `chart`, `ext_div` and `INF` on `visual.VisualChart`, and the
  silhouettes (`silhouette_circles`, `face_silhouettes`, `_silhouettes`,
  `Silhouette`, `project_bisector` with `DiskProjection`), held to the
  closed-form disks `family.elliptic_disks` that GC and the
  disk-projection figure read (tests/test_gc_disk_identities.py,
  tests/test_figures.py).
- GC's angles at p_U: `tangent_direction`, `angle_between`, the angular
  diameter `angular_diameter` (of the Gram table `table` forms) and the
  cone rows `cone_angles`, held to
  GC's closed forms in cos(beta) (`verify.gc_check_elliptic`,
  tests/test_gc_disk_identities.py) and acceptance criterion 6c.
- The incidences that `verify` no longer checks: `vertex_products` of
  `VERTEX_PRODUCTS` and `TRANSLATION_INCIDENCES`, proved in
  tests/test_incidence_identities.py, for acceptance criterion 2.
- The group: `family_points`, `family_U`, `apply`, `power` and
  `u_power_point`, held to `family.FamilyRep`, `isometry` and 60-digit
  powers (tests/test_verify.py), and the involution `involution_matrix`
  proved in tests/test_lc_identities.py.
- The figures' former writers: `contour_segments` and
  `contour_segments_at` (`_CORNER_DI`, `_CORNER_DJ`), `svg_circles` and
  `svg_polylines`, held byte for byte to `figures._contour_segments`,
  `SvgCanvas.circles` and `SvgCanvas.polylines` (tests/test_figures.py).
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from crlab.bisector import level_g
from crlab.core import GeometryError, HVec, cross, inner, sesquilinear, siegel_model, tolerance
from crlab.family import (
    P_A, P_B, P_U, P_U1, P_U2, P_V, P_W, U_PA, U_PB, U_PV, UI_PB, UI_PV, UI_PW, FamilyParams, FamilyRep, SideKind,
)
from crlab.isometry import Isometry
from crlab.reference import Location, box, box_rows, face_points, locate, proj_equal, remarkable_points
from crlab.reference import apply as apply_rows
from crlab.visual import VisualChart

TORUS_GRID_DEFAULT = 720
# the second lifts of the bisectors of p_U: J_0^+, J_0^- and J_-1^-
BISECTORS = [P_V, P_W, UI_PW]
# the tori (J_0^-, J_-1^-), (J_0^+, J_0^-) and (J_0^+, J_-1^-) as (bisector
# of q, bisector of r), indices into BISECTORS, with their lifts (p_U, q, r)
# as rows of the point table: torus 0 carries TF's pass
# (`passes`), and the Giraud circles of tori 1 and 2 bound the
# first face (tests/test_bitangency_identities.py)
TORI = [(1, 2), (0, 1), (0, 2)]
TORUS_LIFTS = np.array([[P_U, BISECTORS[i], BISECTORS[j]] for i, j in TORI])
INF = complex(math.inf, 0.0)
_EYE3 = np.eye(3)
TORUS_REFINE_FACTOR = 4


class GiraudTorus:
    """The one-torus view of the row arrays of `passes`: the lifts
    (p, q, r) of a torus, coordinate vectors of `space`, with its box
    products rows = (q box r, p box r, q box p), as `torus_lifts` and
    `torus_rows` hold them.  Points are [(q - e^{i theta} p) box (r - e^{i phi}
    p)] = qr - e^{-i theta} pr - e^{-i phi} qp (`torus_vectors`); the
    column stage `column_forms` and the oracle `column_minima` read the row
    array (pos, neg, qr, pr, qp) instead."""

    def __init__(self, lifts, rows, space):
        self.lifts, self.rows = np.asarray(lifts), np.asarray(rows)
        self.p, self.q, self.r = self.lifts
        self.qr, self.pr, self.qp = self.rows
        self.space = space


def torus_vectors(torus, theta, phi) -> np.ndarray:
    """Torus representatives qr - e^{-i theta} pr - e^{-i phi} qp at
    broadcastable arrays of angles, shape (..., 3)."""
    return (
        torus.qr
        - np.exp(-1j * np.asarray(theta))[..., None] * torus.pr
        - np.exp(-1j * np.asarray(phi))[..., None] * torus.qp
    )


def point(torus, theta: float, phi: float) -> HVec:
    """The torus point at (theta, phi) as an HVec."""
    return HVec(torus_vectors(torus, theta, phi), torus.space)


def _proj_distances(a, b) -> np.ndarray:
    """Row by row, the distance of the unit representatives of a and b at
    optimal phase: a less its projection on b; nan for a zero row, as on a
    torus that collapses near alpha2 = pi/2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a = a / np.linalg.norm(a, axis=-1, keepdims=True)
        b = b / np.linalg.norm(b, axis=-1, keepdims=True)
        return np.linalg.norm(a - sesquilinear(b, a)[..., None] * b, axis=-1)


def vertex_angles(lifts, targets, space) -> np.ndarray:
    """(theta, phi), shape (..., 2), of the torus point at the vertex t of
    each torus of lifts (..., 3, 3) = (p, q, r) and targets (..., 3): a
    torus point is J-orthogonal to both factors q - e^{i th} p and r -
    e^{i ph} p, so e^{-i th} = <q,t>/<p,t> and e^{-i ph} = <r,t>/<p,t>."""
    g = space.form(lifts, np.asarray(targets)[..., None, :])
    return -np.angle(g[..., 1:] / g[..., :1])


def giraud_circle_tangents(lifts, rows, targets, space):
    """Affine-chart velocities, shape (..., 2), of the Giraud circles of the
    tori of lifts (..., 3, 3) and box rows (..., 3, 3) = (qr, pr, qp) at
    their vertices targets (..., 3), with the torus points V (..., 3) at
    `vertex_angles` and their projective distances (unit representatives at
    optimal phase) to the vertices, as one array evaluation.  The
    bi-tangency of the two circles bounding a face at p_A and p_B, which
    this measures, is proved once in tests/test_bitangency_identities.py."""
    PQ = np.exp(-1j * vertex_angles(lifts, targets, space))[..., None] * rows[..., 1:, :]
    # the torus point qr - e^{-i theta} pr - e^{-i phi} qp and its theta and
    # phi derivatives
    v, dv = rows[..., 0, :] - PQ[..., 0, :] - PQ[..., 1, :], 1j * PQ
    x = np.broadcast_to(targets, v.shape)
    g = 2.0 * space.form(v[..., None, :], dv).real
    # curve tangent in parameter space is orthogonal to the norm gradient
    w = (dv * (g[..., ::-1] * [-1.0, 1.0])[..., None]).sum(axis=-2)
    # velocity in the affine chart that pins the relative lift scale
    j = np.argmax(np.abs(x), axis=-1)[..., None]
    vj, wj = (np.take_along_axis(y, j, axis=-1) for y in (v, w))
    what = (w * vj - v * wj) / vj**2
    return what[np.arange(3) != j].reshape(j.shape[:-1] + (2,)), v, _proj_distances(v, x)


def point_table(ff) -> np.ndarray:
    """The point table of `reference.face_points` at a FaceFamily's alpha2,
    (14, 3), rows P_A .. UI_PW: the lifts every torus, pass, Gram table and
    chart here is built from."""
    return face_points(ff.alpha2)


def torus_lifts(ff) -> np.ndarray:
    """The lifts (p_U, q, r) of the tori of TORI, (3, 3, 3), rows of a
    FaceFamily's point table."""
    return point_table(ff)[TORUS_LIFTS]


def torus_rows(ff) -> np.ndarray:
    """The box rows (q box r, p_U box r, q box p_U) of the tori of TORI, (3,
    3, 3), in one `reference.box_rows` call; torus 0's are the last three rows of
    `passes`, to the bit."""
    lifts = torus_lifts(ff)
    return box_rows(lifts[:, [1, 0, 1]], lifts[:, [2, 2, 0]], siegel_model())


def passes(ff) -> np.ndarray:
    """TF's pass, the row array (p_U, p_V, q box r, p_U box r, q box p_U),
    (5, 3), of the torus of lifts (p_U, q, r) = (p_U, p_W, U^-1 p_W) of
    J_0^- and J_-1^-, its box rows in one `reference.box_rows` call on
    `point_table`.  The spinal-trace figure draws this torus from its
    proved forms (tests/test_tf_margin_identities.py)."""
    P = point_table(ff)
    return np.concatenate([P[[P_U, P_V]], box_rows(P[[P_W, P_U, P_W]], P[[UI_PW, UI_PW, P_U]], siegel_model())])


def column_forms(R, sigmas, deltas, space) -> list:
    """[<V, V>, |<pos, V>|^2, |<neg, V>|^2], each over |V|^2 and of shape
    (..., len(sigmas), len(deltas)), on the (sigma, delta) grid of the tori
    of the row arrays R (..., 5, 3) = (pos, neg, qr, pr, qp) of
    `_column_sinusoids`: its sinusoids evaluated at each sigma, so no torus
    point is formed; the spinal-trace figure's closed forms are held
    against it.  |V|^2 is the plain sinusoid, which cancels near its column
    minimum: on TF's pass at alpha2 = 1.56 the ratios agree with a 40-digit
    evaluation of the same points to about 8e-13 of the grid's largest
    value, and to 2e-15 at alpha2 = 0.7."""
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

    A torus point at theta = sigma + delta and phi = sigma - delta is qr -
    e^{-i sigma} B(delta), B(delta) = e^{-i delta} pr + e^{i delta} qp, so
    every form on a delta-column is a sinusoid in sigma.  Every product is a
    `core.sesquilinear` sum, elementwise on the whole broadcast, so a column
    has the same bits in any stack: the products with qr are formed once
    per row array, those with B(delta) per column."""
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


def delta_v(alpha2: float) -> float:
    """The delta of the vertex column, pi/2 + alpha2 (mod pi), on the tori of
    J_0^- with J_-1^- (vertices p_A, p_B) and of J_0^+ with J_1^+ (p_B, U
    p_A): the vertices sit at (theta, phi) = (0, pi - 2 alpha2) and (2 alpha2
    - pi, 0), the two ends of the column's ball arc
    (tests/test_vertex_identities.py)."""
    return alpha2 + math.pi / 2.0


def column_minima(R, deltas, space) -> tuple:
    """(minima, mid, half), each of shape (..., m), per column of the row
    arrays R (..., 5, 3) = (pos, neg, qr, pr, qp) and delta-columns (...,
    m) of `_column_sinusoids`: the exact minimum over sigma of E /
    |V|^2, E = |<pos, V>|^2 - |<neg, V>|^2, over the column's ball arc mid
    +- half (mid = arg C, half = arccos(A / 2|C|) for <V, V> = A - 2|C|
    cos(sigma - arg C); pi where the whole column is in the ball, nan where
    no point is); inf where the arc is empty.

    On the arc the minimum of the ratio sits at an arc end or where E' |V|^2
    - E (|V|^2)' vanishes, a constant plus one harmonic with closed-form
    roots, so no sigma is sampled.  A candidate that is no root
    (`_harmonic_roots`) is still a point of the arc, so it cannot take the
    minimum below the true one.  On the face-family tori through alpha2 =
    1.56 the values agree with a 40-digit evaluation of the same points to
    about 2e-11 relative.  `verify` ran this stage above ALPHA2_STAR until
    TF's margin became the closed form `family.exclusion_margin` there too;
    it is the sampled evidence that form is held against."""
    kpq, (A, C) = _column_sinusoids(R, deltas, space)
    mid, half = _arcs(A, C)
    # a column with an empty arc reads inf; the others are evaluated
    live = ~np.isnan(half)
    kpq, lmid, lhalf = kpq[:, :, live], mid[live], half[live]
    sines = np.array([kpq[:, 1] - kpq[:, 2], kpq[:, 0]])  # E and |V|^2
    # offsets from mid: the arc ends, then both roots in (-pi, pi]
    roots = np.array(_harmonic_roots(*_ratio_critical(*sines)))
    t = np.concatenate([[-lhalf, lhalf], math.pi - np.remainder(math.pi + lmid - roots, 2 * math.pi)])
    sigma = lmid + t
    top, bottom = sines[:, 0, None] + sines[:, 1, None] * np.cos(sigma) + sines[:, 2, None] * np.sin(sigma)
    minima = np.full(half.shape, math.inf)
    minima[live] = np.where(np.abs(t) <= lhalf, top / bottom, math.inf).min(axis=0)
    return minima, mid, half


def torus_exclusion(R, dv: float, m: int, space) -> list[float]:
    """The margin of each pass of the row arrays R (..., 5, 3) = (p, neg,
    qr, pr, qp) of `_column_sinusoids`: a pass is the claim that
    on the ball part of its torus |<z, p>| <= |<z, neg>|, p the torus's own
    first lift, holds only at its two vertices.  Both vertices are the ends
    of the ball arc of the delta-column dv (`delta_v`), where the contact
    is of second order.  The margin is the exact minimum of |<p, z>|^2 -
    |<neg, z>|^2, z unit, on the arcs of the m columns dv + (k + 1/2) pi /
    m, over sin^2(delta - dv); inf where no column meets the ball.  One
    `column_minima` call reads every pass.  Exact in sigma, sampled in
    delta."""
    offsets, sin2 = _offsets(m)
    minima, _, _ = column_minima(R, dv + offsets, space)
    return (minima / sin2).min(axis=-1).tolist()


def torus_pass(ff, grid_n: int = TORUS_GRID_DEFAULT) -> float:
    """The sampled margin of TF's pass, `torus_exclusion` of
    `passes` on grid_n // 2 columns about the vertex column
    `delta_v`, as `verify` read it above ALPHA2_STAR before the band edge
    (`family.exclusion_margin`); never below that closed form, and inf
    where no sampled column meets the ball."""
    return torus_exclusion(passes(ff), delta_v(ff.alpha2), grid_n // 2, siegel_model())


@functools.cache
def _offsets(m: int):
    """The column offsets (k + 1/2) pi / m of `torus_exclusion` and their
    sin^2, formed once per m."""
    offsets = (np.arange(m) + 0.5) * (math.pi / m)
    return offsets, np.sin(offsets) ** 2


def _arcs(A, C):
    """The ball arcs (mid, half) of `column_minima` from the terms (A, C)."""
    mod2 = 2.0 * np.abs(C)
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(A / mod2, -1.0, 1.0))
    half[A <= -mod2] = math.pi
    half[A > mod2] = math.nan
    return np.arctan2(C.imag, C.real), half  # arg C, as np.angle forms it


def _ratio_critical(num, den):
    """(k, p, q) of num' den - num den' for two sinusoids in (k, p, q) rows:
    the sin^2 and cos^2 terms sum to a constant, and the products sin cos
    cancel, so it is a constant plus one harmonic."""
    num, den = np.asarray(num), np.asarray(den)
    # q1 p0 - p1 q0, q1 k0 - k1 q0, k1 p0 - p1 k0
    return num[[2, 2, 0]] * den[[1, 0, 1]] - num[[1, 0, 1]] * den[[2, 2, 0]]


def _harmonic_roots(k, p, q):
    """The two roots phase +- arccos(-k / R) of k + R cos(sigma - phase) =
    k + p cos(sigma) + q sin(sigma); where it has none, the angles at which
    it comes nearest to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        half = np.arccos(np.clip(-k / np.hypot(p, q), -1.0, 1.0))
    phase = np.arctan2(q, p)
    return phase - half, phase + half


def _row_runs(row: np.ndarray):
    """Circular runs of True in a 1-d mask as (start, end) with end exclusive;
    a run wrapping the seam is reported with end > len(row)."""
    m = len(row)
    if row.all():
        return [(0, m)]
    if not row.any():
        return []
    ext = np.concatenate([row, row[:1]])
    d = np.diff(ext.astype(np.int8))
    starts = list(np.flatnonzero(d == 1) + 1)
    ends = list(np.flatnonzero(d == -1) + 1)
    if row[0]:
        starts.insert(0, 0)
    if len(ends) < len(starts):
        ends.append(m)
    runs = list(zip(starts, ends))
    # merge a run ending at the seam with one starting at 0 (circular wrap)
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][1] == m:
        s, _ = runs.pop()
        _, e = runs.pop(0)
        runs.append((s, e + m))
    return runs


def _runs_overlap(a, b, m):
    """Circular interval overlap on Z/m for runs in the _row_runs format."""
    for shift_a in (0, -m, m):
        s1, e1 = a[0] + shift_a, a[1] + shift_a
        if max(s1, b[0]) < min(e1, b[1]):
            return True
    return False


def periodic_components(mask: np.ndarray) -> int:
    """Number of 4-connected components of a boolean mask on the torus grid.

    Rows are run-length encoded and a union-find is run on the runs, so the
    cost scales with the number of level-curve crossings, not with cells.
    """
    n, m = mask.shape
    row_runs = [_row_runs(mask[i]) for i in range(n)]
    offsets = np.cumsum([0] + [len(r) for r in row_runs])
    total = int(offsets[-1])
    if total == 0:
        return 0
    parent = list(range(total))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for i in range(n):
        j = (i + 1) % n
        for ai, ra in enumerate(row_runs[i]):
            for bi, rb in enumerate(row_runs[j]):
                if _runs_overlap(ra, rb, m):
                    union(offsets[i] + ai, offsets[j] + bi)
    return len({find(a) for a in range(total)})


def count_sublevel_components(u: float, n: int = TORUS_GRID_DEFAULT) -> int:
    """Components of {g < -3u/2} on the torus; 1 for a disk-type
    intersection, 2 for a torus-minus-two-disks one.

    Counted on the grid of TORUS_REFINE_FACTOR * n points a side.
    """
    th = np.linspace(0.0, 2 * math.pi, TORUS_REFINE_FACTOR * n, endpoint=False)
    return periodic_components(level_g(th[:, None], th[None, :]) < -1.5 * u)


def brute_force_symmetric_kind(u: float, n: int = TORUS_GRID_DEFAULT) -> SymmetricKind:
    """Grid oracle for the trichotomy, by complement component count."""
    comps = count_sublevel_components(u, n)
    if comps == 0:
        # sublevel set empty: the whole torus has norm <= 0 cannot happen;
        # treat as the degenerate tri-circle configuration
        return SymmetricKind.TRI_CIRCLE_DISK
    if comps == 1:
        return SymmetricKind.DISK
    if comps == 2:
        return SymmetricKind.TORUS_MINUS_TWO_DISKS
    raise GeometryError(f"unexpected component count {comps}")


def spinal_samples(b: Bisector, n_alpha=96, n_t=48):
    """Representatives covering the spinal surface, by extor slices.

    Slice alpha is the polar line of q - alpha p, and its boundary circle is
    found as in `slice_boundary_circle`, for all alphas at once through the
    same batched closed forms.  Slices missing the ball are skipped.
    """
    sp = b.p.space
    alphas = np.exp(1j * np.linspace(0, 2 * math.pi, n_alpha, endpoint=False))
    poles = b.q.v - alphas[:, None] * b.p.v
    em, ep, rho, keep = _null_circles(_polar_basis(poles, sp), sp)
    if not keep.any():
        raise GeometryError("spinal surface sampling found no boundary points")
    phase = rho[keep, None] * np.exp(1j * np.linspace(0, 2 * math.pi, n_t, endpoint=False))
    return (em[keep, None, :] + phase[:, :, None] * ep[keep, None, :]).reshape(-1, 3)


def line_spinal_crossings(p: HVec, q: HVec, r: HVec, n=4096):
    """Grid oracle: count sign changes of the spinal residual along the
    boundary circle of the line through [p] and [r]."""
    circle = boundary_circle_of_plane(p, r)
    if circle is None:
        raise GeometryError("line misses the boundary sphere")
    ts = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    Z = circle(ts)
    ap = np.abs(p.space.form(p.v, Z))
    aq = np.abs(p.space.form(q.v, Z))
    res = ap - aq
    scale = float(np.maximum(ap, aq).max())
    res = np.where(np.abs(res) <= 1e-9 * max(scale, 1e-300), 0.0, res)
    signs = np.sign(res)
    # drop near-zeros so only transversal crossings flip the sign
    nz = signs[signs != 0]
    if len(nz) == 0:
        return 0
    return int(np.count_nonzero(nz != np.roll(nz, 1)))


def _null_circles(B, space):
    """Null circles of the planes spanned by the row pairs of B (..., 2, 3),
    coordinate vectors of `space`.

    Uses the eigenbasis of each restricted form [[a, b], [b*, d]], in closed
    form: with m = (a + d)/2, s = (a - d)/2 and h = hypot(s, |b|), the
    eigenvalues are lam+- = m +- h, the one of smaller modulus taken as
    det / (the other), free of the cancellation in m -+ h.  The unit
    eigenvectors, from the row of G - lam that keeps g = h + |s|, are
    (g, b*) and (b, -g) for s >= 0, else (b, g) and (-g, b*), over
    sqrt(g^2 + |b|^2).  With
    lam+ > 0 > lam-, the null points are em + rho e^{it} ep, rho =
    sqrt(-lam- / lam+).  Returns (em, ep, rho, keep); keep is False where
    the form is definite or degenerate and the line misses the ball.
    """
    G = space.form(B[..., [0, 1, 0], :], B[..., [0, 1, 1], :])
    a, d, b = G[..., 0].real, G[..., 1].real, G[..., 2]
    m, s = 0.5 * (a + d), 0.5 * (a - d)
    b2 = (b * b.conj()).real
    h = np.hypot(s, np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        big = np.where(m >= 0, m + h, m - h)
        small = (a * d - b2) / big
        lam_m, lam_p = np.where(m >= 0, small, big), np.where(m >= 0, big, small)
        g = h + np.abs(s)
        nrm = np.sqrt(g * g + b2)
        g, bn, bc = g / nrm, b / nrm, b.conj() / nrm
        up = s >= 0
        # rows v_m, v_p of one array, shape (..., 2, 2)
        v = np.empty(up.shape + (2, 2), dtype=complex)
        v[..., 0, 0], v[..., 0, 1] = np.where(up, bn, -g), np.where(up, -g, bc)
        v[..., 1, 0], v[..., 1, 1] = np.where(up, g, bn), np.where(up, bc, g)
        rho = np.sqrt(-lam_m / lam_p)
    scale = 1e-14 * np.maximum(np.abs(lam_m), np.abs(lam_p))
    keep = (lam_m < -scale) & (lam_p > scale)
    E = v[..., 0, None] * B[..., None, 0, :] + v[..., 1, None] * B[..., None, 1, :]
    return E[..., 0, :], E[..., 1, :], rho, keep


def _polar_basis(poles, space):
    """Orthonormal row pairs (..., 2, 3) spanning the polar lines of poles
    (..., 3), coordinate vectors of `space`.  The polar line of a pole is the
    Euclidean complement of w = J pole; with e the unit vector on the least
    |w_i|, it is spanned by u1 = conj(w x e) and u2 = conj(w x u1), |u1|^2 =
    |w|^2 - |w_i|^2 and |u2| = |w| |u1|, each scaled to norm 1."""
    w = apply_rows(space.J, poles)
    B = np.empty(w.shape[:-1] + (2, 3), dtype=complex)
    B[..., 0, :] = cross(w, _EYE3[np.argmin(np.abs(w), axis=-1)]).conj()
    B[..., 0, :] /= np.linalg.norm(B[..., 0, :], axis=-1, keepdims=True)
    B[..., 1, :] = cross(w, B[..., 0, :]).conj()
    B[..., 1, :] /= np.linalg.norm(B[..., 1, :], axis=-1, keepdims=True)
    return B


def circle_points(em, ep, rho, ts):
    """The points em + rho e^{it} ep at the angles ts."""
    phase = rho * np.exp(1j * np.atleast_1d(ts))
    return em[None, :] + phase[:, None] * ep[None, :]


def _boundary_circle(B, space):
    """t -> representatives of the null circle of the plane spanned by the
    rows of B, or None when that line misses the closed ball."""
    em, ep, rho, keep = _null_circles(B, space)
    if not keep:
        return None
    return lambda ts: circle_points(em, ep, rho, ts)


def boundary_circle_of_plane(p: HVec, r: HVec):
    """Parametrization t -> representatives of (span(p, r) /\\ null cone).

    Returns None when the complex line through [p], [r] misses the closed
    ball.
    """
    return _boundary_circle(np.stack([p.v, r.v]), p.space)


def slice_boundary_circle(pole_vec: HVec):
    """Boundary circle of the polar line of pole_vec, as t -> vectors."""
    sp = pole_vec.space
    return _boundary_circle(_polar_basis(pole_vec.v, sp), sp)


def tangent_direction(p: HVec, x: HVec) -> np.ndarray:
    """Initial direction at interior [p] of the geodesic toward [x].

    The lift of x is rephased so <p, x> is real negative; the direction is
    the J-orthogonal projection of x away from p.
    """
    px = inner(p, x)
    if abs(px) == 0:
        raise GeometryError("x on the polar line of p has no geodesic direction")
    phase = -px.conjugate() / abs(px)
    xv = phase * x.v
    px = -abs(px)
    u = xv - p.v * (px / p.norm())
    return u


def angle_between(p: HVec, x: HVec, y: HVec) -> float:
    """Angle at interior [p] between the geodesics toward [x] and [y]."""
    ux, uy = tangent_direction(p, x), tangent_direction(p, y)
    ip = p.space.form

    na = math.sqrt(max(ip(ux, ux).real, 1e-300))
    nb = math.sqrt(max(ip(uy, uy).real, 1e-300))
    c = ip(ux, uy).real / (na * nb)
    return math.acos(min(1.0, max(-1.0, c)))


@dataclass(frozen=True)
class Membership:
    residual: float
    location: Location
    on_extor: bool
    on_bisector: bool
    on_spinal: bool


def membership(z: HVec, b: Bisector, tol=None) -> Membership:
    """Equal-modulus residual of z against (p, q), tagged by location."""
    tol = tolerance(tol)
    ap, aq = abs(inner(z, b.p)), abs(inner(z, b.q))
    scale = max(ap, aq, _length(z) * math.sqrt(b.scale()))
    res = ap - aq
    on_extor = abs(res) <= tol * max(scale, 1e-300)
    loc = locate(z, tol)
    return Membership(
        residual=float(res),
        location=loc,
        on_extor=on_extor,
        on_bisector=on_extor and loc is Location.INSIDE,
        on_spinal=on_extor and loc is Location.BOUNDARY,
    )


def real_spine_endpoints(b: Bisector, tol=None):
    """The two boundary points of the real spine {[p + a q] : |a| = 1}.

    On the unit circle a = e^{i tau} the null condition reads
    2 <p,p> + 2 Re(a <p,q>) = 0; a metric bisector gives two solutions.
    """
    tol = tolerance(tol)
    if b.kind is not BisectorKind.METRIC_BISECTOR:
        raise GeometryError("real spine endpoints require a metric bisector")
    npp = b.p.norm()
    c = inner(b.p, b.q)
    if abs(c) < tol * max(1.0, abs(npp)):
        raise GeometryError("degenerate spine: <p,q> = 0")
    # Re(e^{i tau} c) = -<p,p>
    ratio = -npp / abs(c)
    ratio = min(1.0, max(-1.0, ratio))
    base = math.acos(ratio)
    out = []
    for s in (+1.0, -1.0):
        tau = s * base - math.atan2(c.imag, c.real)
        out.append(HVec(b.p.v + complex(math.cos(tau), math.sin(tau)) * b.q.v, b.p.space))
    return out[0], out[1]


def is_autopolar_triple(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """Three mutually orthogonal, non-isotropic points form an auto-polar triple."""
    tol = tolerance(tol)

    def _ok(a, b):
        scale = max(_length(a) * _length(b), 1e-300)
        return abs(inner(a, b)) <= tol * scale

    def _noniso(a):
        return locate(a, tol) is not Location.BOUNDARY

    return (
        _ok(p, q) and _ok(q, r) and _ok(r, p) and _noniso(p) and _noniso(q) and _noniso(r)
    )


# ---------------------------------------------------------------------------
# the per-object forms of the preconditions FaceFamily does not run: on the
# slice every bisector verify reads has equal-norm lifts, every torus pair is
# unbalanced, LC's triples are disks and the contacts at U p_A and U^-1 p_B
# are tangencies, at each alpha2 (tests/test_face_family_identities.py,
# tests/test_lc_identities.py)


class BisectorKind(enum.Enum):
    METRIC_BISECTOR = "metric-bisector"
    FAN = "fan"
    CLIFFORD_CONE = "clifford-cone"


class ExtorPairKind(enum.Enum):
    CONFOCAL = "confocal"
    BALANCED = "balanced"
    SEMI_BALANCED = "semi-balanced"
    UNBALANCED = "unbalanced"


def _length(v: HVec) -> float:
    return float(np.linalg.norm(v.v))


def table(*points: HVec):
    """(G, lengths) of the rows of HVecs in one space: the Gram table
    G[i, j] = <x_i, x_j> and the Euclidean lengths, the inputs of
    `angular_diameter`."""
    X = np.array([x.v for x in points])
    return gram(X, points[0].space), np.linalg.norm(X, axis=1)


class SymmetricKind(enum.Enum):
    DISK = "disk"
    TRI_CIRCLE_DISK = "tri-circle-disk"
    TORUS_MINUS_TWO_DISKS = "torus-minus-two-disks"


def lc_triples(ff) -> np.ndarray:
    """The box products (p box q, q box r, r box p) of LC's triples (p_U,
    p_V, p_W) and (p_U, U p_V, p_W), shape (2, 3, 3): `reference.box_rows`
    on the rows of a FaceFamily's point table, to which
    tests/test_lc_identities.py holds its symbols."""
    T = point_table(ff)[[[P_U, P_V, P_W], [P_U, U_PV, P_W]]]
    return box_rows(T, T[:, [1, 2, 0]], siegel_model())


@dataclass(frozen=True)
class Bisector:
    p: HVec
    q: HVec
    focus: HVec
    r_disc: float
    kind: BisectorKind

    def scale(self) -> float:
        return _length(self.p) * _length(self.q)


def classify_bisector(p: HVec, q: HVec, tol=None) -> Bisector:
    """Build the bisector of two equal-norm lifts and classify it by r_disc."""
    tol = tolerance(tol)
    np_, nq = p.norm(), q.norm()
    scale = max(abs(np_), abs(nq), _length(p) * _length(q))
    if abs(np_ - nq) > 1e3 * tol * max(scale, 1.0):
        raise GeometryError(f"lifts have different norms ({np_:.6g} vs {nq:.6g})")
    r = np_ * nq - abs(inner(p, q)) ** 2
    band = tol * max(1.0, abs(np_)) ** 2
    if r < -band:
        kind = BisectorKind.METRIC_BISECTOR
    elif r > band:
        kind = BisectorKind.CLIFFORD_CONE
    else:
        kind = BisectorKind.FAN
    return Bisector(p, q, box(p, q), float(r), kind)


def _focus_in_extor(f: HVec, b: Bisector, tol) -> bool:
    ap, aq = abs(inner(f, b.p)), abs(inner(f, b.q))
    scale = max(_length(f) * math.sqrt(b.scale()), 1e-300)
    return abs(ap - aq) <= tol * scale


def classify_pair(b1: Bisector, b2: Bisector, tol=None) -> ExtorPairKind:
    """Pair type from the foci: a line through a focus lies in that extor
    exactly when its second point does, so both containments reduce to two
    membership tests."""
    tol = tolerance(tol)
    f1, f2 = b1.focus, b2.focus
    if proj_equal(f1, f2, 1e3 * tol):
        if proj_equal(b1.p, b2.p, 1e-8) and proj_equal(b1.q, b2.q, 1e-8):
            raise GeometryError("extors are identical")
        return ExtorPairKind.CONFOCAL
    c1 = _focus_in_extor(f2, b1, tol * 1e3)
    c2 = _focus_in_extor(f1, b2, tol * 1e3)
    if c1 and c2:
        return ExtorPairKind.BALANCED
    if c1 or c2:
        return ExtorPairKind.SEMI_BALANCED
    return ExtorPairKind.UNBALANCED


def giraud_torus(b1: Bisector, b2: Bisector, tol=None) -> GiraudTorus:
    """The torus of E(p, q) and E(p, r) from the bisectors b1 = (p, q) and
    b2 = (p, r) of an unbalanced pair (`classify_pair`)."""
    if b1.p is not b2.p and not np.array_equal(b1.p.v, b2.p.v):
        raise GeometryError("the bisectors of a torus need a common first lift")
    kind = classify_pair(b1, b2, tolerance(tol))
    if kind is not ExtorPairKind.UNBALANCED:
        raise GeometryError(f"pair is {kind.value}; torus needs an unbalanced pair")
    lifts = np.array([b1.p.v, b1.q.v, b2.q.v])
    return GiraudTorus(lifts, (box(b1.q, b2.q).v, b2.focus.v, -b1.focus.v), b1.p.space)


@dataclass(frozen=True)
class SymmetricIntersection:
    kind: SymmetricKind
    u: float
    k_value: complex  # the common mixed Hermitian product, real negative
    l_value: float  # the common squared norm of the box products


def symmetric_intersection_type(p: HVec, q: HVec, r: HVec, tol=None) -> SymmetricIntersection:
    """Trichotomy for the intersection B(p,q) /\\ B(p,r) of an order-3
    symmetric triple, decided by u = <pxq, pxq> / <pxq, qxr> against 2/3."""
    tol = tolerance(tol)
    bpq, bqr, brp = box(p, q), box(q, r), box(r, p)
    k1, k2, k3 = inner(bpq, bqr), inner(bqr, brp), inner(brp, bpq)
    l1, l2, l3 = bpq.norm(), bqr.norm(), brp.norm()
    scale = max(abs(k1), abs(l1), 1e-300)
    sym_tol = 1e3 * tol * scale
    if max(abs(k1 - k2), abs(k2 - k3)) > sym_tol or max(abs(l1 - l2), abs(l2 - l3)) > sym_tol:
        raise GeometryError("triple is not order-3 symmetric within tolerance")
    if abs(k1.imag) > sym_tol or k1.real >= -tol * scale:
        raise GeometryError("mixed product is not real negative; hypotheses violated")
    k = k1.real
    u = l1 / k
    band = 1e3 * tol * max(1.0, abs(u))
    if u < 2.0 / 3.0 - band:
        kind = SymmetricKind.DISK
    elif u > 2.0 / 3.0 + band:
        kind = SymmetricKind.TORUS_MINUS_TWO_DISKS
    else:
        kind = SymmetricKind.TRI_CIRCLE_DISK
    return SymmetricIntersection(kind, float(u), k1, float(l1))


def tangency_check(p: HVec, q: HVec, r: HVec, tol=None) -> bool:
    """Whether the line through [p] and [r] meets the spinal surface of
    (p, q) only at [r]: with equal nonzero norms, a real nonzero <p, q> and
    r on the spinal surface, a sign eps with <p,r> = eps <q,r> while
    <q,p> != eps <p,p>."""
    tol = tolerance(tol)
    npp, nq = p.norm(), q.norm()
    scale = _length(p) * _length(q)
    if abs(npp - nq) > 1e3 * tol * max(scale, 1.0):
        raise GeometryError("tangency criterion needs equal-norm lifts")
    if abs(npp) <= 1e3 * tol * max(scale, 1.0):
        raise GeometryError("tangency criterion needs non-null lifts")
    pq = inner(p, q)
    if abs(pq.imag) > 1e3 * tol * max(scale, 1.0) or abs(pq) <= tol * scale:
        raise GeometryError("tangency criterion needs a real nonzero <p, q>")
    if locate(r, 1e3 * tol) is not Location.BOUNDARY:
        raise GeometryError("r must be a boundary point")
    pr, qr = inner(p, r), inner(q, r)
    rscale = max(abs(pr), abs(qr), 1e-300)
    if abs(abs(pr) - abs(qr)) > 1e3 * tol * rscale:
        raise GeometryError("r must lie on the spinal surface of (p, q)")
    for eps in (1.0, -1.0):
        if abs(pr - eps * qr) <= 1e3 * tol * rscale:
            if abs(pq - eps * npp) > 1e3 * tol * max(scale, 1.0):
                return True
    return False


def ext_div(num: complex, den: complex, tol=1e-12) -> complex:
    """Division on the extended complex plane with a single infinity."""
    if abs(den) <= tol * abs(num):
        if num == 0 and den == 0:
            raise GeometryError("0/0 in extended-complex division")
        return INF
    return num / den


def chart(ch: VisualChart, q) -> complex:
    """The coordinate of `VisualChart` ch, on the extended plane, of the
    line through its base and the coordinate vector q (q != base)."""
    num, den = (complex(ch.space.form(w, q)) for w in (ch.p_prime, ch.p_dprime))
    if num == 0 and den == 0:
        raise GeometryError("chart undefined at its base point")
    return ext_div(num, den)


def row_lengths(ff) -> np.ndarray:
    """The Euclidean lengths of the rows of a FaceFamily's point table, the
    scales that `angular_diameter` reads."""
    return np.linalg.norm(point_table(ff), axis=1)


def gram(X: np.ndarray, space) -> np.ndarray:
    """The Gram table G[i, j] = <X_i, X_j> of the rows of X, shape (k, 3)."""
    return space.form(X[:, None], X[None])


def face_torus(ff, i: int = 0) -> GiraudTorus:
    """The `GiraudTorus` view of torus i of TORI at a FaceFamily: 0 of J_0^-
    and J_-1^-, 1 of J_0^+ and J_0^-, 2 of J_0^+ and J_-1^-."""
    return GiraudTorus(torus_lifts(ff)[i], torus_rows(ff)[i], siegel_model())


def plus_pass(ff) -> np.ndarray:
    """LC's former exclusion pass, the row array (p_U, p_W, qr, pr, qp),
    shape (5, 3), of the torus of J_0^+ and J_1^+, lifts (p_U, p_V, U p_V):
    one `reference.box_rows` call on a FaceFamily's point table, as
    `passes` is formed.  The slice's involution carries it onto
    `passes`, its box rows negated (tests/test_lc_identities.py)."""
    P = point_table(ff)
    lifts = P[[P_U, P_V, U_PV]]
    return np.concatenate([P[[P_U, P_W]], box_rows(lifts[[1, 0, 1]], lifts[[2, 2, 0]], siegel_model())])


def face_gram(ff) -> np.ndarray:
    """The Gram table of a FaceFamily's point table P, G[i, j] = <P_i, P_j>:
    the input of `angular_diameter` and `cone_angles` and of the proofs'
    tie tests."""
    return gram(point_table(ff), siegel_model())


# the products <z, q> of unit modulus that put the ideal vertices p_A and
# p_B on the four bisectors around them, as pairs of rows of `face_points`
VERTEX_PRODUCTS = [(P_A, q) for q in (P_U, P_V, P_W, UI_PV, UI_PW)] + [(P_B, q) for q in (P_U, P_V, P_W, U_PV, UI_PW)]
# the translation incidences |<z, p_U>| = |<z, q>|: the vertices and their
# U-translates on the bisectors of p_U with p_V and with p_W
TRANSLATION_INCIDENCES = [(z, P_V) for z in (P_A, U_PA, P_B, UI_PB)] + [(z, P_W) for z in (P_A, U_PA, P_B, U_PB)]


def vertex_products(ff) -> np.ndarray:
    """The ten products of VERTEX_PRODUCTS from a FaceFamily's point table,
    each of modulus 1 at every alpha2 (tests/test_incidence_identities.py)."""
    z, q = np.array(VERTEX_PRODUCTS).T
    P = point_table(ff)
    return siegel_model().form(P[z], P[q])


def oriented_chart(ff) -> VisualChart | None:
    """The chart of the visual sphere of [p_U] from a FaceFamily's point
    table in which U acts by z -> `chart_multiplier(ff)` z; None exactly on
    the unipotent wall of `param_side`, where p_U' and p_U'' coincide.

    With the convention <u,v> = u^H J v the usual ordering (p_U', p_U'') of
    the two non-unit eigenvectors yields the reciprocal chart on the
    loxodromic side (the eigenvectors are null there, so 0 and infinity
    swap roles); the rows (p_U'', p_U') there restore the expanding
    orientation (tests/test_incidence_identities.py)."""
    if ff.side.kind is SideKind.UNIPOTENT:
        return None
    rows = (P_U2, P_U1) if ff.side.kind is SideKind.LOXODROMIC else (P_U1, P_U2)
    P = point_table(ff)
    return VisualChart(P[P_U], *P[list(rows)], siegel_model())


def chart_multiplier(ff) -> complex | None:
    """The m with chart(U x) = m chart(x) in `oriented_chart(ff)`: e^{2l} on
    the loxodromic side, e^{2 i beta} on the elliptic side, None on the
    unipotent wall.  So the chart image of J_k^+- is m^k times that of
    J_0^+-."""
    side = ff.side
    if side.kind is SideKind.LOXODROMIC:
        return complex(math.exp(2.0 * side.length))
    if side.kind is SideKind.ELLIPTIC:
        return cmath.exp(2j * side.beta)
    return None


@dataclass(frozen=True)
class Silhouette:
    """The silhouette circle |z - center| = radius of a bisector in a chart
    of its base point's visual sphere.  eps is the sign of the slice p -
    eps q it comes from; the projected disk is the circle's inside when
    bounded, else its outside."""

    center: complex
    radius: float
    eps: float
    bounded: bool


def _silhouettes(chart: VisualChart, bisectors, tol):
    """The silhouette of each bisector from the chart's base, with the
    boundary circles em + rho e^{it} ep of the slices, as (silhouettes, em,
    ep, rho), the poles' Hermitian products taken one bisector at a time."""
    poles, signs = [], []
    base = HVec(chart.base, chart.space)
    for b in bisectors:
        if not proj_equal(base, b.p, 1e-8):
            raise GeometryError("chart base must be the bisector's first lift")
        p, q, scale = b.p, b.q, b.scale()
        pq = inner(p, q)
        if abs(pq.imag) > 1e3 * tol * max(scale, 1.0) or abs(pq) <= tol * scale:
            raise GeometryError("silhouette circle needs a real nonzero <p, q>")
        eps = -math.copysign(1.0, pq.real)
        pole = HVec(p.v - eps * q.v, p.space)
        if pole.norm() <= 1e3 * tol * max(scale, 1.0):
            raise GeometryError("silhouette slice has a pole of norm <= 0")
        poles.append(pole.v)
        signs.append(eps)
    sp = chart.space
    em, ep, rho, _ = _null_circles(_polar_basis(np.array(poles), sp), sp)
    sils = []
    for eps, e_m, e_p, r in zip(signs, em, ep, rho):
        (a, bw), (c, d) = [[sp.form(x, y) for y in (e_m, r * e_p)] for x in (chart.p_prime, chart.p_dprime)]
        den = abs(c) ** 2 - abs(d) ** 2
        if abs(den) <= tol * (abs(c) ** 2 + abs(d) ** 2):
            raise GeometryError("silhouette passes through the chart's infinity")
        center = (a * c.conjugate() - bw * d.conjugate()) / den
        sils.append(Silhouette(complex(center), float(abs(a * d - bw * c) / abs(den)), eps, bool(den > 0)))
    return sils, em, ep, rho


def silhouette_circles(chart: VisualChart, bisectors, tol=None) -> list:
    """The silhouette of each bisector from its own base point, the chart's base."""
    return _silhouettes(chart, bisectors, tolerance(tol))[0]


def face_silhouettes(ff):
    """(silhouettes, (em, ep, rho)) of J_0^+ and J_0^- in a FaceFamily's
    chart, with the slices' boundary circles em + rho e^{it} ep, one row per
    bisector: what `family.elliptic_disks` gives in closed form."""
    pts = family_points(ff)
    bisectors = [classify_bisector(pts.p_U, q, ff.tol) for q in (pts.p_V, pts.p_W)]
    sils, em, ep, rho = _silhouettes(oriented_chart(ff), bisectors, ff.tol)
    return sils, (em, ep, rho)


@dataclass
class DiskProjection:
    """Projection of a bisector based at p onto the visual sphere of [p]:
    the sampled boundary in the chart, the exact silhouette circle with the
    boundary's largest distance from it, the boundary's modulus in the
    rotation-invariant chart whose 0 and infinity are the lines to [q] and
    to the focus, and whether the line to [q] projects inside the disk."""

    chart: VisualChart
    boundary: np.ndarray
    boundary_eps: float
    circle: Silhouette
    residual: float
    priv_radius: float | None
    contains_zero: bool


def project_bisector(chart: VisualChart, b: Bisector, n_boundary=1024, tol=None) -> DiskProjection:
    """Silhouette of the bisector from its own base point in a given chart:
    the circle of `silhouette_circles`, sampled at n_boundary points of its
    slice.  Off fans, the privileged chart sees that slice at one modulus."""
    (sil,), em, ep, rho = _silhouettes(chart, [b], tolerance(tol))
    pts = circle_points(em[0], ep[0], rho[0], np.linspace(0, 2 * math.pi, n_boundary, endpoint=False))
    boundary = chart.values(pts)
    finite = boundary[np.isfinite(boundary)]
    residual = float(np.abs(np.abs(finite - sil.center) - sil.radius).max())
    priv_radius = None
    if b.kind is not BisectorKind.FAN:
        priv = VisualChart(b.p.v, b.focus.v, box(b.p, b.focus).v, b.p.space)
        mods = np.abs(priv.values(pts))
        if mods.max() - mods.min() > 1e-6 * max(float(mods.mean()), 1.0):
            raise GeometryError("silhouette circle has no constant modulus in the privileged chart")
        priv_radius = float(mods.mean())
    return DiskProjection(
        chart, boundary, sil.eps, sil, residual, priv_radius,
        contains_zero=b.kind is not BisectorKind.FAN and b.r_disc < 0,
    )


def angular_diameter(G, lengths, p: int, q: int, tol) -> float:
    """The real angular diameter of the bisector of the lifts p and q seen
    from [p], read from the Gram table G and the Euclidean lengths of a
    table of lifts (`table` gives both for a few HVecs).

    With cosh^2(d/2) = <p,q><q,p> / (<p,p><q,q>) for the hyperbolic
    distance d between the two interior points, the angular radius around
    the axis toward [q] is arccos(tanh(d/4)): the angle function
    sinh(r)(cosh r + cos phi) / (1 + 2 cos phi cosh r + cosh^2 r) on the
    boundary circle (r = d/2) is decreasing in cos phi, so the extreme
    directions sit on the midpoint slice (phi = 0), not at the spine ends
    (which realize tanh(d/2), the *largest* cosine).  The diameter is twice
    the radius by rotational symmetry about the axis.  On the slice GC
    reads its closed form 2 arccos sqrt((2x + 1)/(5 - 2x)), x = cos(beta)
    (tests/test_gc_disk_identities.py).
    """
    npp, nqq = G[p, p].real, G[q, q].real
    if not (npp < -tol * lengths[p] ** 2 and nqq < -tol * lengths[q] ** 2):
        raise GeometryError("angular diameter needs two interior points")
    c2 = float(abs(G[p, q]) ** 2 / (npp * nqq))
    if c2 < 1.0:
        raise GeometryError("inconsistent distance data")
    half_d = math.acosh(math.sqrt(c2))
    return 2.0 * math.acos(math.tanh(half_d / 2.0))


def cone_angles(ff, ks) -> np.ndarray:
    """Angles at p_U from the geodesic toward p_V to those toward U^k p_V
    (column 0) and U^k p_W (column 1), shape (len(ks), 2), on the elliptic
    side of order n, from a FaceFamily's Gram table.

    U fixes p_U and scales its eigenvectors p_U', p_U'' by e^{i beta},
    e^{-i beta} with beta = 2 pi / n, so <p_U, U^k x> = <p_U, x> and in the
    orthonormal basis of the polar line that the normalized eigenvectors
    give, the unit tangent direction toward U^k x is (c' e^{ik beta},
    c'' e^{-ik beta}) for the direction (c', c'') toward x.  The angle is
    2 atan2(|d - x|, |d + x|), which keeps its precision near pi.  GC reads
    these rows in closed form (tests/test_gc_disk_identities.py).
    """
    # the directions toward p_V and p_W (rows), rephased so that <p_U, x> is
    # real negative, the geodesic direction's convention (`tangent_direction`)
    G, e = face_gram(ff), [P_U1, P_U2]
    dirs = G[e][:, [P_V, P_W]].T / np.sqrt(G[e, e].real) * -G[P_U, [P_V, P_W]].conj()[:, None]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    z = np.exp(2j * math.pi / ff.side.n * np.asarray(ks))[:, None]
    X = dirs * np.stack([z, z.conj()], axis=-1)
    d = dirs[0]
    return 2.0 * np.arctan2(np.linalg.norm(d - X, axis=-1), np.linalg.norm(d + X, axis=-1))


def family_points(ff):
    """The remarkable points of a FaceFamily's parameter as HVecs."""
    return remarkable_points(FamilyParams(0.0, ff.alpha2))


def apply(g, p: HVec) -> HVec:
    """The point g p of an Isometry g."""
    return HVec(g.M @ p.v, g.space)


def power(g, k: int):
    """g^k of an Isometry g, k of either sign."""
    return Isometry(np.linalg.matrix_power(g.M if k >= 0 else g.inv().M, abs(k)), g.space)


def family_U(ff):
    """U = S^-1 T of a FaceFamily's parameter as an Isometry."""
    return FamilyRep(FamilyParams(0.0, ff.alpha2)).word("s^-1t")


def involution_matrix(alpha2: float) -> np.ndarray:
    """The U(2,1) involution I on the alpha1 = 0 slice: I p_U = p_U, I p_V =
    p_W and I U I = U^-1, so I carries U^k p_V onto U^-k p_W for every k
    (`slice_algebra.INVOLUTION`, proved in tests/test_lc_identities.py)."""
    e = cmath.exp(1j * alpha2)
    return np.array([[1.0, 0.0, 0.0], [-math.sqrt(2.0) * e, -1.0, 0.0], [-1.0, -math.sqrt(2.0) / e, 1.0]], dtype=complex)


def u_power_point(ff, k: int, p: HVec) -> HVec:
    """U^k p, with k = 0 giving p itself.  On the elliptic side U has the
    eigenvalues 1, a = e^{i beta}, b = e^{-i beta}, so Newton's form of
    z^k on them gives U^k p = p + f[1,a] (U - I)p + f[1,a,b] (U - aI)(U - I)p
    with f[1,a] = (a^k - 1)/(a - 1) = e^{i(k-1) beta/2} sin(k beta/2) /
    sin(beta/2) and f[1,a,b] = (f[a,b] - f[1,a])/(b - 1), f[a,b] =
    sin(k beta)/sin(beta).  Since f[a,b] - f[1,a] = (a^k - 1)(a^{1-k} - 1)
    / (a^2 - 1), f[1,a,b] = sin(k beta/2) sin((k-1) beta/2) /
    (2 sin^2(beta/2) cos(beta/2)): real, and free of the difference
    quotient's cancellation, which loses digits like 1/beta toward the
    wall.  No eigenvector enters (those of a and b merge at the wall).
    Elsewhere the matrix power serves."""
    side = ff.side
    if k == 0:
        return p
    if side.kind is not SideKind.ELLIPTIC:
        return apply(power(family_U(ff), k), p)
    half = 0.5 * side.beta
    s = math.sin(half)
    f1a = cmath.exp(1j * (k - 1) * half) * (math.sin(k * half) / s)
    f1ab = math.sin(k * half) * math.sin((k - 1) * half) / (2.0 * s * s * math.cos(half))
    U = family_U(ff).M
    w = U @ p.v - p.v
    return HVec(p.v + f1a * w + f1ab * (U @ w - cmath.exp(2j * half) * w), p.space)


# corners of cell (i, j) counter-clockwise from (xs[i], ys[j]); edge k runs
# from corner k to corner k + 1
_CORNER_DI = np.array([0, 1, 1, 0])
_CORNER_DJ = np.array([0, 0, 1, 1])


def contour_segments(xs, ys, Z, levels):
    """figures._contour_segments as one pass per (grid, level) pair: Z one
    grid or a stack of them, levels one level or an array of them, and
    (segments, counts) the concatenation of `contour_segments_at` over the
    pairs and the count of each one's segments."""
    levels = np.asarray(levels, dtype=float)
    stack = np.broadcast_shapes(np.shape(Z)[:-2], levels.shape, (1,))
    grids, levels = np.broadcast_to(Z, stack + np.shape(Z)[-2:]), np.broadcast_to(levels, stack)
    parts = [contour_segments_at(xs, ys, grid, level) for grid, level in zip(grids, levels.tolist())]
    return np.concatenate(parts), np.array([len(part) for part in parts])


def contour_segments_at(xs, ys, Z, level):
    """Marching-squares crossings of Z - level, one segment per cell, as
    figures._contour_segments writes them: each cell's four cut flags are
    stacked, a cell cut at least twice keeps its first two cut edges (a
    stable argsort of the flags), and an edge is cut at t = f1 / (f1 - f2)."""
    F = Z - level
    pos = F > 0
    n, m = F.shape
    corner = [pos[di:n - 1 + di, dj:m - 1 + dj] for di, dj in zip(_CORNER_DI, _CORNER_DJ)]
    cut = np.stack([corner[k] != corner[(k + 1) % 4] for k in range(4)], axis=-1)
    ci, cj = np.nonzero(cut.sum(axis=-1) >= 2)
    edge = np.argsort(~cut[ci, cj], axis=-1, kind="stable")[:, :2]
    i1, j1 = ci[:, None] + _CORNER_DI[edge], cj[:, None] + _CORNER_DJ[edge]
    i2, j2 = ci[:, None] + _CORNER_DI[(edge + 1) % 4], cj[:, None] + _CORNER_DJ[(edge + 1) % 4]
    f1, f2 = F[i1, j1], F[i2, j2]
    t = f1 / (f1 - f2)
    segs = np.empty(edge.shape, dtype=complex)
    segs.real = xs[i1] + t * (xs[i2] - xs[i1])
    segs.imag = ys[j1] + t * (ys[j2] - ys[j1])
    return segs


def svg_circles(canvas, centers, r):
    """figures.SvgCanvas.circles as one `%.9g` f-string per mark: one circle
    of radius r per point of the 1-D complex array centers, each appended to
    canvas.elements."""
    for z in centers.tolist():
        cx, cy = z.real, canvas.ymax + canvas.ymin - z.imag
        canvas.elements.append(f'<circle cx="{"%.9g" % cx}" cy="{"%.9g" % cy}" r="{"%.9g" % r}" fill="#b02020"/>'.encode())


def svg_polylines(canvas, curves, color="#1f4e9c", width=0.002):
    """figures.SvgCanvas.polylines with every coordinate through a `%.9g`
    template over a Python tuple: one polyline per row of the (m, k)
    complex array curves, appended to canvas.elements."""
    m, k = curves.shape
    if m == 0:
        return
    point = "%.9g,%.9g"
    line = (
        f'<polyline fill="none" stroke="{color}" stroke-width="{"%.9g" % (width * (canvas.xmax - canvas.xmin))}" '
        f'points="{" ".join([point] * k)}"/>'
    )
    xy = np.stack([curves.real, canvas.ymax + canvas.ymin - curves.imag], axis=-1)
    canvas.elements.append(("\n".join([line] * m) % tuple(xy.ravel().tolist())).encode())
