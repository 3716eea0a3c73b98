"""Reference implementations that the tests compare the program against.

None of these is on a program path: `verify` and the figures read one
constraint per Giraud-torus column (`GiraudTorus.column_minima`) and decide
the symmetric trichotomy in closed form (`symmetric_intersection_type`).
"""

import math

import numpy as np

from crlab.bisector import SymmetricKind, _harmonic_roots, _ratio_critical, level_g
from crlab.core import GeometryError

TORUS_GRID_DEFAULT = 720
TORUS_REFINE_FACTOR = 4


def envelope_minima(torus, deltas, pos, negs, ball=True):
    """Per delta-column, the exact minimum over sigma of max_i E_i / |V|^2
    with E_i = |<pos, V>|^2 - |<neg_i, V>|^2, for coordinate vectors pos and
    neg_i: over the column's ball arc (`GiraudTorus.ball_arcs`), or over the
    whole column when ball is False; inf where the arc is empty.

    In a column every E_i and |V|^2 is a sinusoid k + p cos(sigma) + q
    sin(sigma).  On the arc the minimum of the envelope sits at an arc end,
    at a critical point of one ratio E_i / |V|^2, where E_i' |V|^2 - E_i
    (|V|^2)' vanishes, or at a crossing E_i = E_j.  Both conditions are a
    constant plus one harmonic, with closed-form roots, so the least envelope
    value over these candidates is the minimum.  With one constraint this is
    the arithmetic of `GiraudTorus.column_minima`, to the bit."""
    deltas = np.asarray(deltas, dtype=float)
    den, (top, *rest) = torus._column_rows(torus.delta_rows(deltas), [pos, *negs])
    den, top = np.array(den), np.array(top)
    nums = [top - np.array(e) for e in rest]
    if ball:
        mid, half = torus.ball_arcs(deltas)
    else:
        mid, half = np.zeros(len(deltas)), np.full(len(deltas), math.pi)
    roots = [r for e in nums for r in _harmonic_roots(*_ratio_critical(e, den))]
    roots += [r for i, e in enumerate(nums) for f in nums[:i] for r in _harmonic_roots(*(e - f))]
    # offsets from mid: the arc ends, then every root in (-pi, pi]
    t = np.stack([-half, half] + [math.pi - np.remainder(math.pi + mid - r, 2 * math.pi) for r in roots])
    cos, sin = np.cos(mid + t), np.sin(mid + t)
    env = np.max([k + p * cos + q * sin for k, p, q in nums], axis=0)
    k, p, q = den
    env /= k + p * cos + q * sin
    return np.where(np.abs(t) <= half, env, math.inf).min(axis=0)


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
