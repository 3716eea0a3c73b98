"""Deterministic figure data: CSV grids and simple SVG renderings.

Every figure is an array program: its grid is evaluated with numpy in one
pass, contours come from a marching squares read from a 16-case table, and
CSV blocks and SVG polylines are laid out as byte arrays.  Floats are
written with 17 significant digits in CSV (round-trip exact) and 9 in SVG:
every CSV value, every polyline point and every mark's centre by the exact
numpy kernel of `csvfloat` (`g17_fields`, `g9_fields`), and the few scalar
SVG attributes (view box, stroke widths, mark radii) by %.9g itself.
Output bytes are identical from run to run, across worker counts and
across OpenBLAS kernels: no product goes through BLAS (`core.sesquilinear`,
`core.apply`).  disk-projection's and level-sets' are the same at every
numpy CPU-dispatch level too: they are `math` scalars, real cos and sin
and real arithmetic.  The others are not promised across dispatch levels
(complex products and `abs` change their last bits with them), nor across
numpy's and cmath's roundings (numpy ufuncs against Python scalars).
spinal-trace draws the torus of TF's exclusion pass, the first row array
of `verify.FaceFamily.passes`, through `bisector.column_forms`: the
sinusoids verify reads, on a grid.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GeometryError
from .family import (
    ALPHA2_LIM,
    char_P,
    char_Q,
    delta0,
    discriminant_D,
    elliptic_disks,
    schwartz_point,
    trace_ts_inv,
)
from .isometry import goldman_f
from .bisector import column_forms, level_g
from .verify import FaceFamily
from .csvfloat import g9_fields, g17_fields

CSV_FMT = "%.17g"
CSV_BLOCK_ROWS = 4096  # rows written, and undeclared values formatted, at a time by write_csv
SVG_PREC = 9


def write_csv(path, header, columns):
    """Write a header and one column per header name, every value as
    CSV_FMT % v, streamed to the file in blocks of CSV_BLOCK_ROWS rows.

    A column is a 1-D array, or a pair (values, index) declaring it as
    values[index] (the figures' axes, labels and level-sets' triangle).
    Every declared table is formatted once, all of them in one call, the
    rest block by block, by `csvfloat.g17_fields`.  A block joins each
    column's NUL-padded fields, each at its widest field (in the block, or
    among the declared values) plus one slot for "," or a newline, and is
    written without its NULs.
    """
    cols = [col if isinstance(col, tuple) else (col, None) for col in columns]
    cols = [(np.asarray(v, dtype=float), i if i is None else np.asarray(i)) for v, i in cols]
    for v, i in cols:
        if v.ndim != 1 or i is not None and (
            i.ndim != 1 or i.dtype.kind not in "iu" or i.size and not 0 <= i.min() <= i.max() < len(v)
        ):
            raise ValueError("a column is not 1-D, or its index is not 1-D integers in range")
    lengths = {len(v if i is None else i) for v, i in cols}
    if len(cols) != len(header) or len(lengths) > 1:
        raise ValueError(f"columns of lengths {sorted(lengths)} do not fit {len(header)} names")
    n = lengths.pop() if lengths else 0
    # each field's last slot takes its separator, once for declared fields
    separators = [ord(",")] * (len(cols) - 1) + [ord("\n")]
    declared = [j for j, (_, index) in enumerate(cols) if index is not None]
    if declared:
        fields = g17_fields(np.concatenate([cols[j][0] for j in declared]))
        ends = np.cumsum([len(cols[j][0]) for j in declared])
        for j, table in zip(declared, np.split(fields, ends[:-1])):
            table[:, -1] = separators[j]
            cols[j] = (table, cols[j][1])
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            part = slice(start, min(n, start + CSV_BLOCK_ROWS))
            block = []
            for (values, index), sep in zip(cols, separators):
                if index is None:
                    block.append(g17_fields(values[part]))
                    block[-1][:, -1] = sep
                else:
                    block.append(values.take(index[part], axis=0))
            fh.write(np.concatenate(block, axis=1).tobytes().translate(None, b"\0"))
    return path


def _grid_columns(xs, ys, *values):
    """Columns (x_i, y_j, v[i, j], ...) over xs x ys, row-major in i, the
    axes declared with indices of the least unsigned type that holds them; a
    value is an (len(xs), len(ys)) array or a declared (values, index) pair."""
    i, j = (np.arange(len(axis), dtype=np.min_scalar_type(len(axis))) for axis in (xs, ys))
    axes = [(xs, np.repeat(i, len(ys))), (ys, np.tile(j, len(xs)))]
    return axes + [v if isinstance(v, tuple) else v.ravel() for v in values]


class SvgCanvas:
    """Fixed 800x800 canvas with a viewBox in mathematical coordinates."""

    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax
        self.elements = []

    def _f(self, x):
        return f"%.{SVG_PREC}g" % x

    def polylines(self, curves, color="#1f4e9c"):
        """One polyline per row of an (m, k) array of complex points, every
        coordinate formatted by `csvfloat.g9_fields` in one pass: the ","
        and " " separators and a newline after each row's last point are
        written into the fields' last slots, one translate drops the NUL
        padding, and one replace turns each newline into the joint between
        two polylines."""
        m, k = curves.shape
        if m == 0:
            return
        head = (
            f'<polyline fill="none" stroke="{color}" stroke-width="{self._f(0.002 * (self.xmax - self.xmin))}" '
            'points="'
        ).encode()
        xy = np.empty((m, k, 2))
        xy[..., 0] = curves.real
        xy[..., 1] = self.ymax + self.ymin - curves.imag
        fields = g9_fields(xy.ravel())
        del xy
        ends = fields[:, -1]
        ends[0::2] = ord(",")
        ends[1::2] = ord(" ")
        ends[2 * k - 1 :: 2 * k] = ord("\n")
        ends[-1] = 0
        points = fields.tobytes().translate(None, b"\0")
        del fields, ends
        self.elements.append(b"".join([head, points.replace(b"\n", b'"/>\n' + head), b'"/>']))

    def circles(self, centers, r):
        """One mark of radius r at each point of a 1-D complex array, laid
        out as `polylines` lays out its points: every centre coordinate by
        one `g9_fields` call, a tab after each x and a newline after each y
        in the fields' last slots, one translate, and one replace for each
        of the two joints."""
        if len(centers) == 0:
            return
        xy = np.empty((len(centers), 2))
        xy[:, 0] = centers.real
        xy[:, 1] = self.ymax + self.ymin - centers.imag
        fields = g9_fields(xy.ravel())
        del xy
        ends = fields[:, -1]
        ends[0::2] = ord("\t")
        ends[1::2] = ord("\n")
        ends[-1] = 0
        head, tail = b'<circle cx="', f'" r="{self._f(r)}" fill="#b02020"/>'.encode()
        points = fields.tobytes().translate(None, b"\0").replace(b"\t", b'" cy="')
        self.elements.append(b"".join([head, points.replace(b"\n", tail + b"\n" + head), tail]))

    def write(self, path):
        vb = f"{self._f(self.xmin)} {self._f(self.ymin)} {self._f(self.xmax - self.xmin)} {self._f(self.ymax - self.ymin)}"
        head = f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="{vb}">\n'
        with open(path, "wb") as fh:
            fh.write(head.encode())
            for element in self.elements:
                fh.write(element)
                fh.write(b"\n")
            fh.write(b"</svg>\n")
        return path


def figure_level_sets(out_base, resolution=720, fmt="csv"):
    """Grid of the symmetric level function on the torus, and its 15 level
    sets, traced in one pass and drawn by one polylines call.

    G[i, j] == G[j, i] bit for bit: float + commutes, phi - theta is exactly
    -(theta - phi), and cos is even.  So the CSV declares g by its triangle
    i <= j, row by row: cell (i, j) is entry tri[min, max] of it, where
    tri[i, j] = offset[i] + j, offset[i] = i n - i (i + 1)/2, and since
    tri[i, j] <= tri[j, i] for i <= j, every cell's entry is min(tri, tri.T),
    in the least unsigned type that holds the entry count (the axes' indices
    too: `_grid_columns`).
    """
    th = np.linspace(-math.pi, math.pi, resolution, endpoint=False)
    G = level_g(th[:, None], th[None, :])
    if fmt == "csv":
        r = np.arange(resolution)
        offset = r * resolution - r * (r + 1) // 2
        r = r.astype(np.min_scalar_type(resolution * (resolution + 1) // 2))
        tri = offset.astype(r.dtype)[:, None] + r
        index = np.minimum(tri, tri.T).ravel()
        del tri
        columns = _grid_columns(th, th, (G[r[:, None] <= r], index))
        return write_csv(out_base + ".csv", ["theta", "phi", "g"], columns), G
    canvas = SvgCanvas(-math.pi, math.pi, -math.pi, math.pi)
    canvas.polylines(_contour_segments(th, th, G, np.linspace(-1.4, 2.8, 15))[0])
    return canvas.write(out_base + ".svg"), G


# corners of cell (i, j) counter-clockwise from (xs[i], ys[j]); edge k runs
# from corner k to corner k + 1
_CORNER_DI = np.array([0, 1, 1, 0])
_CORNER_DJ = np.array([0, 0, 1, 1])
# the case of a cell is its corners' bits (bit k: corner k has f > 0); an
# edge is cut where its ends' bits differ, and _FIRST_CUTS[case] is the
# first two cut edges in edge order (cases 0 and 15 have none)
_FIRST_CUTS = np.array(
    [[k for k in range(4) if (case >> k ^ case >> (k + 1) % 4) & 1][:2] or [0, 0] for case in range(16)]
)


def _contour_segments(xs, ys, Z, levels):
    """Marching-squares crossings of f = Z[p] - levels[p], one segment per
    cell, for every pair p of a stack in one call.

    Z is one (n, m) grid or a stack (p, n, m) of them, and levels one level
    or p of them; one grid or one level serves every pair.  Each pair's
    cells are classified in turn, at one grid's memory: an edge whose ends
    lie on opposite sides of 0 (by f > 0, which is Z > level exactly, as the
    difference of two doubles rounds to 0 only where they are equal) is
    cut, and a cell cut at least twice (any case but 0 and 15) gives the
    segment through its first two cuts in edge order, read from
    _FIRST_CUTS.  Then every cut of every pair is placed in one pass, at
    x1 + t (x2 - x1), t = f1 / (f1 - f2).  Returns (segs, counts): pair 0's
    segments in row-major cell order, then pair 1's, and so on, as the rows
    of a (segments, 2) complex array, which is the concatenation of one call
    per pair; and the number of each pair's segments.
    """
    levels = np.asarray(levels, dtype=float)
    stack = np.broadcast_shapes(Z.shape[:-2], levels.shape, (1,))
    Z, levels = np.broadcast_to(Z, stack + Z.shape[-2:]), np.broadcast_to(levels, stack)
    cells = []
    for grid, level in zip(Z, levels):
        pos = (grid > level).view(np.uint8)
        case = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
        ci, cj = np.nonzero((case - 1) < 14)  # uint8: cases 1..14
        cells.append((ci, cj, case[ci, cj]))
    counts = np.array([len(ci) for ci, _, _ in cells])
    ci, cj, case = (np.concatenate(part) for part in zip(*cells))
    cp = np.repeat(np.arange(len(counts)), counts)[:, None]
    level = levels[cp]
    edge = _FIRST_CUTS[case]
    i1, j1 = ci[:, None] + _CORNER_DI[edge], cj[:, None] + _CORNER_DJ[edge]
    edge = (edge + 1) % 4
    i2, j2 = ci[:, None] + _CORNER_DI[edge], cj[:, None] + _CORNER_DJ[edge]
    f1, f2 = Z[cp, i1, j1] - level, Z[cp, i2, j2] - level
    t = f1 / (f1 - f2)
    segs = np.empty(edge.shape, dtype=complex)
    segs.real = xs[i1] + t * (xs[i2] - xs[i1])
    segs.imag = ys[j1] + t * (ys[j2] - ys[j1])
    return segs, counts


def figure_peach_curve(out_base, resolution=256, fmt="csv"):
    """Sign data of f(tr rho(t s^-1)) over the parameter square, whose zero
    locus is the curve of non-loxodromic peripheral deformations."""
    a1s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    a2s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    F = goldman_f(trace_ts_inv(a1s[:, None], a2s[None, :]))
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["alpha1", "alpha2", "f_tr"], _grid_columns(a1s, a2s, F)), (a1s, a2s, F)
    canvas = SvgCanvas(-math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2)
    canvas.polylines(_contour_segments(a1s, a2s, F, 0.0)[0])
    canvas.circles(np.array([complex(0, ALPHA2_LIM), complex(0, -ALPHA2_LIM)]), 0.01)
    return canvas.write(out_base + ".svg"), (a1s, a2s, F)


def figure_region_z(out_base, resolution=256, fmt="csv"):
    a1s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    a2s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    D = discriminant_D(4 * np.cos(a1s)[:, None] ** 2, 4 * np.cos(a2s)[None, :] ** 2)
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["alpha1", "alpha2", "D"], _grid_columns(a1s, a2s, D)), (a1s, a2s, D)
    canvas = SvgCanvas(-math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2)
    canvas.polylines(_contour_segments(a1s, a2s, D, 0.0)[0])
    return canvas.write(out_base + ".svg"), (a1s, a2s, D)


def _unit_points(angles) -> np.ndarray:
    """e^{i angles}, from numpy's real cos and sin of the angles."""
    z = np.empty(np.shape(angles), dtype=complex)
    z.real, z.imag = np.cos(angles), np.sin(angles)
    return z


def figure_disk_projection(out_base, n=20, boundary_points=512, fmt="csv"):
    """Boundary circles of the projected bisector family for the elliptic
    order n >= 4, plus the unit circle and the marked vertex images.

    The disks of J_0^+ and J_0^- are closed forms in n
    (`family.elliptic_disks`): centres on the rays -+beta/2, beta = 2 pi/n,
    and radius |centre| sin(half).  U acts on the chart by z -> e^{2 i beta}
    z, so the circle of J_k^+- is that of J_0^+- turned by 2k beta, and the
    marks, the images of U^k p_A and U^k p_B (k = 0..n-1), are e^{i (j - 1)
    beta}, j = 0..2n-1.  Each circle is drawn at boundary_points angles.
    Every value comes from `math` scalars and numpy's real cos, sin and
    arithmetic, with no complex product, so the bytes are the same at every
    numpy dispatch level; and n is read exactly, so every order draws.
    """
    if n < 4:
        raise GeometryError("order must be at least 4")
    beta = 2.0 * math.pi / n
    plus, minus, sin_half = elliptic_disks(n)
    ring = _unit_points(np.linspace(0, 2 * math.pi, boundary_points, endpoint=False))
    turn = _unit_points(2.0 * beta * np.arange(n))[:, None]
    families = {}
    for sign, centre in (("plus", plus), ("minus", minus)):
        radius = abs(centre) * sin_half
        circles = families[sign] = np.empty((n, boundary_points), dtype=complex)
        circles.real = centre.real * turn.real - centre.imag * turn.imag + radius * ring.real
        circles.imag = centre.real * turn.imag + centre.imag * turn.real + radius * ring.imag
    curves = {(sign, k): families[sign][k] for k in range(n) for sign in ("plus", "minus")}
    marks = _unit_points(beta * (np.arange(2 * n) - 1.0))
    if fmt == "csv":
        # J_k^+ and J_k^- (family 0, 1) for each k, then the marks (family 2)
        z = np.concatenate([np.concatenate([families["plus"], families["minus"]], axis=1).ravel(), marks])
        family = np.append(np.tile(np.repeat([0, 1], boundary_points), n), np.full(2 * n, 2))
        k = np.append(np.repeat(np.arange(n), 2 * boundary_points), np.arange(2 * n))
        columns = [(np.arange(3.0), family), (np.arange(2.0 * n), k), z.real, z.imag]
        return write_csv(out_base + ".csv", ["family", "k", "re", "im"], columns), curves
    canvas = SvgCanvas(-3.2, 3.2, -3.2, 3.2)
    canvas.polylines(_unit_points(np.linspace(0, 2 * math.pi, 361))[None], color="#888888")
    for sign, color in (("plus", "#1f4e9c"), ("minus", "#0c8a3c")):
        canvas.polylines(np.concatenate([families[sign], families[sign][:, :1]], axis=1), color=color)
    canvas.circles(marks, 0.02)
    return canvas.write(out_base + ".svg"), curves


def figure_spinal_trace(out_base, alpha2=0.7, resolution=361, fmt="csv"):
    """Curves on the intersection torus of two neighbouring bisectors, that
    of J_0^- and J_-1^- whose exclusion pass TF reads (`FaceFamily.passes`
    row 0): the locus inside the closed ball and the crossing loci with the
    third extor, E(p_U, p_V)."""
    ff = FaceFamily(alpha2)
    sigmas = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    deltas = delta0(ff.alpha2) + np.linspace(0.0, math.pi, resolution // 2, endpoint=False)
    norms, to_u, to_v = column_forms(ff.passes[0], sigmas, deltas, ff.space)
    side = to_u - to_v
    if fmt == "csv":
        return (
            write_csv(out_base + ".csv", ["sigma", "delta", "norm", "side"], _grid_columns(sigmas, deltas, norms, side)),
            (sigmas, deltas, norms, side),
        )
    canvas = SvgCanvas(0, 2 * math.pi, float(deltas[0]), float(deltas[-1]))
    canvas.polylines(_contour_segments(sigmas, deltas, norms, 0.0)[0], color="#0c8a3c")
    # side is exactly 0 on the complex-line locus delta = delta0 (column 0),
    # where its sign is rounding noise; that column is left out of its contour
    canvas.polylines(_contour_segments(sigmas, deltas[1:], side[:, 1:], 0.0)[0], color="#1f4e9c")
    return canvas.write(out_base + ".svg"), (sigmas, deltas, norms, side)


def figure_schwartz_slice(out_base, resolution=256, fmt="csv"):
    """The trace-coordinate slice through the real-axis uniformization: the
    existence region of the character equations and the non-regular locus."""
    w = schwartz_point()
    xs = np.linspace(-3.2, 3.2, resolution)
    z = np.empty((resolution, resolution), dtype=complex)
    z.real, z.imag = xs[:, None], xs[None, :]
    F = goldman_f(z)
    E = char_P(z, w) - char_Q(z, w) ** 2 / 4.0
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["re_z", "im_z", "f", "existence"], _grid_columns(xs, xs, F, E)), (xs, F, E)
    canvas = SvgCanvas(-3.2, 3.2, -3.2, 3.2)
    segs, counts = _contour_segments(xs, xs, np.stack([F, E]), 0.0)
    f_segs, e_segs = np.split(segs, counts[:1])
    canvas.polylines(f_segs)
    canvas.polylines(e_segs, color="#b02020")
    return canvas.write(out_base + ".svg"), (xs, F, E)


FIGURES = {
    "level-sets": figure_level_sets,
    "peach-curve": figure_peach_curve,
    "region-z": figure_region_z,
    "disk-projection": figure_disk_projection,
    "spinal-trace": figure_spinal_trace,
    "schwartz-slice": figure_schwartz_slice,
}
# each figure's output rows from the keywords it is called with, defaulting
# as the figure does (cli.MAX_FIGURE_ROWS): resolution^2 grid cells,
# resolution * (resolution // 2) for spinal-trace, and 2n curves of
# boundary_points + 1 points for disk-projection
FIGURE_ROWS = {
    "level-sets": lambda resolution=720, **_: resolution * resolution,
    "peach-curve": lambda resolution=256, **_: resolution * resolution,
    "region-z": lambda resolution=256, **_: resolution * resolution,
    "disk-projection": lambda n=20, boundary_points=512, **_: 2 * n * (boundary_points + 1),
    "spinal-trace": lambda resolution=361, **_: resolution * (resolution // 2),
    "schwartz-slice": lambda resolution=256, **_: resolution * resolution,
}
