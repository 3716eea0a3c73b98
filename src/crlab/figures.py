"""Deterministic figure data: CSV grids and simple SVG renderings.

Every figure is an array program: its grid is evaluated with numpy in one
pass, contours come from a vectorized marching squares, and CSV blocks are
laid out as byte arrays and streamed to the file.  Floats are written with
17 significant digits in CSV (round-trip exact) and 9 in SVG, the CSV
digits by the numpy kernel `csvfloat.g17_fields`.  Output bytes are
identical from run to run and across worker counts.  They are not
promised across numpy's and cmath's roundings: a grid evaluated by numpy
ufuncs may differ in the last bits from the same formula evaluated on
Python scalars.
"""

from __future__ import annotations

import math

import numpy as np

from .core import GeometryError
from .family import (
    ALPHA2_LIM,
    SideKind,
    alpha2_for_order,
    char_P,
    char_Q,
    discriminant_D,
    schwartz_point,
    trace_ts_inv,
)
from .isometry import goldman_f
from .bisector import level_g
from .verify import FaceFamily, delta0
from .csvfloat import G17_WIDTH, g17_fields
from .visual import project_bisector

CSV_FMT = "%.17g"
CSV_BLOCK_ROWS = 4096  # rows written, and values formatted, at a time by write_csv
SVG_PREC = 9


def write_csv(path, header, columns):
    """Write a header and one column per header name, every value as
    CSV_FMT % v, streamed to the file in blocks of CSV_BLOCK_ROWS rows.

    A column is a 1-D array, or a pair (values, index) declaring it as
    values[index] (the figures' axes and labels).  An undeclared column
    with at most half as many distinct bit patterns as rows, found by a
    sort and a count, is declared by np.unique.  Declared values are
    formatted once, the rest block by block, by `csvfloat.g17_fields`.  A
    block is one reused (rows, columns, G17_WIDTH + 1) uint8 array of
    NUL-padded fields ended by "," or a newline, written without its NULs.
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
    for j, (values, index) in enumerate(cols):
        if index is None:
            bits = np.sort(values.view(np.int64))
            if 2 * np.count_nonzero(bits[1:] != bits[:-1]) + 2 <= n:
                bits, index = np.unique(values.view(np.int64), return_inverse=True)
                values = bits.view(float)
        if index is not None:
            fields = np.empty((len(values), G17_WIDTH), dtype=np.uint8)
            for start in range(0, len(values), CSV_BLOCK_ROWS):
                fields[start : start + CSV_BLOCK_ROWS] = g17_fields(values[start : start + CSV_BLOCK_ROWS])
            cols[j] = (fields, index)
    block = np.empty((min(n, CSV_BLOCK_ROWS), len(cols), G17_WIDTH + 1), dtype=np.uint8)
    block[..., -1] = ord(",")
    block[:, -1:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            rows = block[: min(n - start, CSV_BLOCK_ROWS)]
            part = slice(start, start + len(rows))
            for j, (values, index) in enumerate(cols):
                rows[:, j, :-1] = g17_fields(values[part]) if index is None else values.take(index[part], axis=0)
            fh.write(rows.tobytes().translate(None, b"\0"))
    return path


def _grid_columns(xs, ys, *values):
    """Columns (x_i, y_j, v[i, j], ...) over xs x ys, row-major in i."""
    axes = [(xs, np.repeat(np.arange(len(xs)), len(ys))), (ys, np.tile(np.arange(len(ys)), len(xs)))]
    return axes + [v.ravel() for v in values]


class SvgCanvas:
    """Fixed 800x800 canvas with a viewBox in mathematical coordinates."""

    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax
        self.elements = []

    def _f(self, x):
        return f"%.{SVG_PREC}g" % x

    def polyline(self, points, color="#1f4e9c", width=0.002):
        self.polylines(np.asarray(points, dtype=complex)[None, :], color, width)

    def polylines(self, curves, color="#1f4e9c", width=0.002):
        """One polyline per row of an (m, k) array of complex points."""
        m, k = curves.shape
        if m == 0:
            return
        point = f"%.{SVG_PREC}g,%.{SVG_PREC}g"
        line = (
            f'<polyline fill="none" stroke="{color}" stroke-width="{self._f(width * (self.xmax - self.xmin))}" '
            f'points="{" ".join([point] * k)}"/>'
        )
        xy = np.stack([curves.real, self.ymax + self.ymin - curves.imag], axis=-1)
        self.elements.append("\n".join([line] * m) % tuple(xy.ravel().tolist()))

    def circle(self, center, r, color="#b02020"):
        cx, cy = center.real, self.ymax + self.ymin - center.imag
        self.elements.append(
            f'<circle cx="{self._f(cx)}" cy="{self._f(cy)}" r="{self._f(r)}" fill="{color}"/>'
        )

    def write(self, path):
        vb = f"{self._f(self.xmin)} {self._f(self.ymin)} {self._f(self.xmax - self.xmin)} {self._f(self.ymax - self.ymin)}"
        body = "\n".join(self.elements)
        svg = (
            '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
            f'viewBox="{vb}">\n{body}\n</svg>\n'
        )
        with open(path, "w", newline="\n") as fh:
            fh.write(svg)
        return path


def figure_level_sets(out_base, resolution=720, fmt="csv"):
    """Grid of the symmetric level function on the torus."""
    th = np.linspace(-math.pi, math.pi, resolution, endpoint=False)
    G = level_g(th[:, None], th[None, :])
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["theta", "phi", "g"], _grid_columns(th, th, G)), G
    canvas = SvgCanvas(-math.pi, math.pi, -math.pi, math.pi)
    for level in np.linspace(-1.4, 2.8, 15):
        canvas.polylines(_contour_segments(th, th, G, level))
    return canvas.write(out_base + ".svg"), G


# corners of cell (i, j) counter-clockwise from (xs[i], ys[j]); edge k runs
# from corner k to corner k + 1
_CORNER_DI = np.array([0, 1, 1, 0])
_CORNER_DJ = np.array([0, 0, 1, 1])


def _contour_segments(xs, ys, Z, level):
    """Marching-squares crossings of Z - level, one segment per cell.

    An edge whose ends lie on opposite sides of 0 (by f > 0) is cut at
    x1 + t (x2 - x1), t = f1 / (f1 - f2); a cell cut at least twice gives
    the segment through its first two cuts in edge order.  Segments come
    in row-major cell order, as the rows of a (segments, 2) complex array.
    """
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


def figure_peach_curve(out_base, resolution=256, fmt="csv"):
    """Sign data of f(tr rho(t s^-1)) over the parameter square, whose zero
    locus is the curve of non-loxodromic peripheral deformations."""
    a1s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    a2s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    F = goldman_f(trace_ts_inv(a1s[:, None], a2s[None, :]))
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["alpha1", "alpha2", "f_tr"], _grid_columns(a1s, a2s, F)), (a1s, a2s, F)
    canvas = SvgCanvas(-math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2)
    canvas.polylines(_contour_segments(a1s, a2s, F, 0.0))
    canvas.circle(complex(0, ALPHA2_LIM), 0.01)
    canvas.circle(complex(0, -ALPHA2_LIM), 0.01)
    return canvas.write(out_base + ".svg"), (a1s, a2s, F)


def figure_region_z(out_base, resolution=256, fmt="csv"):
    a1s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    a2s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    D = discriminant_D(4 * np.cos(a1s)[:, None] ** 2, 4 * np.cos(a2s)[None, :] ** 2)
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["alpha1", "alpha2", "D"], _grid_columns(a1s, a2s, D)), (a1s, a2s, D)
    canvas = SvgCanvas(-math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2)
    canvas.polylines(_contour_segments(a1s, a2s, D, 0.0))
    return canvas.write(out_base + ".svg"), (a1s, a2s, D)


def figure_disk_projection(out_base, n=20, boundary_points=512, fmt="csv"):
    """Boundary circles of the projected bisector family for an elliptic
    order-n parameter, plus the unit circle and the marked vertex images.

    Only J_0^+ and J_0^- are built and projected.  U acts on the chart by
    its multiplier m = e^{2 i beta} (`FaceFamily.chart_multiplier`), so the
    curve of J_k^+- is m^k times that of J_0^+-, and the marks are
    m^k chart(p_A) and m^k chart(p_B), k = 0..n-1.  The geometry is the same
    at every order; only the output grows with n.  An order that reads as
    the unipotent wall (10^5 at the default tolerance) raises GeometryError.
    """
    ff = FaceFamily(alpha2_for_order(n))
    if ff.side.kind is not SideKind.ELLIPTIC:
        raise GeometryError(f"order {n} reads as the unipotent wall: U has no rotation to draw")
    ch = ff.chart
    powers = ff.chart_multiplier ** np.arange(n)[:, None]
    families = {}
    for sign, b in (("plus", ff.bisector_plus(0)), ("minus", ff.bisector_minus(0))):
        boundary = project_bisector(ch, b, n_boundary=boundary_points, tol=ff.tol).boundary
        families[sign] = powers * boundary[np.isfinite(boundary)]
    curves = {(sign, k): families[sign][k] for k in range(n) for sign in ("plus", "minus")}
    marks = (powers * np.array([ch(ff.pts.p_A), ch(ff.pts.p_B)])).ravel()
    if fmt == "csv":
        # J_k^+ and J_k^- (family 0, 1) for each k, then the marks (family 2)
        p, m = families["plus"].shape[1], families["minus"].shape[1]
        z = np.concatenate([np.concatenate([families["plus"], families["minus"]], axis=1).ravel(), marks])
        family = np.append(np.tile(np.repeat([0, 1], [p, m]), n), np.full(2 * n, 2))
        k = np.append(np.repeat(np.arange(n), p + m), np.arange(2 * n))
        columns = [(np.arange(3.0), family), (np.arange(2.0 * n), k), z.real, z.imag]
        return write_csv(out_base + ".csv", ["family", "k", "re", "im"], columns), curves
    canvas = SvgCanvas(-3.2, 3.2, -3.2, 3.2)
    canvas.polyline(np.exp(1j * np.linspace(0, 2 * math.pi, 361)), color="#888888")
    for sign, color in (("plus", "#1f4e9c"), ("minus", "#0c8a3c")):
        canvas.polylines(np.concatenate([families[sign], families[sign][:, :1]], axis=1), color=color)
    for z in marks:
        canvas.circle(z, 0.02)
    return canvas.write(out_base + ".svg"), curves


def figure_spinal_trace(out_base, alpha2=0.7, resolution=361, fmt="csv"):
    """Curves on the intersection torus of two neighbouring bisectors: the
    locus inside the closed ball and the crossing loci with the third extor."""
    ff = FaceFamily(alpha2)
    sigmas = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    deltas = delta0(ff.alpha2) + np.linspace(0.0, math.pi, resolution // 2, endpoint=False)
    norms, to_u, to_v = ff.torus_minus.column_forms(sigmas, deltas, [ff.pts.p_U.v, ff.pts.p_V.v])
    side = to_u - to_v
    if fmt == "csv":
        return (
            write_csv(out_base + ".csv", ["sigma", "delta", "norm", "side"], _grid_columns(sigmas, deltas, norms, side)),
            (sigmas, deltas, norms, side),
        )
    canvas = SvgCanvas(0, 2 * math.pi, float(deltas[0]), float(deltas[-1]))
    canvas.polylines(_contour_segments(sigmas, deltas, norms, 0.0), color="#0c8a3c")
    # side is exactly 0 on the complex-line locus delta = delta0 (column 0),
    # where its sign is rounding noise; that column is left out of its contour
    canvas.polylines(_contour_segments(sigmas, deltas[1:], side[:, 1:], 0.0), color="#1f4e9c")
    return canvas.write(out_base + ".svg"), (sigmas, deltas, norms, side)


def figure_schwartz_slice(out_base, resolution=256, extent=3.2, fmt="csv"):
    """The trace-coordinate slice through the real-axis uniformization: the
    existence region of the character equations and the non-regular locus."""
    w = schwartz_point()
    xs = np.linspace(-extent, extent, resolution)
    z = np.empty((resolution, resolution), dtype=complex)
    z.real, z.imag = xs[:, None], xs[None, :]
    F = goldman_f(z)
    E = char_P(z, w) - char_Q(z, w) ** 2 / 4.0
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["re_z", "im_z", "f", "existence"], _grid_columns(xs, xs, F, E)), (xs, F, E)
    canvas = SvgCanvas(-extent, extent, -extent, extent)
    canvas.polylines(_contour_segments(xs, xs, F, 0.0))
    canvas.polylines(_contour_segments(xs, xs, E, 0.0), color="#b02020")
    return canvas.write(out_base + ".svg"), (xs, F, E)


FIGURES = {
    "level-sets": figure_level_sets,
    "peach-curve": figure_peach_curve,
    "region-z": figure_region_z,
    "disk-projection": figure_disk_projection,
    "spinal-trace": figure_spinal_trace,
    "schwartz-slice": figure_schwartz_slice,
}
