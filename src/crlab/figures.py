"""Deterministic figure data: CSV grids and simple SVG renderings.

Every figure is an array program: its grid is evaluated with numpy in one
pass, contours come from a marching squares read from a 16-case table, and
CSV blocks and SVG polylines are laid out as byte arrays.  Floats are
written with 17 significant digits in CSV (round-trip exact) and 9 in SVG:
every CSV value and every polyline point by the exact numpy kernel of
`csvfloat` (`g17_fields`, `g9_fields`), and the few scalar SVG attributes
(view box, stroke widths, marks) by %.9g itself.  Output bytes are
identical from run to run, across worker counts and across OpenBLAS
kernels: no product goes through BLAS (`core.sesquilinear`, `core.apply`).
They are not promised across numpy's CPU-dispatch levels, nor across its
and cmath's roundings (numpy ufuncs against Python scalars).
"""

from __future__ import annotations

import math

import numpy as np

from .core import GeometryError
from .family import (
    ALPHA2_LIM,
    P_A,
    P_B,
    P_U,
    P_V,
    SideKind,
    alpha2_for_order,
    char_P,
    char_Q,
    delta0,
    discriminant_D,
    schwartz_point,
    trace_ts_inv,
)
from .isometry import goldman_f
from .bisector import level_g
from .verify import FaceFamily
from .csvfloat import g9_fields, g17_fields
from .visual import circle_points

CSV_FMT = "%.17g"
CSV_BLOCK_ROWS = 4096  # rows written, and values formatted, at a time by write_csv
SVG_PREC = 9


def write_csv(path, header, columns):
    """Write a header and one column per header name, every value as
    CSV_FMT % v, streamed to the file in blocks of CSV_BLOCK_ROWS rows.

    A column is a 1-D array, or a pair (values, index) declaring it as
    values[index] (the figures' axes and labels).  An undeclared column is
    declared by its distinct bit patterns when it has at most half as many
    as rows (`_distinct`).  Declared values are formatted once, the rest
    block by block, by `csvfloat.g17_fields`.  A block joins each column's
    NUL-padded fields, each at its widest field in the block plus one slot
    for "," or a newline, and is written without its NULs.
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
            values, index = _distinct(values)
        if index is not None:
            parts = [g17_fields(values[start : start + CSV_BLOCK_ROWS]) for start in range(0, len(values), CSV_BLOCK_ROWS)]
            fields = np.zeros((len(values), max((p.shape[1] for p in parts), default=1)), dtype=np.uint8)
            for start, part in zip(range(0, len(values), CSV_BLOCK_ROWS), parts):
                fields[start : start + len(part), : part.shape[1]] = part
            cols[j] = (fields, index)
    # each field's last slot takes its separator, once for declared fields
    separators = [ord(",")] * (len(cols) - 1) + [ord("\n")]
    for (fields, index), sep in zip(cols, separators):
        if index is not None:
            fields[:, -1] = sep
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


SAMPLE_STRIDE = 16  # every 16th value of a long column is sampled by _distinct


def _distinct(values):
    """(table, inverse) with values = table[inverse], table the distinct bit
    patterns of values in increasing int64 order, when there are at most
    half as many as values; (values, None) otherwise.

    A column longer than CSV_BLOCK_ROWS whose every SAMPLE_STRIDE-th value
    has a distinct bit pattern is taken as distinct with no full sort:
    either way the bytes written are the same.  Otherwise a sort counts
    the distinct patterns, and a column that takes the table gets it and
    its inverse from one argsort.
    """
    bits = values.view(np.int64)
    n = len(bits)
    if n > CSV_BLOCK_ROWS:
        sample = np.sort(bits[::SAMPLE_STRIDE])
        if (sample[1:] != sample[:-1]).all():
            return values, None
    ordered = np.sort(bits)
    if 2 * np.count_nonzero(ordered[1:] != ordered[:-1]) + 2 > n:
        return values, None
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first].view(float), inverse


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
            f'<polyline fill="none" stroke="{color}" stroke-width="{self._f(width * (self.xmax - self.xmin))}" '
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

    def circle(self, center, r, color="#b02020"):
        cx, cy = center.real, self.ymax + self.ymin - center.imag
        self.elements.append(
            f'<circle cx="{self._f(cx)}" cy="{self._f(cy)}" r="{self._f(r)}" fill="{color}"/>'.encode()
        )

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
# the case of a cell is its corners' bits (bit k: corner k has f > 0); an
# edge is cut where its ends' bits differ, and _FIRST_CUTS[case] is the
# first two cut edges in edge order (cases 0 and 15 have none)
_FIRST_CUTS = np.array(
    [[k for k in range(4) if (case >> k ^ case >> (k + 1) % 4) & 1][:2] or [0, 0] for case in range(16)]
)


def _contour_segments(xs, ys, Z, level):
    """Marching-squares crossings of Z - level, one segment per cell.

    An edge whose ends lie on opposite sides of 0 (by f > 0) is cut at
    x1 + t (x2 - x1), t = f1 / (f1 - f2); a cell cut at least twice (any
    case but 0 and 15) gives the segment through its first two cuts in
    edge order, read from _FIRST_CUTS.  Segments come in row-major cell
    order, as the rows of a (segments, 2) complex array.
    """
    F = Z - level
    pos = (F > 0).view(np.uint8)
    case = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
    ci, cj = np.nonzero((case - 1) < 14)  # uint8: cases 1..14
    edge = _FIRST_CUTS[case[ci, cj]]
    i1, j1 = ci[:, None] + _CORNER_DI[edge], cj[:, None] + _CORNER_DJ[edge]
    edge = (edge + 1) % 4
    i2, j2 = ci[:, None] + _CORNER_DI[edge], cj[:, None] + _CORNER_DJ[edge]
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

    Only the silhouette slices of J_0^+ and J_0^- are sampled, from the
    family's one silhouette batch (`FaceFamily.silhouettes`), at
    boundary_points angles each.  U acts on the chart by its multiplier
    m = e^{2 i beta} (`FaceFamily.chart_multiplier`), so the curve of J_k^+-
    is m^k times that of J_0^+-, and the marks are m^k chart(p_A) and
    m^k chart(p_B), k = 0..n-1.  The geometry is the same
    at every order; only the output grows with n.  An order that reads as
    the unipotent wall (10^5 at the default tolerance) raises GeometryError.
    """
    ff = FaceFamily(alpha2_for_order(n))
    if ff.side.kind is not SideKind.ELLIPTIC:
        raise GeometryError(f"order {n} reads as the unipotent wall: U has no rotation to draw")
    ch = ff.chart
    powers = ff.chart_multiplier ** np.arange(n)[:, None]
    ts = np.linspace(0, 2 * math.pi, boundary_points, endpoint=False)
    families = {}
    for sign, em, ep, rho in zip(("plus", "minus"), *ff.silhouettes[1]):
        boundary = ch.values(circle_points(em, ep, rho, ts))
        families[sign] = powers * boundary[np.isfinite(boundary)]
    curves = {(sign, k): families[sign][k] for k in range(n) for sign in ("plus", "minus")}
    marks = (powers * np.array([ch(ff.P[P_A]), ch(ff.P[P_B])])).ravel()
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
    norms, to_u, to_v = ff.tori[0].column_forms(sigmas, deltas, ff.P[P_U], ff.P[P_V])
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
