"""Deterministic figure data: CSV grids and simple SVG renderings.

All floating point output is formatted with 17 significant digits in CSV
(round-trip exact) and 9 in SVG, so repeated runs are byte-identical.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .family import (
    ALPHA2_LIM,
    FamilyParams,
    FamilyRep,
    alpha2_for_order,
    char_P,
    char_Q,
    discriminant_D,
    schwartz_point,
)
from .isometry import goldman_f
from .bisector import level_g, classify_bisector
from .verify import FaceFamily, delta0
from .visual import project_bisector

CSV_FMT = "%.17g"
SVG_PREC = 9


def _fmt(x) -> str:
    return CSV_FMT % float(x)


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    data = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(data)
    return path


class SvgCanvas:
    """Fixed 800x800 canvas with a viewBox in mathematical coordinates."""

    def __init__(self, xmin, xmax, ymin, ymax):
        self.xmin, self.xmax, self.ymin, self.ymax = xmin, xmax, ymin, ymax
        self.elements = []

    def _f(self, x):
        return f"%.{SVG_PREC}g" % x

    def polyline(self, points, color="#1f4e9c", width=0.002):
        pts = " ".join(
            f"{self._f(p.real)},{self._f(self.ymax + self.ymin - p.imag)}" for p in points
        )
        self.elements.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{self._f(width * (self.xmax - self.xmin))}" points="{pts}"/>'
        )

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
        rows = []
        for i in range(resolution):
            for j in range(resolution):
                rows.append((th[i], th[j], G[i, j]))
        return write_csv(out_base + ".csv", ["theta", "phi", "g"], rows), G
    canvas = SvgCanvas(-math.pi, math.pi, -math.pi, math.pi)
    for level in np.linspace(-1.4, 2.8, 15):
        segs = _contour_segments(th, th, G, level)
        for seg in segs:
            canvas.polyline(seg)
    return canvas.write(out_base + ".svg"), G


def _contour_segments(xs, ys, Z, level):
    """Marching-squares zero crossings of Z - level, as tiny segments."""
    F = Z - level
    segs = []
    n, m = F.shape
    for i in range(n - 1):
        for j in range(m - 1):
            corners = [
                (xs[i], ys[j], F[i, j]),
                (xs[i + 1], ys[j], F[i + 1, j]),
                (xs[i + 1], ys[j + 1], F[i + 1, j + 1]),
                (xs[i], ys[j + 1], F[i, j + 1]),
            ]
            pts = []
            for k in range(4):
                x1, y1, f1 = corners[k]
                x2, y2, f2 = corners[(k + 1) % 4]
                if (f1 > 0) != (f2 > 0):
                    t = f1 / (f1 - f2)
                    pts.append(complex(x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
            if len(pts) >= 2:
                segs.append(pts[:2])
    return segs


def figure_peach_curve(out_base, resolution=256, fmt="csv"):
    """Sign data of f(tr rho(t s^-1)) over the parameter square, whose zero
    locus is the curve of non-loxodromic peripheral deformations."""
    a1s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    a2s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    rows = []
    F = np.zeros((resolution, resolution))
    for i, a1 in enumerate(a1s):
        for j, a2 in enumerate(a2s):
            rep = FamilyRep(FamilyParams(a1, a2))
            tr = complex(np.trace(rep.V.M))
            F[i, j] = goldman_f(tr)
            rows.append((a1, a2, F[i, j]))
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["alpha1", "alpha2", "f_tr"], rows), (a1s, a2s, F)
    canvas = SvgCanvas(-math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2)
    for seg in _contour_segments(a1s, a2s, F, 0.0):
        canvas.polyline(seg)
    canvas.circle(complex(0, ALPHA2_LIM), 0.01)
    canvas.circle(complex(0, -ALPHA2_LIM), 0.01)
    return canvas.write(out_base + ".svg"), (a1s, a2s, F)


def figure_region_z(out_base, resolution=256, fmt="csv"):
    a1s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    a2s = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, resolution)
    rows = []
    D = np.zeros((resolution, resolution))
    for i, a1 in enumerate(a1s):
        for j, a2 in enumerate(a2s):
            D[i, j] = discriminant_D(4 * math.cos(a1) ** 2, 4 * math.cos(a2) ** 2)
            rows.append((a1, a2, D[i, j]))
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["alpha1", "alpha2", "D"], rows), (a1s, a2s, D)
    canvas = SvgCanvas(-math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2)
    for seg in _contour_segments(a1s, a2s, D, 0.0):
        canvas.polyline(seg)
    return canvas.write(out_base + ".svg"), (a1s, a2s, D)


def figure_disk_projection(out_base, n=20, boundary_points=512, fmt="csv"):
    """Boundary circles of the projected bisector family for an elliptic
    order-n parameter, plus the unit circle and the marked vertex images."""
    a2 = alpha2_for_order(n)
    ff = FaceFamily(a2, grid_n=256)
    ch = ff.chart
    rows = []
    curves = {}
    for k in range(n):
        for sign, point in (("plus", ff.u_power_point(k, ff.pts.p_V)),
                            ("minus", ff.u_power_point(k, ff.pts.p_W))):
            b = classify_bisector(ff.pts.p_U, point, ff.tol)
            disk = project_bisector(ch, b, n_boundary=boundary_points, tol=ff.tol)
            vals = disk.boundary[np.isfinite(disk.boundary)]
            curves[(sign, k)] = vals
            for z in vals:
                rows.append((0 if sign == "plus" else 1, k, z.real, z.imag))
    marks = []
    for k in range(n):
        marks.append(ch(ff.U.power(k).apply(ff.pts.p_A)))
        marks.append(ch(ff.U.power(k).apply(ff.pts.p_B)))
    if fmt == "csv":
        for i, z in enumerate(marks):
            rows.append((2, i, z.real, z.imag))
        path = write_csv(out_base + ".csv", ["family", "k", "re", "im"], rows)
        return path, curves
    canvas = SvgCanvas(-3.2, 3.2, -3.2, 3.2)
    unit = [cmath.exp(1j * t) for t in np.linspace(0, 2 * math.pi, 361)]
    canvas.polyline(unit, color="#888888")
    for (sign, k), vals in curves.items():
        color = "#1f4e9c" if sign == "plus" else "#0c8a3c"
        canvas.polyline(list(vals) + [vals[0]], color=color)
    for z in marks:
        canvas.circle(z, 0.02)
    return canvas.write(out_base + ".svg"), curves


def figure_spinal_trace(out_base, alpha2=0.7, resolution=361, fmt="csv"):
    """Curves on the intersection torus of two neighbouring bisectors: the
    locus inside the closed ball and the crossing loci with the third extor."""
    ff = FaceFamily(alpha2, grid_n=resolution)
    sigmas, deltas, V = ff.torus_minus.sigma_delta_grid(resolution, delta0(ff.alpha2))
    sp = ff.space
    norms = sp.norm_grid(V)
    side = np.abs(sp.inner_grid(ff.pts.p_U.v, V)) ** 2 - np.abs(sp.inner_grid(ff.pts.p_V.v, V)) ** 2
    rows = []
    for i in range(len(sigmas)):
        for j in range(len(deltas)):
            rows.append((sigmas[i], deltas[j], norms[i, j], side[i, j]))
    if fmt == "csv":
        return (
            write_csv(out_base + ".csv", ["sigma", "delta", "norm", "side"], rows),
            (sigmas, deltas, norms, side),
        )
    canvas = SvgCanvas(0, 2 * math.pi, float(deltas[0]), float(deltas[-1]))
    for seg in _contour_segments(sigmas, deltas, norms, 0.0):
        canvas.polyline(seg, color="#0c8a3c")
    for seg in _contour_segments(sigmas, deltas, side, 0.0):
        canvas.polyline(seg, color="#1f4e9c")
    return canvas.write(out_base + ".svg"), (sigmas, deltas, norms, side)


def figure_schwartz_slice(out_base, resolution=256, extent=3.2, fmt="csv"):
    """The trace-coordinate slice through the real-axis uniformization: the
    existence region of the character equations and the non-regular locus."""
    w = schwartz_point()
    xs = np.linspace(-extent, extent, resolution)
    rows = []
    F = np.zeros((resolution, resolution))
    E = np.zeros((resolution, resolution))
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            z = complex(x, y)
            F[i, j] = goldman_f(z)
            E[i, j] = char_P(z, w) - char_Q(z, w) ** 2 / 4.0
            rows.append((x, y, F[i, j], E[i, j]))
    if fmt == "csv":
        return write_csv(out_base + ".csv", ["re_z", "im_z", "f", "existence"], rows), (xs, F, E)
    canvas = SvgCanvas(-extent, extent, -extent, extent)
    for seg in _contour_segments(xs, xs, F, 0.0):
        canvas.polyline(seg)
    for seg in _contour_segments(xs, xs, E, 0.0):
        canvas.polyline(seg, color="#b02020")
    return canvas.write(out_base + ".svg"), (xs, F, E)


FIGURES = {
    "level-sets": figure_level_sets,
    "peach-curve": figure_peach_curve,
    "region-z": figure_region_z,
    "disk-projection": figure_disk_projection,
    "spinal-trace": figure_spinal_trace,
    "schwartz-slice": figure_schwartz_slice,
}
