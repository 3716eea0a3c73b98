"""The figures' array kernels against the per-cell and per-value loops they
replace, kept here as oracles."""

import math
import os

import numpy as np
import pytest

from crlab.bisector import classify_bisector
from crlab.core import HVec
from crlab.family import FamilyParams, FamilyRep, alpha2_for_length, alpha2_for_order, trace_ts_inv
from crlab.figures import (
    CSV_BLOCK_ROWS,
    SVG_PREC,
    _contour_segments,
    figure_disk_projection,
    figure_level_sets,
    figure_peach_curve,
    figure_region_z,
    figure_schwartz_slice,
    figure_spinal_trace,
    write_csv,
)
from crlab.isometry import goldman_f
from crlab.verify import FaceFamily
from crlab.visual import silhouette_circle, slice_boundary_circle, spinal_samples


def contour_segments_loop(xs, ys, Z, level):
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


def _contour_cases():
    rng = np.random.default_rng(11)
    for n, m in ((2, 2), (7, 5), (31, 40)):
        xs, ys = np.sort(rng.uniform(-3, 3, n)), np.sort(rng.uniform(-2, 2, m))
        yield xs, ys, rng.standard_normal((n, m)), 0.0
        # exact zeros on the grid
        yield xs, ys, rng.integers(-1, 2, (n, m)).astype(float), 0.0
        # the level equal to grid values
        Z = rng.integers(0, 4, (n, m)) / 2.0
        yield xs, ys, Z, 1.0
        yield xs, ys, Z, float(Z[0, 0])
    th = np.linspace(-math.pi, math.pi, 36, endpoint=False)
    G = np.cos(th[:, None]) + np.cos(th[None, :]) + np.cos(th[None, :] - th[:, None])
    yield th, th, G, -1.5
    yield th, th, G, 0.5


@pytest.mark.parametrize("case", range(14))
def test_contour_segments_match_loop(case):
    xs, ys, Z, level = list(_contour_cases())[case]
    new = _contour_segments(xs, ys, Z, level)
    assert new.shape[1:] == (2,)
    assert new.tolist() == contour_segments_loop(xs, ys, Z, level)


def write_csv_loop(header, rows):
    lines = [",".join(header)] + [",".join("%.17g" % float(x) for x in row) for row in np.asarray(rows).tolist()]
    return ("\n".join(lines) + "\n").encode()


# the values %.17g writes itself, among them its longest fields (24 bytes:
# the least normal double with its sign)
SPECIAL = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1.0, 3, -1e300]
SPECIAL += [2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]


def _csv_cases():
    rng = np.random.default_rng(3)
    # every column unique: one CSV_FMT per value
    yield np.concatenate([np.reshape(SPECIAL, (-1, 2)), rng.standard_normal((40, 2)) * 1e3])
    # the specials repeated in a table column (-0.0 and 0.0 as distinct
    # patterns), next to a unique column
    table = rng.permutation(np.repeat(SPECIAL, 5))
    yield np.column_stack([table, rng.standard_normal(len(table))])
    # 20 rows: 10 distinct patterns take the table, 11 do not
    for distinct in (10, 11):
        col = np.resize(np.array(SPECIAL[:distinct]) * 7.25, 20)
        yield np.column_stack([col, rng.permutation(col)])
    # row counts around the block size: the specials in a table column that
    # spans blocks, next to a unique column
    B = CSV_BLOCK_ROWS
    for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
        table = np.resize(rng.permutation(SPECIAL), n)
        yield np.column_stack([table, rng.standard_normal(n)])


def _declared(col):
    """col as a (values, index) pair over its distinct bit patterns."""
    bits, index = np.unique(col.view(np.int64), return_inverse=True)
    return bits.view(float), index


def test_write_csv_matches_per_value_format(tmp_path):
    # each case with plain columns (the writer decides which take a table)
    # and with every column declared as a (values, index) pair
    for case, rows in enumerate(_csv_cases()):
        for form, columns in (("plain", list(rows.T)), ("declared", [_declared(c) for c in rows.T])):
            path = write_csv(str(tmp_path / f"t{case}{form}.csv"), ["a", "b"], columns)
            with open(path, "rb") as fh:
                assert fh.read() == write_csv_loop(["a", "b"], rows), (case, form)


def test_write_csv_writes_the_longest_fields_whole(tmp_path):
    # each special alone, and repeated in a column that takes the table
    for case, v in enumerate(SPECIAL):
        col = np.array([v])
        for form, columns in (("alone", [col]), ("table", [np.tile(col, 6)])):
            path = write_csv(str(tmp_path / f"t{case}{form}.csv"), ["a"], columns)
            with open(path, "rb") as fh:
                assert fh.read() == write_csv_loop(["a"], columns[0][:, None]), (v, form)


def test_write_csv_rejects_rows_that_do_not_fit_the_header(tmp_path):
    # columns that do not fit the header, or each other, raise before the
    # file is opened
    col, index = np.arange(6.0), np.arange(6)
    bad = [
        (["a", "b", "c"], [col, col]),  # more names than columns
        (["a"], [col, col]),  # more columns than names
        (["a", "b"], [col, col[:5]]),  # unequal lengths
        (["a", "b"], [col, (col, index[:5])]),  # unequal lengths, declared
        (["a", "b"], [col, col.reshape(3, 2)]),  # a 2-D column
        (["a", "b"], [col, (col.reshape(3, 2), index)]),  # 2-D values
        (["a", "b"], [col, (col, index.reshape(3, 2))]),  # a 2-D index
        (["a", "b"], [col, (col, index + 1)]),  # an index past the values
        (["a", "b"], [col, (col, index - 1)]),  # a negative index
        (["a", "b"], [col, (col, index.astype(float))]),  # a float index
        (["a", "b"], np.column_stack([col, col])),  # rows, not columns
    ]
    for header, columns in bad:
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "t.csv"), header, columns)
    assert not (tmp_path / "t.csv").exists()


def test_write_csv_peak_memory_is_bounded_by_the_file(tmp_path, monkeypatch):
    # blocks of rows go out as they are formatted: on a 100k x 4 grid table
    # (two axis columns through the string table, one unique column, and one
    # of exactly n/2 distinct values, the largest table the rule admits) the
    # traced peak stays within twice the file's size, where a whole table of
    # Python objects took about 3 times; the kernel formats at most
    # CSV_BLOCK_ROWS values at a time, distinct values included
    import tracemalloc

    import crlab.figures

    sizes = []

    def counted(x, _real=crlab.figures.g17_fields):
        sizes.append(len(x))
        return _real(x)

    monkeypatch.setattr(crlab.figures, "g17_fields", counted)
    X, Y = np.meshgrid(np.linspace(-3, 3, 400), np.linspace(-1, 1, 250), indexing="ij")
    rng = np.random.default_rng(1)
    half = rng.permutation(np.repeat(rng.standard_normal(X.size // 2), 2))
    rows = np.column_stack([X.ravel(), Y.ravel(), rng.standard_normal(X.size), half])
    path = str(tmp_path / "t.csv")
    tracemalloc.start()
    try:
        write_csv(path, ["a", "b", "c", "d"], list(rows.T))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(rows[:, 3])) == len(rows) // 2
    assert peak <= 2 * os.path.getsize(path)
    assert max(sizes) <= CSV_BLOCK_ROWS
    assert sum(sizes) == 400 + 250 + len(rows) + len(rows) // 2


def test_level_sets_csv_matches_per_value_format(tmp_path):
    # a real grid: both axes take the table, and so does the symmetric g
    path, G = figure_level_sets(str(tmp_path / "ls"), resolution=96)
    th = np.linspace(-math.pi, math.pi, 96, endpoint=False)
    T, P = np.meshgrid(th, th, indexing="ij")
    rows = np.column_stack([T.ravel(), P.ravel(), G.ravel()])
    with open(path, "rb") as fh:
        assert fh.read() == write_csv_loop(["theta", "phi", "g"], rows)


def _grid_rows_loop(xs, ys, *values):
    return [[xs[i], ys[j]] + [v[i][j] for v in values] for i in range(len(xs)) for j in range(len(ys))]


@pytest.mark.parametrize("name", ["peach-curve", "region-z", "spinal-trace", "schwartz-slice"])
def test_grid_figure_csv_matches_per_value_format(name, tmp_path):
    # the declared axes and the value columns, against a per-cell loop over
    # the arrays the figure returns
    base = str(tmp_path / "f")
    if name == "peach-curve":
        path, (xs, ys, F) = figure_peach_curve(base, resolution=17)
        header, rows = ["alpha1", "alpha2", "f_tr"], _grid_rows_loop(xs, ys, F)
    elif name == "region-z":
        path, (xs, ys, D) = figure_region_z(base, resolution=16)
        header, rows = ["alpha1", "alpha2", "D"], _grid_rows_loop(xs, ys, D)
    elif name == "spinal-trace":
        path, (sigmas, deltas, norms, side) = figure_spinal_trace(base, alpha2=0.7, resolution=24)
        header, rows = ["sigma", "delta", "norm", "side"], _grid_rows_loop(sigmas, deltas, norms, side)
    else:
        path, (xs, F, E) = figure_schwartz_slice(base, resolution=20)
        header, rows = ["re_z", "im_z", "f", "existence"], _grid_rows_loop(xs, xs, F, E)
    with open(path, "rb") as fh:
        assert fh.read() == write_csv_loop(header, rows)


def test_disk_projection_csv_matches_per_value_format(tmp_path):
    # the declared family and k labels: the plus and minus curves of each k,
    # then the marks m^k chart(p_A), m^k chart(p_B) numbered in order
    n = 9
    path, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=32)
    ff = FaceFamily(alpha2_for_order(n))
    rows = []
    for k in range(n):
        for family, sign in enumerate(("plus", "minus")):
            rows += [[family, k, z.real, z.imag] for z in curves[(sign, k)].tolist()]
    # the marks as the figure forms them (numpy's complex power)
    marks = ff.chart_multiplier ** np.arange(n)[:, None] * np.array([ff.chart(ff.pts.p_A), ff.chart(ff.pts.p_B)])
    rows += [[2, i, z.real, z.imag] for i, z in enumerate(marks.ravel().tolist())]
    with open(path, "rb") as fh:
        assert fh.read() == write_csv_loop(["family", "k", "re", "im"], rows)


def test_trace_ts_inv_matches_rep():
    rng = np.random.default_rng(5)
    a1 = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 200)
    a2 = rng.uniform(-math.pi / 2, math.pi / 2, 200)
    got = trace_ts_inv(a1, a2)
    want = [np.trace(FamilyRep(FamilyParams(x, y)).V.M) for x, y in zip(a1, a2)]
    assert np.abs(got - want).max() <= 1e-13
    a2 = np.linspace(-math.pi / 2, math.pi / 2, 101)
    assert np.abs(trace_ts_inv(0.0, a2) - 8 * np.cos(a2) ** 2).max() <= 1e-14


def test_goldman_f_arrays_and_scalars():
    rng = np.random.default_rng(9)
    z = rng.uniform(-4, 4, 300) + 1j * rng.uniform(-4, 4, 300)
    for w in z[:20].tolist():
        # scalar path: the formula on Python complex, bit for bit
        assert goldman_f(w) == abs(w) ** 4 - 8.0 * (w**3).real + 18.0 * abs(w) ** 2 - 27.0
    scalars = np.array([goldman_f(w) for w in z.tolist()])
    assert goldman_f(z).shape == z.shape
    assert np.allclose(goldman_f(z), scalars, rtol=1e-12, atol=1e-12)
    assert goldman_f(z.reshape(20, 15)).shape == (20, 15)


def spinal_samples_loop(b, n_alpha, n_t):
    out = []
    for alpha in np.exp(1j * np.linspace(0, 2 * math.pi, n_alpha, endpoint=False)):
        circ = slice_boundary_circle(HVec(b.q.v - alpha * b.p.v, b.p.space))
        if circ is not None:
            out.append(circ(np.linspace(0, 2 * math.pi, n_t, endpoint=False)))
    return np.concatenate(out, axis=0)


@pytest.mark.parametrize("alpha2", [alpha2_for_order(9), alpha2_for_order(20), alpha2_for_length(1.0)])
def test_spinal_samples_match_slice_loop(alpha2, ball):
    ff = FaceFamily(alpha2, grid_n=64)
    bisectors = [ff.bisector_plus(1), ff.bisector_minus(2)]
    bisectors.append(classify_bisector(HVec([0, 0, 1.0], ball), HVec([math.sinh(1.2), 0, math.cosh(1.2)], ball)))
    for b in bisectors:
        for n_alpha, n_t in ((96, 48), (37, 5)):
            got, want = spinal_samples(b, n_alpha, n_t), spinal_samples_loop(b, n_alpha, n_t)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("alpha2", [0.05, 0.7, 1.2, 1.56])
def test_spinal_trace_side_vanishes_on_the_complex_line_column(alpha2, tmp_path):
    # the first delta-column is the complex-line locus delta = delta0, where
    # side is exactly 0 and left out of its contour; the next one is not
    _, (_, _, _, side) = figure_spinal_trace(str(tmp_path / "st"), alpha2=alpha2, resolution=720, fmt="svg")
    top = np.abs(side).max()
    assert np.abs(side[:, 0]).max() <= 1e-12 * top
    assert np.abs(side[:, 1]).max() > 1e-12 * top


@pytest.mark.parametrize("n", [20, 1000])
def test_disk_projection_builds_two_bisectors_at_every_order(n, tmp_path, monkeypatch):
    # J_0^+ and J_0^- are built and projected once each; every translate is
    # read from them by the chart multiplier
    import sys

    import crlab.bisector
    import crlab.visual

    calls = {}
    for home, name in ((crlab.bisector, "classify_bisector"), (crlab.visual, "project_bisector")):
        real = getattr(home, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key.startswith("crlab")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    for fmt in ("csv", "svg"):
        calls.update(classify_bisector=0, project_bisector=0)
        figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=64, fmt=fmt)
        assert calls == {"classify_bisector": 2, "project_bisector": 2}


@pytest.mark.parametrize("n", [20, 100])
def test_disk_projection_translates_lie_on_their_silhouettes(n, tmp_path):
    # oracle: each translate J_k^+- built from U^k p_V or U^k p_W and its
    # circle taken by silhouette_circle, the way the figure once drew it; the
    # marks against the chart images of U^k p_A and U^k p_B
    path, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=256)
    ff = FaceFamily(alpha2_for_order(n), grid_n=256)
    pts = ff.pts
    assert list(curves) == [(sign, k) for k in range(n) for sign in ("plus", "minus")]
    for (sign, k), z in curves.items():
        q = ff.u_power_point(k, pts.p_V if sign == "plus" else pts.p_W)
        sil = silhouette_circle(ff.chart, classify_bisector(pts.p_U, q, ff.tol), ff.tol)
        assert len(z) == 256
        assert np.abs(np.abs(z - sil.center) - sil.radius).max() <= 1e-9 * max(abs(sil.center), sil.radius)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    marks = rows[rows[:, 0] == 2]
    assert marks[:, 1].tolist() == list(range(2 * n))
    for j, (re, im) in enumerate(marks[:, 2:]):
        want = ff.chart(ff.u_power_point(j // 2, (pts.p_A, pts.p_B)[j % 2]))
        assert abs(complex(re, im) - want) <= 1e-9 * max(1.0, abs(want))


def test_disk_projection_svg_draws_each_family_as_closed_polylines(tmp_path):
    # after the unit circle, the n curves of the plus family and then the n
    # of the minus family, each closed on its first point, in SVG_PREC digits
    import xml.etree.ElementTree as ET

    n = 9
    path, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=64, fmt="svg")
    lines = ET.parse(path).getroot().findall("{http://www.w3.org/2000/svg}polyline")
    assert len(lines) == 1 + 2 * n
    for line, key in zip(lines[1:], [(sign, k) for sign in ("plus", "minus") for k in range(n)]):
        z = np.append(curves[key], curves[key][0])
        want = " ".join(f"%.{SVG_PREC}g,%.{SVG_PREC}g" % (w.real, 0.0 - w.imag) for w in z.tolist())
        assert line.attrib["points"] == want
        assert line.attrib["stroke"] == ("#1f4e9c" if key[0] == "plus" else "#0c8a3c")
