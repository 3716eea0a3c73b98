"""The figures' array kernels against the per-cell and per-value loops they
replace, kept here as oracles."""

import math
import os

import numpy as np
import pytest

from crlab.core import HVec
from crlab.family import FamilyParams, FamilyRep, alpha2_for_order, trace_ts_inv
from crlab.figures import (
    CSV_BLOCK_ROWS,
    SVG_PREC,
    SvgCanvas,
    _contour_segments,
    _grid_columns,
    figure_disk_projection,
    figure_level_sets,
    figure_peach_curve,
    figure_region_z,
    figure_schwartz_slice,
    figure_spinal_trace,
    write_csv,
)
from crlab.isometry import goldman_f
from crlab.reference import alpha2_for_length
from crlab.verify import FaceFamily

from oracles import (
    chart,
    classify_bisector,
    contour_segments,
    contour_segments_at,
    family_points,
    oriented_chart,
    silhouette_circles,
    slice_boundary_circle,
    spinal_samples,
    svg_circles,
    svg_polylines,
    u_power_point,
)


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
    new, counts = _contour_segments(xs, ys, Z, level)
    assert new.shape[1:] == (2,) and counts.tolist() == [len(new)]
    assert new.tolist() == contour_segments_loop(xs, ys, Z, level)


def test_contour_table_matches_the_oracle_over_all_levels():
    # the 16-case table against the stack/sum/argsort path it replaced:
    # the level-sets levels at the tier-1 and benchmark resolutions, the
    # zero contours of the other grid figures, and levels at grid values
    th_levels = np.linspace(-1.4, 2.8, 15)
    for res in (64, 66, 96, 720):
        th = np.linspace(-math.pi, math.pi, res, endpoint=False)
        G = np.cos(th[:, None]) + np.cos(th[None, :]) + np.cos(th[None, :] - th[:, None])
        for level in list(th_levels) + [float(G[0, 0]), float(G[1, 2]), float(G.min()), float(G.max())]:
            assert np.array_equal(_contour_segments(th, th, G, level)[0], contour_segments_at(th, th, G, level))
    for res in (64, 65, 100, 160):
        xs = np.linspace(-3.2, 3.2, res)
        Z = xs[:, None] ** 2 - xs[None, :] ** 3 + np.round(xs[:, None])
        for level in (0.0, 1.0, -2.0, float(Z[3, 5])):
            assert np.array_equal(_contour_segments(xs, xs[::-1], Z, level)[0], contour_segments_at(xs, xs[::-1], Z, level))
    for case in _contour_cases():
        assert np.array_equal(_contour_segments(*case)[0], contour_segments_at(*case))


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_stacked_contour_call_is_the_concatenation_of_per_pair_calls():
    # one pass over a stack of (grid, level) pairs gives, byte for byte, the
    # segments of one call per pair in pair order, and each pair's count:
    # seeded grids, levels at grid values, levels that no cell crosses, one
    # grid under many levels and two grids under one level, and the
    # per-level oracle over the same stacks
    rng = np.random.default_rng(48)
    stacks = []
    for n, m in ((2, 2), (7, 5), (31, 40), (66, 66)):
        xs, ys = np.sort(rng.uniform(-3, 3, n)), np.sort(rng.uniform(-2, 2, m))
        Z = rng.standard_normal((n, m))
        grid = rng.integers(0, 4, (n, m)) / 2.0
        at_values = [float(grid[0, 0]), 0.5, 1.0, 1.5, float(grid[-1, -1])]
        stacks += [
            (xs, ys, Z, rng.uniform(-2, 2, 6)),
            (xs, ys, grid, at_values),
            # below, above and at the grid's extremes: the first three cut
            # no cell, the least only the cells around its point
            (xs, ys, Z, [Z.min() - 1.0, Z.max() + 1.0, Z.max(), Z.min(), 0.0]),
            (xs, ys, np.stack([Z, grid, -Z]), 0.5),
            (xs, ys, np.stack([Z, grid]), [0.0, 1.0]),
        ]
    th = np.linspace(-math.pi, math.pi, 66, endpoint=False)
    G = np.cos(th[:, None]) + np.cos(th[None, :]) + np.cos(th[None, :] - th[:, None])
    stacks.append((th, th, G, np.linspace(-1.4, 2.8, 15)))
    for xs, ys, Z, levels in stacks:
        segs, counts = _contour_segments(xs, ys, Z, levels)
        grids = np.broadcast_to(Z, (len(counts),) + Z.shape[-2:])
        parts = [_contour_segments(xs, ys, grid, level)[0] for grid, level in zip(grids, np.broadcast_to(levels, len(counts)))]
        assert len(counts) == max(np.size(levels), len(Z) if Z.ndim == 3 else 1)
        assert counts.tolist() == [len(part) for part in parts]
        assert _same_bytes(segs, np.concatenate(parts))
        oracle, oracle_counts = contour_segments(xs, ys, Z, levels)
        assert _same_bytes(segs, oracle) and np.array_equal(counts, oracle_counts)


# (figure, arguments) of the tier-1 SVGs and of the benchmark's SVG commands
SVG_CASES = [
    ("level-sets", {"resolution": 64}),
    ("level-sets", {"resolution": 66}),
    ("level-sets", {"resolution": 96}),
    ("peach-curve", {"resolution": 64}),
    ("peach-curve", {"resolution": 65}),
    ("region-z", {"resolution": 64}),
    ("region-z", {"resolution": 160}),
    ("disk-projection", {"n": 9, "boundary_points": 64}),
    ("disk-projection", {"n": 20, "boundary_points": 768}),
    ("spinal-trace", {"alpha2": 0.7, "resolution": 181}),
    ("spinal-trace", {"alpha2": 0.8, "resolution": 96}),
    ("spinal-trace", {"alpha2": 1.56, "resolution": 720}),
    ("schwartz-slice", {"resolution": 64}),
    ("schwartz-slice", {"resolution": 100}),
]


@pytest.mark.parametrize("case", range(len(SVG_CASES)))
def test_svg_matches_the_oracle_path(case, tmp_path, monkeypatch):
    # every figure's SVG is byte-identical to the one drawn with the
    # per-level oracle contours, the per-value %.9g polylines and the
    # per-mark %.9g circles
    import crlab.figures

    name, kwargs = SVG_CASES[case]
    path, _ = crlab.figures.FIGURES[name](str(tmp_path / "new"), fmt="svg", **kwargs)
    monkeypatch.setattr(crlab.figures, "_contour_segments", contour_segments)
    monkeypatch.setattr(crlab.figures.SvgCanvas, "polylines", svg_polylines)
    monkeypatch.setattr(crlab.figures.SvgCanvas, "circles", svg_circles)
    oracle, _ = crlab.figures.FIGURES[name](str(tmp_path / "oracle"), fmt="svg", **kwargs)
    with open(path, "rb") as fh, open(oracle, "rb") as fo:
        assert fh.read() == fo.read()


def test_svg_circles_match_the_per_mark_template():
    # one kernel call for every mark's centre writes the bytes of one %.9g
    # f-string per mark: fixed and exponent notation, zeros of both signs,
    # non-finite values, a y that the canvas flips through 0, and no marks
    rng = np.random.default_rng(7)
    values = rng.standard_normal(40) * 10.0 ** rng.integers(-12, 12, 40)
    values = np.concatenate([values, [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-5, 123456789.5, 0.2, -3.2, 3.2]])
    centers = np.empty(len(values) // 2, dtype=complex)
    centers.real, centers.imag = values[0::2], values[1::2]
    cases = [(centers, 0.02), (centers[:1], 0.01), (centers[:0], 0.02), (np.array([complex(0, 1.25), complex(0, -1.25)]), 0.01)]
    for box in ((-3.2, 3.2, -3.2, 3.2), (-1.5, 1.5, -0.5, 2.5)):
        for points, r in cases:
            new, oracle = SvgCanvas(*box), SvgCanvas(*box)
            new.circles(points, r)
            svg_circles(oracle, points, r)
            assert b"\n".join(new.elements) == b"\n".join(oracle.elements)
            assert len(new.elements) == (len(points) > 0)


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
    # the specials repeated (-0.0 and 0.0 as distinct patterns), next to a
    # unique column
    table = rng.permutation(np.repeat(SPECIAL, 5))
    yield np.column_stack([table, rng.standard_normal(len(table))])
    # 20 rows of 10 and of 11 distinct patterns
    for distinct in (10, 11):
        col = np.resize(np.array(SPECIAL[:distinct]) * 7.25, 20)
        yield np.column_stack([col, rng.permutation(col)])
    # row counts around the block size: the specials in a column that spans
    # blocks, next to a unique column
    B = CSV_BLOCK_ROWS
    for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
        table = np.resize(rng.permutation(SPECIAL), n)
        yield np.column_stack([table, rng.standard_normal(n)])


def _declared(col):
    """col as a (values, index) pair over its distinct bit patterns."""
    bits, index = np.unique(col.view(np.int64), return_inverse=True)
    return bits.view(float), index


def test_write_csv_matches_per_value_format(tmp_path):
    # each case with plain columns, formatted block by block, and with every
    # column declared as a (values, index) pair, formatted once
    for case, rows in enumerate(_csv_cases()):
        for form, columns in (("plain", list(rows.T)), ("declared", [_declared(c) for c in rows.T])):
            path = write_csv(str(tmp_path / f"t{case}{form}.csv"), ["a", "b"], columns)
            with open(path, "rb") as fh:
                assert fh.read() == write_csv_loop(["a", "b"], rows), (case, form)


def test_write_csv_writes_the_longest_fields_whole(tmp_path):
    # each special alone, and repeated in a column declared as a table
    for case, v in enumerate(SPECIAL):
        col = np.array([v])
        for form, columns in (("alone", [col]), ("table", [(col, np.zeros(6, dtype=int))])):
            path = write_csv(str(tmp_path / f"t{case}{form}.csv"), ["a"], columns)
            rows = np.resize(col, 1 if form == "alone" else 6)[:, None]
            with open(path, "rb") as fh:
                assert fh.read() == write_csv_loop(["a"], rows), (v, form)


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
    # (two axis columns declared over their axes, one unique column, and one
    # of exactly n/2 distinct values) the traced peak stays within twice the
    # file's size, where a whole table of Python objects took about 3 times;
    # the kernel formats each axis value once and every other value once, at
    # most CSV_BLOCK_ROWS values at a time
    import tracemalloc

    import crlab.figures

    sizes = []

    def counted(x, _real=crlab.figures.g17_fields):
        sizes.append(len(x))
        return _real(x)

    monkeypatch.setattr(crlab.figures, "g17_fields", counted)
    xs, ys = np.linspace(-3, 3, 400), np.linspace(-1, 1, 250)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    rng = np.random.default_rng(1)
    half = rng.permutation(np.repeat(rng.standard_normal(X.size // 2), 2))
    rows = np.column_stack([X.ravel(), Y.ravel(), rng.standard_normal(X.size), half])
    axes = [(xs, np.repeat(np.arange(400), 250)), (ys, np.tile(np.arange(250), 400))]
    path = str(tmp_path / "t.csv")
    tracemalloc.start()
    try:
        write_csv(path, ["a", "b", "c", "d"], axes + list(rows[:, 2:].T))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(np.unique(rows[:, 3])) == len(rows) // 2
    assert peak <= 2 * os.path.getsize(path)
    assert max(sizes) <= CSV_BLOCK_ROWS
    assert sum(sizes) == 400 + 250 + 2 * len(rows)


def test_write_csv_formats_every_declared_table_in_one_call(tmp_path, monkeypatch):
    # the declared tables of a CSV, two grid axes and a table of specials,
    # go to the kernel together, in one call before the plain column's
    # blocks
    import crlab.figures

    sizes = []

    def counted(x, _real=crlab.figures.g17_fields):
        sizes.append(len(x))
        return _real(x)

    monkeypatch.setattr(crlab.figures, "g17_fields", counted)
    rng = np.random.default_rng(2)
    xs, ys = np.linspace(-3, 3, 90), np.concatenate([[0.0, -0.0, math.nan], rng.standard_normal(57) * 1e20])
    table = np.concatenate([SPECIAL, rng.standard_normal(20)])
    index = rng.integers(0, len(table), len(xs) * len(ys))
    plain = rng.standard_normal(len(xs) * len(ys))
    columns = _grid_columns(xs, ys, (table, index)) + [plain]
    path = write_csv(str(tmp_path / "t.csv"), ["x", "y", "t", "p"], columns)
    blocks = -(-len(plain) // CSV_BLOCK_ROWS)
    assert sizes == [len(xs) + len(ys) + len(table)] + [CSV_BLOCK_ROWS] * (blocks - 1) + [len(plain) - (blocks - 1) * CSV_BLOCK_ROWS]
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    with open(path, "rb") as fh:
        assert fh.read() == write_csv_loop(["x", "y", "t", "p"], np.column_stack([X.ravel(), Y.ravel(), table[index], plain]))


@pytest.mark.parametrize("resolution", [64, 65, 66, 198, 199])
def test_level_sets_csv_declares_the_triangle_of_a_symmetric_grid(resolution, tmp_path, monkeypatch):
    # G == G.T bit for bit, so the CSV that declares g by its triangle i <= j
    # is the full grid's write, byte for byte, and formats only the triangle
    import crlab.figures

    th = np.linspace(-math.pi, math.pi, resolution, endpoint=False)
    G = np.cos(th[:, None]) + np.cos(th[None, :]) + np.cos(th[None, :] - th[:, None])
    assert G.tobytes() == np.ascontiguousarray(G.T).tobytes()
    full = write_csv(str(tmp_path / "full.csv"), ["theta", "phi", "g"], _grid_columns(th, th, G))
    sizes = []

    def counted(x, _real=crlab.figures.g17_fields):
        sizes.append(len(x))
        return _real(x)

    monkeypatch.setattr(crlab.figures, "g17_fields", counted)
    path, got = figure_level_sets(str(tmp_path / "ls"), resolution=resolution)
    assert got.tobytes() == G.tobytes()
    with open(path, "rb") as fh, open(full, "rb") as fo:
        assert fh.read() == fo.read()
    assert sizes == [2 * resolution + resolution * (resolution + 1) // 2]


def test_level_sets_csv_matches_per_value_format(tmp_path):
    # a real grid: both axes declared over theta, and the symmetric g
    # declared by its triangle
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
    # then the marks e^{i (j - 1) beta} numbered in order
    n = 9
    path, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=32)
    rows = []
    for k in range(n):
        for family, sign in enumerate(("plus", "minus")):
            rows += [[family, k, z.real, z.imag] for z in curves[(sign, k)].tolist()]
    # the marks as the figure forms them, from numpy's real cos and sin
    angles = 2 * math.pi / n * (np.arange(2 * n) - 1.0)
    rows += [[2, j, c, s] for j, (c, s) in enumerate(zip(np.cos(angles).tolist(), np.sin(angles).tolist()))]
    with open(path, "rb") as fh:
        assert fh.read() == write_csv_loop(["family", "k", "re", "im"], rows)


def test_trace_ts_inv_matches_rep():
    rng = np.random.default_rng(5)
    a1 = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 200)
    a2 = rng.uniform(-math.pi / 2, math.pi / 2, 200)
    got = trace_ts_inv(a1, a2)
    reps = [FamilyRep(FamilyParams(x, y)) for x, y in zip(a1, a2)]
    want = [np.trace((rep.T @ rep.S.inv()).M) for rep in reps]
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
    bisectors = [classify_bisector(family_points(ff).p_U, u_power_point(ff, k, q), ff.tol) for k, q in ((1, family_points(ff).p_V), (2, family_points(ff).p_W))]
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
def test_disk_projection_builds_no_face_family(n, tmp_path, monkeypatch):
    # the disks are closed forms in n (family.elliptic_disks): no FaceFamily,
    # no point table and no parameter alpha2 are built at any order
    def refuse(*args, **kwargs):
        raise AssertionError("disk-projection built a FaceFamily")

    monkeypatch.setattr(FaceFamily, "__init__", refuse)
    for fmt in ("csv", "svg"):
        _, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=64, fmt=fmt)
        assert len(curves) == 2 * n and all(len(z) == 64 for z in curves.values())


@pytest.mark.parametrize("n", [4, 5, 8, 9, 20, 100])
def test_disk_projection_translates_lie_on_their_silhouettes(n, tmp_path):
    # oracle: each translate J_k^+- built from U^k p_V or U^k p_W and its
    # circle taken by the per-object silhouette_circles; the marks against
    # the chart images of U^k p_A and U^k p_B.  At orders 4..8 the disk of
    # J_0^- is its circle's outside, and at order 4 that of J_0^+ too
    path, curves = figure_disk_projection(str(tmp_path / "dp"), n=n, boundary_points=256)
    ff = FaceFamily(alpha2_for_order(n), tol=1e-14, grid_n=256)
    pts = family_points(ff)
    bounded = {"plus": n >= 5, "minus": n >= 9}
    assert list(curves) == [(sign, k) for k in range(n) for sign in ("plus", "minus")]
    for (sign, k), z in curves.items():
        q = u_power_point(ff, k, pts.p_V if sign == "plus" else pts.p_W)
        (sil,) = silhouette_circles(oriented_chart(ff), [classify_bisector(pts.p_U, q, ff.tol)], ff.tol)
        assert sil.bounded == bounded[sign]
        assert len(z) == 256
        assert np.abs(np.abs(z - sil.center) - sil.radius).max() <= 1e-9 * max(abs(sil.center), sil.radius)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    marks = rows[rows[:, 0] == 2]
    assert marks[:, 1].tolist() == list(range(2 * n))
    for j, (re, im) in enumerate(marks[:, 2:]):
        want = chart(oriented_chart(ff), u_power_point(ff, j // 2, (pts.p_A, pts.p_B)[j % 2]).v)
        assert abs(complex(re, im) - want) <= 1e-12 * max(1.0, abs(want))


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
