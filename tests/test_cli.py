import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import crlab.family
import crlab.figures
import crlab.isometry
from crlab import cli
from crlab.cli import MAX_FIGURE_ROWS, MAX_GRID, MAX_ORDER, main
from crlab.core import GeometryError
from crlab.family import ALPHA2_LIM, alpha2_for_order


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_verify_n9(tmp_path):
    code, out, _ = run_cli(
        ["verify", "--n", "9", "--grid", "128", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "slope 1/6" in out
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 1
    report = json.loads((tmp_path / files[0]).read_text())
    assert report["schema"] == "report-v11"
    assert report["verdict"]["slope"] == [1, 6]


def test_verify_alpha2_loxodromic(tmp_path):
    code, out, _ = run_cli(["verify", "--alpha2", "0.5", "--grid", "128"])
    assert code == 0
    assert "slope 1/-3" in out


def test_verify_n5_inconclusive_exit0(tmp_path):
    code, out, _ = run_cli(["verify", "--n", "5", "--grid", "96"])
    assert code == 0
    assert "inconclusive" in out


def test_usage_errors():
    assert run_cli(["verify", "--alpha2", "3.0"])[0] == 2
    assert run_cli(["verify", "--n", "3"])[0] == 2
    assert run_cli(["verify", "--sweep", "bad"])[0] == 2
    assert run_cli(["verify", "--alpha2", "0.5", "--grid", "32"])[0] == 2
    assert run_cli(["verify"])[0] == 2
    assert run_cli(["figure", "nope"])[0] == 2
    assert run_cli(["classify"])[0] == 2
    assert run_cli(["classify", "--word", "st"])[0] == 2
    assert run_cli(["verify", "--alpha2", "0.5", "--tol", "1.0"])[0] == 2


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--n", "9", "--alpha2", "5", "--sweep", "x"], "--n, --alpha2, --sweep"),
        (["--n", "9", "--alpha2", "0.5"], "--n, --alpha2"),
        (["--alpha2", "0.5", "--sweep", "0.6:0.9:0.1"], "--alpha2, --sweep"),
        (["--n", "9", "--sweep", "0.6:0.9:0.1"], "--n, --sweep"),
    ],
)
def test_verify_takes_one_parameter_source(flags, named, tmp_path):
    # more than one of --n, --alpha2, --sweep is a usage error that names
    # them; no parameter is verified and no report is written
    code, out, err = run_cli(["verify", *flags, "--grid", "64", "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"error: give only one of --n, --alpha2, --sweep (given: {named})\n"
    assert os.listdir(tmp_path) == []


def test_classify_word(tmp_path):
    code, out, _ = run_cli(["classify", "--word", "st", "--alpha2", "0.7"])
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "unipotent"
    assert data["trace"] == pytest.approx([3.0, 0.0])
    code, out, _ = run_cli(
        ["classify", "--word", "ts^-1", "--alpha2", "%.17g" % (2 * math.pi / 5)]
    )
    data = json.loads(out)
    assert data["class"] == "regular-elliptic"
    assert "elliptic_type" in data


def test_classify_matrix_file(tmp_path):
    path = tmp_path / "identity.txt"
    M = np.eye(3, dtype=complex)
    vals = []
    for row in M:
        for z in row:
            vals += [z.real, z.imag]
    path.write_text(" ".join("%.17g" % v for v in vals))
    code, out, _ = run_cli(["classify", "--matrix", str(path)])
    assert code == 0
    assert json.loads(out)["class"] == "identity"
    # a non-isometry is rejected with residuals listed
    bad = tmp_path / "bad.txt"
    bad.write_text(" ".join(["2", "0", "0", "0", "0", "0"] + ["0"] * 6 + ["0"] * 4 + ["2", "0"]))
    code, out, _ = run_cli(["classify", "--matrix", str(bad)])
    assert code == 2


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_classify_matrix_with_a_non_finite_entry_is_a_usage_error(entry, tmp_path):
    # as for a non-finite --alpha2: one error line, nothing on stdout (no
    # NaN in JSON), and no floating-point warning on the way
    import warnings

    path = tmp_path / "m.txt"
    vals = ["1", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "1", "0"]
    vals[8] = entry
    path.write_text(" ".join(vals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["classify", "--matrix", str(path)])
    assert code == 2 and out == ""
    assert err == "error: matrix entries must be finite numbers\n"


def test_sweep_determinism_across_workers(tmp_path):
    out1, out8 = tmp_path / "w1", tmp_path / "w8"
    base = ["verify", "--sweep", "0.6:0.9:0.1", "--grid", "96"]
    code1, _, _ = run_cli(base + ["--out", str(out1), "--workers", "1"])
    code8, _, _ = run_cli(base + ["--out", str(out8), "--workers", "8"])
    assert code1 == 0 and code8 == 0
    files1, files8 = sorted(os.listdir(out1)), sorted(os.listdir(out8))
    assert files1 == files8 and len(files1) == 3
    for f in files1:
        assert (out1 / f).read_bytes() == (out8 / f).read_bytes()


def test_sweep_across_the_wall(tmp_path):
    # one parameter per side of the wall and one beside it; none may abort the pool
    code, out, _ = run_cli(
        ["verify", "--sweep", "0.9107:0.9137:0.001", "--grid", "64", "--workers", "2",
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    assert all(line.startswith("alpha2=") for line in out.splitlines())
    assert len(os.listdir(tmp_path)) == 3


def test_sweep_keeps_other_parameters_on_error(tmp_path, monkeypatch):
    import crlab.cli
    from crlab.core import GeometryError

    real_verify = crlab.cli.verify

    def verify(alpha2, **kwargs):
        if abs(alpha2 - 0.7) < 1e-9:
            raise GeometryError("face family failed")
        return real_verify(alpha2, **kwargs)

    monkeypatch.setattr(crlab.cli, "verify", verify)
    code, out, _ = run_cli(
        ["verify", "--sweep", "0.6:0.9:0.1", "--grid", "64", "--workers", "1", "--out", str(tmp_path)]
    )
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1] == "alpha2=0.69999999999999996: error (face family failed)"
    assert "slope 1/-3" in lines[0] and "slope 1/-3" in lines[2]
    assert len(os.listdir(tmp_path)) == 2


def test_figure_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, _, _ = run_cli(
            ["figure", "level-sets", "--out", str(d), "--resolution", "96"]
        )
        assert code == 0
        code, _, _ = run_cli(
            ["figure", "region-z", "--out", str(d), "--resolution", "64", "--format", "svg"]
        )
        assert code == 0
    for name in ("level-sets.csv", "region-z.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "crlab.cli", "verify", "--alpha2", "0.7", "--grid", "96"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "slope 1/-3" in proc.stdout


def test_env_tolerance_override(monkeypatch):
    from crlab.core import tolerance

    monkeypatch.setenv("CRLAB_TOL", "1e-7")
    assert tolerance() == 1e-7
    assert tolerance(1e-5) == 1e-5
    monkeypatch.delenv("CRLAB_TOL")
    assert tolerance() == 1e-9
    # a CRLAB_TOL that is not a number is named; an argument is read first
    monkeypatch.setenv("CRLAB_TOL", "abc")
    with pytest.raises(ValueError, match=r"^CRLAB_TOL='abc' is not a number$"):
        tolerance()
    assert tolerance(1e-5) == 1e-5


@pytest.mark.parametrize(
    "value, err",
    [
        ("abc", "error: CRLAB_TOL='abc' is not a number\n"),
        ("0.5", "error: tolerance (CRLAB_TOL) must lie in [1e-14, 1e-3]\n"),
        ("0", "error: tolerance (CRLAB_TOL) must lie in [1e-14, 1e-3]\n"),
        ("-1", "error: tolerance (CRLAB_TOL) must lie in [1e-14, 1e-3]\n"),
        ("nan", "error: tolerance (CRLAB_TOL) must lie in [1e-14, 1e-3]\n"),
        ("1e-20", "error: tolerance (CRLAB_TOL) must lie in [1e-14, 1e-3]\n"),
    ],
)
def test_env_tolerance_is_checked_like_the_flag(value, err, tmp_path, monkeypatch):
    # without --tol, a CRLAB_TOL that is not a number in [1e-14, 1e-3] is a
    # usage error that names it, for every subcommand; the flag takes
    # precedence
    import crlab.cli as cli

    monkeypatch.setenv("CRLAB_TOL", value)
    monkeypatch.setattr(cli, "verify", lambda *args, **kwargs: pytest.fail("verify ran"))
    assert run_cli(["verify", "--n", "9", "--grid", "64"]) == (2, "", err)
    assert run_cli(["figure", "spinal-trace", "--resolution", "64", "--out", str(tmp_path / "out")]) == (2, "", err)
    assert not (tmp_path / "out").exists()
    assert run_cli(["classify", "--word", "ts^-1", "--alpha2", "0.5"]) == (2, "", err)
    flag = "error: tolerance (--tol) must lie in [1e-14, 1e-3]\n"
    assert run_cli(["verify", "--n", "9", "--tol", "1.0"]) == (2, "", flag)
    assert run_cli(["classify", "--word", "ts^-1", "--alpha2", "0.5", "--tol", "1e-9"])[0] == 0


def test_env_tolerance_reaches_verify(monkeypatch):
    # without --tol each parameter is verified at CRLAB_TOL; with it, at the flag
    import crlab.cli as cli

    seen = []
    monkeypatch.setenv("CRLAB_TOL", "1e-7")
    monkeypatch.setattr(cli, "_verify_one", lambda job: (seen.append(job[2]) or "", False))
    assert run_cli(["verify", "--n", "9", "--grid", "64"])[0] == 0
    assert run_cli(["verify", "--n", "9", "--grid", "64", "--tol", "1e-5"])[0] == 0
    assert seen == [1e-7, 1e-5]


@pytest.mark.parametrize("offset", [1e-13, 2e-14])
def test_verify_near_the_wall_at_the_least_tolerance_exits_0(offset):
    # off the wall by param_side at tol 1e-14, with |tr U - 3| below 1e-12:
    # param_side is the one wall, so the loxodromic slope follows
    a2 = "%.17g" % (ALPHA2_LIM - offset)
    code, out, err = run_cli(["verify", "--alpha2", a2, "--tol", "1e-14", "--grid", "128"])
    assert (code, err) == (0, "")
    assert out == f"alpha2={float(a2):.17g}: slope 1/-3\n"


def test_figure_spinal_trace_and_schwartz(tmp_path):
    code, out, _ = run_cli(
        ["figure", "spinal-trace", "--out", str(tmp_path), "--resolution", "96", "--alpha2", "0.8"]
    )
    assert code == 0
    header = (tmp_path / "spinal-trace.csv").read_text().splitlines()[0]
    assert header == "sigma,delta,norm,side"
    code, out, _ = run_cli(
        ["figure", "schwartz-slice", "--out", str(tmp_path), "--resolution", "64"]
    )
    assert code == 0
    header = (tmp_path / "schwartz-slice.csv").read_text().splitlines()[0]
    assert header == "re_z,im_z,f,existence"
    code, _, _ = run_cli(
        ["figure", "disk-projection", "--out", str(tmp_path), "--n", "9", "--resolution", "64"]
    )
    assert code == 0
    header = (tmp_path / "disk-projection.csv").read_text().splitlines()[0]
    assert header == "family,k,re,im"
    code, _, _ = run_cli(
        ["figure", "peach-curve", "--out", str(tmp_path), "--resolution", "64"]
    )
    assert code == 0


def test_svg_outputs_are_wellformed(tmp_path):
    import xml.etree.ElementTree as ET

    for name, extra in (("level-sets", []), ("disk-projection", ["--n", "9"])):
        code, _, _ = run_cli(
            ["figure", name, "--out", str(tmp_path), "--format", "svg",
             "--resolution", "64"] + extra
        )
        assert code == 0
        root = ET.parse(tmp_path / f"{name}.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.attrib["width"] == "800" and root.attrib["height"] == "800"


def test_parser_is_built_once_per_process(monkeypatch):
    import crlab.cli

    built = []
    build = crlab.cli.build_parser
    monkeypatch.setattr(crlab.cli, "build_parser", lambda: built.append(1) or build())
    crlab.cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli(["classify", "--word", "ts^-1", "--alpha2", "0.97"])[0] == 0
        assert run_cli(["verify"])[0] == 2
    finally:
        crlab.cli._parser.cache_clear()
    assert len(built) == 1


def test_import_leaves_multiprocessing_to_parallel_sweeps():
    import crlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(crlab.__file__)))
    code = "import sys, crlab.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [["verify"], ["figure", "disk-projection"]])
def test_order_above_max_order_is_a_usage_error(argv, tmp_path):
    # a float alpha2 pins the order only up to MAX_ORDER
    code, out, err = run_cli(argv + ["--n", str(MAX_ORDER + 1), "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == f"error: --n must be at most {MAX_ORDER}, the largest order an alpha2 pins\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("n", ["3", "0", "-5"])
def test_figure_order_below_4_is_a_usage_error(n, tmp_path):
    code, out, err = run_cli(["figure", "disk-projection", "--n", n, "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == "error: --n must be at least 4\n"
    assert os.listdir(tmp_path) == []


def test_figure_geometry_error_exits_1_without_traceback(tmp_path, monkeypatch):
    # no order of disk-projection fails since it reads n exactly, so the
    # raise is stood in for: cmd_figure prints the GeometryError on one line
    def raise_geometry(out_base, fmt="csv", **kwargs):
        raise GeometryError("figure geometry fails here")

    monkeypatch.setitem(crlab.figures.FIGURES, "disk-projection", raise_geometry)
    code, out, err = run_cli(["figure", "disk-projection", "--n", "9", "--resolution", "64", "--out", str(tmp_path)])
    assert (code, out, err) == (1, "", "error: figure geometry fails here\n")


@pytest.mark.parametrize("n", [63, 100])
def test_figure_disk_projection_takes_the_order_exactly(n, tmp_path, monkeypatch):
    # at CRLAB_TOL=1e-3 a float alpha2 of these orders reads as the unipotent
    # wall; the figure reads n itself and draws n curves of each family
    monkeypatch.setenv("CRLAB_TOL", "1e-3")
    code, out, err = run_cli(["figure", "disk-projection", "--n", str(n), "--resolution", "64", "--out", str(tmp_path)])
    path = tmp_path / "disk-projection.csv"
    assert (code, out, err) == (0, f"{path}\n", "")
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    for family in (0, 1):
        assert np.bincount(rows[rows[:, 0] == family, 1].astype(int)).tolist() == [64] * n


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "9", "--grid", "64"],
        ["figure", "peach-curve"],
    ],
)
def test_out_naming_an_existing_file_is_a_usage_error(argv, tmp_path, monkeypatch):
    # the report or figure directory cannot be made: exit 2 with one error
    # line, before any parameter is verified or figure computed
    import functools

    import crlab.cli

    path = tmp_path / "taken"
    path.write_bytes(b"not a directory")

    def refuse(fn):
        return functools.wraps(fn)(lambda *a, **k: pytest.fail(f"{fn.__name__} ran"))

    monkeypatch.setattr(crlab.cli, "verify", refuse(crlab.cli.verify))
    monkeypatch.setitem(crlab.figures.FIGURES, "peach-curve", refuse(crlab.figures.FIGURES["peach-curve"]))
    code, out, err = run_cli(argv + ["--out", str(path)])
    assert code == 2 and out == ""
    assert err == f"error: cannot make the --out directory {str(path)!r}: File exists\n"
    assert path.read_bytes() == b"not a directory"


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["level-sets", "--resolution", "4097"], 4097**2),
        (["schwartz-slice", "--resolution", "4097", "--format", "svg"], 4097**2),
        (["spinal-trace", "--resolution", "5794"], 5794 * 2897),
        (["disk-projection", "--resolution", "419430"], 2 * 20 * 419431),
        (["disk-projection", "--n", "10000", "--resolution", "838"], 2 * 10000 * 839),
    ],
)
def test_figure_over_the_row_limit_is_a_usage_error(argv, rows, tmp_path):
    # just over cli.MAX_FIGURE_ROWS: exit 2 at once, nothing allocated or
    # written
    import time

    assert MAX_FIGURE_ROWS < rows <= MAX_FIGURE_ROWS + 10**4
    t0 = time.perf_counter()
    code, out, err = run_cli(["figure", *argv, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == f"error: figure has more than {MAX_FIGURE_ROWS} rows (cli.MAX_FIGURE_ROWS)\n"
    assert not (tmp_path / "out").exists()


def test_figure_runs_through_a_plain_wrapper(tmp_path, monkeypatch):
    # an entry of figures.FIGURES wrapped without functools.wraps, as a
    # tracer wraps it, shows no signature: the CLI reads each figure's rows
    # from figures.FIGURE_ROWS, so it still runs and still refuses a figure
    # over the row limit
    for name, fn in list(crlab.figures.FIGURES.items()):
        def entry(out_base, fmt="csv", _fn=fn, **kw):
            return _fn(out_base, fmt=fmt, **kw)

        monkeypatch.setitem(crlab.figures.FIGURES, name, entry)
    code, out, err = run_cli(["figure", "spinal-trace", "--resolution", "64", "--out", str(tmp_path)])
    assert (code, err) == (0, "") and out == f"{tmp_path / 'spinal-trace.csv'}\n"
    code, out, err = run_cli(["figure", "disk-projection", "--n", "9", "--resolution", "64", "--out", str(tmp_path)])
    assert (code, err) == (0, "") and out == f"{tmp_path / 'disk-projection.csv'}\n"
    code, out, err = run_cli(["figure", "level-sets", "--resolution", "4097", "--out", str(tmp_path / "big")])
    assert code == 2 and out == "" and "more than" in err
    assert not (tmp_path / "big").exists()


def test_figure_rows_default_as_the_figures_do():
    # figures.FIGURE_ROWS declares the defaults its row counts read; they
    # are the figures' own
    import inspect

    from crlab import figures

    assert sorted(figures.FIGURE_ROWS) == sorted(figures.FIGURES)
    for name, rows in figures.FIGURE_ROWS.items():
        own = inspect.signature(figures.FIGURES[name]).parameters
        for key, param in inspect.signature(rows).parameters.items():
            if param.kind is param.POSITIONAL_OR_KEYWORD:
                assert own[key].default == param.default, (name, key)


def test_classify_geometry_error_exits_1_with_an_error_line(monkeypatch):
    # no word of the family makes the Krein signs of a regular elliptic
    # element split otherwise than (+,+,-), so the raise is stood in for
    def raise_split(g, tol=None):
        raise GeometryError("eigenvector norms do not split as (+,+,-)")

    monkeypatch.setattr(crlab.isometry, "elliptic_type", raise_split)
    code, out, err = run_cli(["classify", "--word", "s^-1t", "--alpha2", "%.17g" % alpha2_for_order(9)])
    assert code == 1 and out == ""
    assert err == "error: eigenvector norms do not split as (+,+,-)\n"


@pytest.mark.parametrize("alpha2", ["nan", "inf", "-inf"])
def test_classify_non_finite_alpha2_is_a_usage_error(alpha2, monkeypatch):
    # a nan or infinite parameter ended in a ValueError traceback from the
    # trace rule (round(nan)); it exits 2 with one line, before any word is
    # built
    monkeypatch.setattr(crlab.family, "FamilyRep", lambda *args: pytest.fail("a representation was built"))
    err = "error: --alpha2 must be a finite number\n"
    assert run_cli(["classify", "--word", "st", f"--alpha2={alpha2}"]) == (2, "", err)


def test_classify_order_1e5_at_tol_1e_14():
    # off the band 10 tol of the wall (|tr U - 3| = 3.9e-9), order 10^5
    # reads as the rotation of type (1, -1, 10^5)
    code, out, _ = run_cli(["classify", "--word", "s^-1t", "--alpha2", "%.17g" % alpha2_for_order(10**5), "--tol", "1e-14"])
    data = json.loads(out)
    assert code == 0 and data["class"] == "regular-elliptic"
    assert data["elliptic_type"] == {"p": 1, "q": -1, "n": 10**5}
    assert sorted(data["norm_signs"]) == [-1, 1, 1]


@pytest.mark.parametrize("n", ["90", "100", "687", "3000"])
def test_figure_disk_projection_high_orders(n, tmp_path):
    # every translate is the closed-form disk of J_0^+- turned by 2k beta,
    # so no order builds a bisector near the wall (the per-k builds failed
    # at 90 and 100, and refused a translate from 687)
    code, out, _ = run_cli(["figure", "disk-projection", "--n", n, "--resolution", "64", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "disk-projection.csv"
    assert out.strip() == str(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    # two families of n bisectors, then 2n marks
    assert set(rows[rows[:, 0] < 2, 1].astype(int)) == set(range(int(n)))
    assert (rows[:, 0] == 2).sum() == 2 * int(n)


@pytest.mark.parametrize(
    "argv, err",
    [
        (["spinal-trace", "--alpha2", "2"], "error: --alpha2 must lie in (0, pi/2)\n"),
        (["spinal-trace", "--alpha2", "0"], "error: --alpha2 must lie in (0, pi/2)\n"),
        (["spinal-trace", "--alpha2", "%.17g" % (math.pi / 2)], "error: --alpha2 must lie in (0, pi/2)\n"),
        (["level-sets", "--n", "20"], "error: --n applies only to disk-projection\n"),
        (["spinal-trace", "--n", "20", "--alpha2", "0.7"], "error: --n applies only to disk-projection\n"),
        (["disk-projection", "--alpha2", "0.7"], "error: --alpha2 applies only to spinal-trace\n"),
        (["region-z", "--alpha2", "0.7"], "error: --alpha2 applies only to spinal-trace\n"),
    ],
)
def test_figure_options_are_checked_like_verify(argv, err, tmp_path):
    # an out-of-range parameter, or an option the figure does not read, is a
    # usage error, and no file is written
    code, out, got = run_cli(["figure"] + argv + ["--resolution", "64", "--out", str(tmp_path / "out")])
    assert (code, out, got) == (2, "", err)
    assert not (tmp_path / "out").exists()
    # verify rejects the same out-of-range parameters with the same line
    if argv[0] == "spinal-trace" and "--n" not in argv:
        assert run_cli(["verify", "--alpha2", argv[2]])[::2] == (2, err)


@pytest.mark.parametrize(
    "sweep, err",
    [
        ("0.1:0.2:1e-300", "error: sweep step does not advance A\n"),
        ("0.5:0.50000000000001:1e-17", "error: sweep step does not advance A\n"),
        ("0.1:1.5:1e-9", "error: sweep has more than 1000000 points\n"),
        ("0.1:0.5:nan", "error: sweep outside (0, pi/2), or a STEP that is not positive and finite\n"),
        ("0.1:0.5:inf", "error: sweep outside (0, pi/2), or a STEP that is not positive and finite\n"),
    ],
)
def test_sweep_step_is_checked_before_any_point(sweep, err):
    # a step below A's rounding never moved the sweep on, a tiny one listed
    # billions of parameters, and a nan or inf one verified A alone and
    # exited 0: all exit 2 at once
    assert run_cli(["verify", "--sweep", sweep, "--grid", "64"]) == (2, "", err)


@pytest.mark.parametrize("grid", [63, MAX_GRID + 1, 10**8])
def test_grid_outside_its_range_is_a_usage_error(grid, monkeypatch):
    # memory grows about linearly with --grid, so a grid above MAX_GRID
    # exits 2 before any parameter is verified, like a sweep that is too long
    import crlab.cli as cli

    monkeypatch.setattr(cli, "verify", lambda *args, **kwargs: pytest.fail("verify ran"))
    err = f"error: grid resolution must lie in [64, {MAX_GRID}]\n"
    assert run_cli(["verify", "--n", "9", "--grid", str(grid)]) == (2, "", err)
    assert run_cli(["verify", "--sweep", "0.6:0.9:0.1", "--grid", str(grid)]) == (2, "", err)


@pytest.mark.parametrize("sweep", ["0.8:0.6:0.1", "0.7:0.7:0.1", "0.5:0.5000000000000005:0.1"])
def test_empty_sweep_is_a_usage_error(sweep):
    # a sweep that lists no parameter (B <= A, or B within rounding of A)
    # used to print nothing and exit 0, as if every parameter had passed
    err = "error: sweep lists no parameter in [A, B)\n"
    assert run_cli(["verify", "--sweep", sweep, "--grid", "64"]) == (2, "", err)


def test_workers_are_checked_and_capped_by_the_sweep(monkeypatch):
    # the pool never starts more processes than the sweep has parameters;
    # the recording pool runs the jobs in this process
    import multiprocessing

    sizes = []

    class Pool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(j) for j in jobs]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    sweep = ["verify", "--sweep", "0.6:0.8:0.1", "--grid", "64"]
    code, out, _ = run_cli(sweep + ["--workers", "5000"])
    assert code == 0 and out.count("\n") == 2
    assert sizes == [2]
    for workers in ("0", "-3"):
        assert run_cli(sweep + ["--workers", workers]) == (2, "", "error: --workers must be at least 1\n")
    assert sizes == [2]


_NO_LAPACK = """
import sys
import numpy as np
from numpy.linalg import _umath_linalg


def raiser(name):
    def call(*args, **kwargs):
        raise AssertionError("LAPACK routine called: " + name)
    return call


for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "inv", "det", "solve", "lstsq", "qr", "cholesky", "pinv"):
    setattr(np.linalg, name, raiser("numpy.linalg." + name))
# numpy.linalg's own functions call these gufuncs
for name in dir(_umath_linalg):
    if not name.startswith("_") and callable(getattr(_umath_linalg, name)):
        setattr(_umath_linalg, name, raiser("_umath_linalg." + name))

from crlab.cli import MAX_FIGURE_ROWS, MAX_GRID, main
from crlab.family import ALPHA2_LIM
from crlab.reference import alpha2_for_length

out = sys.argv[1]
runs = [
    ["verify", "--n", "9"],
    ["verify", "--n", "6"],
    ["verify", "--alpha2", repr(alpha2_for_length(1.0))],
    ["verify", "--alpha2", repr(np.pi / 6)],
    ["verify", "--alpha2", repr(ALPHA2_LIM)],
    ["figure", "disk-projection", "--resolution", "64", "--out", out],
    ["figure", "spinal-trace", "--resolution", "64", "--out", out],
]
for argv in runs:
    assert main(argv + (["--grid", "64"] if argv[0] == "verify" else [])) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "random"]))
"""


def test_verify_and_figures_run_without_lapack_or_numpy_random(tmp_path):
    # every form, kernel and sample of verify and of the FaceFamily figures
    # is a closed form: with each LAPACK routine replaced by a raiser, the
    # runs pass, and numpy.random is never imported
    import crlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(crlab.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_LAPACK, str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
