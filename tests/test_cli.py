import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from crlab.cli import main


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
    assert report["schema"] == "report-v1"
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


@pytest.mark.parametrize("n", ["3", "0", "-5"])
def test_figure_order_below_4_is_a_usage_error(n, tmp_path):
    code, out, err = run_cli(["figure", "disk-projection", "--n", n, "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err == "error: --n must be at least 4\n"
    assert os.listdir(tmp_path) == []


def test_figure_geometry_error_exits_1_without_traceback(tmp_path):
    # project_bisector refuses a translate at order 3000 (the figure builds up to 686)
    proc = subprocess.run(
        [sys.executable, "-m", "crlab.cli", "figure", "disk-projection", "--n", "3000",
         "--resolution", "64", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("n", ["90", "100"])
def test_figure_disk_projection_high_orders(n, tmp_path):
    # U^k p keeps its norm at every k, so every bisector of the family builds
    code, out, _ = run_cli(["figure", "disk-projection", "--n", n, "--resolution", "64", "--out", str(tmp_path)])
    assert code == 0
    path = tmp_path / "disk-projection.csv"
    assert out.strip() == str(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    # two families of n bisectors, then 2n marks
    assert set(rows[rows[:, 0] < 2, 1].astype(int)) == set(range(int(n)))
    assert (rows[:, 0] == 2).sum() == 2 * int(n)
