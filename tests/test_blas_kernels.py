"""The same bytes under every OpenBLAS kernel, and GC's, disk-projection's and
level-sets' under every numpy dispatch level.

OpenBLAS picks a kernel for the machine at run time, and OPENBLAS_CORETYPE
overrides that choice for one process.  No number on the verify and figure
path goes through BLAS (`core.sesquilinear`, `core.apply`), so reports and
figures must not move with the kernel.

numpy picks its SIMD loops at run time too, and NPY_DISABLE_CPU_FEATURES
turns levels off for one process.  Complex products, `abs`, `arctan2` and
other loops change their last bits with the level, so most report blocks
and figures still move with it.  GC's block is closed-form `math` on the
order or the length alone, and the disk-projection and level-sets figures
`math` scalars with numpy's real cos, sin and arithmetic: none may move.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
# the kernel OpenBLAS picks for the machine, and two that an x86-64 build
# with DYNAMIC_ARCH can select
CORETYPES = (None, "Haswell", "Prescott")

# one process: SHA-256 of the reports at grid 128 and of two figures at
# resolution 64, in CSV and SVG, as JSON, with the kernel's name when the
# bundled OpenBLAS can tell it
PROGRAM = r"""
import ctypes, glob, hashlib, json, math, os, sys, tempfile
import numpy
from crlab import figures
from crlab.family import alpha2_for_order
from crlab.report import to_json
from crlab.verify import verify

def corename():
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None

sha = {}
for label, a in (("order 9", alpha2_for_order(9)), ("order 56", alpha2_for_order(56)), ("0.7", 0.7),
                 ("1.56", 1.56), ("1e-10", 1e-10), ("pi/6", math.pi / 6)):
    sha[label] = hashlib.sha256(to_json(verify(a, grid_n=128)).encode()).hexdigest()
with tempfile.TemporaryDirectory() as out:
    for name, kwargs in (("disk-projection", {"boundary_points": 64}), ("spinal-trace", {"resolution": 64})):
        for fmt in ("csv", "svg"):
            path, _ = figures.FIGURES[name](os.path.join(out, name), fmt=fmt, **kwargs)
            with open(path, "rb") as fh:
                sha[f"{name}.{fmt}"] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps({"core": corename(), "sha": sha}))
"""


def _run(coretype):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(SRC)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_reports_and_figures_are_the_same_bytes_under_every_kernel():
    runs = {coretype: _run(coretype) for coretype in CORETYPES}
    for coretype, run in runs.items():
        if run["core"] is not None:
            print(f"OPENBLAS_CORETYPE={coretype or '(unset)'}: kernel {run['core']}")
    default = runs[None]["sha"]
    assert len(default) == 10
    for coretype in CORETYPES[1:]:
        moved = sorted(k for k, v in runs[coretype]["sha"].items() if default[k] != v)
        assert moved == [], f"{coretype}: {moved}"


# the levels numpy 2.4 dispatches on x86-64 above its X86_V2 baseline: all
# of them, none of the AVX-512 ones, and none
CPU_FEATURE_SETTINGS = (None, "X86_V4 AVX512_ICL AVX512_SPR", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")

# one process: each parameter's GC block of the report, then its whole
# report with the two TF/LC torus margins masked, as JSON text
GC_PROGRAM = r"""
import json
from crlab.family import alpha2_for_order
from crlab.reference import alpha2_for_length
from crlab.report import to_json
from crlab.verify import verify

params = [alpha2_for_order(n) for n in (9, 10, 12, 20, 56, 100, 922, 2809, 10**4)]
params += [alpha2_for_length(x) for x in (0.25, 1.0, 1.75)]
reports = [verify(a, grid_n=64) for a in params]
blocks = [json.dumps(r.to_dict()["checks"]["gc"], sort_keys=True) for r in reports]
for r in reports:
    r.tf.margins["torus_exclusion"] = r.lc.margins["faces_plus_plus"] = 0.0
print(json.dumps(blocks + [to_json(r) for r in reports]))
"""


def _run_at_level(features, program=GC_PROGRAM):
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(SRC)
    if features is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = features
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_gc_blocks_are_the_same_bytes_at_every_dispatch_level():
    # GC's blocks, and the whole reports but for the TF/LC torus margins,
    # whose complex products and transcendentals move with the level
    runs = {features: _run_at_level(features) for features in CPU_FEATURE_SETTINGS}
    default = runs[None]
    assert len(default) == 24
    for features in CPU_FEATURE_SETTINGS[1:]:
        moved = [i for i, (a, b) in enumerate(zip(default, runs[features])) if a != b]
        assert moved == [], f"{features}: {moved}"


# one process: SHA-256 of the disk-projection CSV and SVG at three orders,
# and of the level-sets CSV and SVG at two resolutions
DISK_PROGRAM = r"""
import hashlib, json, os, tempfile
from crlab.figures import figure_disk_projection, figure_level_sets

sha = {}
with tempfile.TemporaryDirectory() as out:
    for fmt in ("csv", "svg"):
        for n in (9, 20, 100):
            path, _ = figure_disk_projection(os.path.join(out, "dp"), n=n, boundary_points=64, fmt=fmt)
            with open(path, "rb") as fh:
                sha[f"{n}.{fmt}"] = hashlib.sha256(fh.read()).hexdigest()
        for resolution in (64, 65):
            path, _ = figure_level_sets(os.path.join(out, "ls"), resolution=resolution, fmt=fmt)
            with open(path, "rb") as fh:
                sha[f"level-sets {resolution}.{fmt}"] = hashlib.sha256(fh.read()).hexdigest()
print(json.dumps(sha))
"""


def test_disk_projection_is_the_same_bytes_at_every_dispatch_level():
    # disk-projection, and level-sets, whose CSV declares g by its triangle:
    # the same bytes at every level also pin G == G.T (cos(-x) == cos(x))
    # wherever the default level's tie to the full grid holds
    # (tests/test_figures.py)
    runs = {features: _run_at_level(features, DISK_PROGRAM) for features in CPU_FEATURE_SETTINGS}
    default = runs[None]
    assert len(default) == 10
    for features in CPU_FEATURE_SETTINGS[1:]:
        moved = sorted(k for k, v in default.items() if runs[features][k] != v)
        assert moved == [], f"{features}: {moved}"
