"""The same bytes under every OpenBLAS kernel.

OpenBLAS picks a kernel for the machine at run time, and OPENBLAS_CORETYPE
overrides that choice for one process.  No number on the verify and figure
path goes through BLAS (`core.sesquilinear`, `core.apply`), so reports and
figures must not move with the kernel.
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
