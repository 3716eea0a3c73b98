"""crlab: numerical geometry of the complex hyperbolic plane for a
one-parameter family of deformed Ford domains.

Modules:
  scalar     the numpy-free scalar code every verify reads: the tolerance
             rule, the trace and order rules, the side, TF's margin and GC's
             disks on the alpha1 = 0 slice, and CSV_FMT
  core       Hermitian linear algebra of signature (2,1)
  isometry   SU(2,1) lifts, trace classification, eigendata, elliptic types
  family     the two-parameter representation family and the closed-form
             projected disks of J_0^+ and J_0^-
  bisector   the level function
  visual     visual-sphere charts, on which U acts by its multiplier;
             no check reads one (the tests' oracles do)
  verify     the TF/LC/GC verification engine and surgery verdicts
  report     check results, verdicts and the report-v11 JSON layout
  figures    deterministic CSV/SVG figure data
  csvfloat   the byte-exact %.17g and %.9g kernel of the figure CSVs and SVGs
  cli        the `crlab` command line
  reference  the paper's objects no check computes with (trace coordinates,
             region Z, peripheral words, fixed points, ball and custom
             models, the slice's point table face_points with apply and
             box_rows, and the per-point forms: remarkable points as HVecs,
             box, locate, proj_equal); imported by no module above, and
             here only on a read of `crlab.face_points` or `crlab.box_rows`

`import crlab`, `crlab.verify` and `crlab verify` load no numpy: the exports
`verify`, `FaceFamily`, `VerificationReport`, `param_side`,
`alpha2_for_order` and `ALPHA2_LIM` are imported with the package, and the
rest (the matrices, the point table, the charts) from their home modules on
first read, by the module `__getattr__` of PEP 562.
"""

import importlib

from .report import VerificationReport
from .scalar import ALPHA2_LIM, alpha2_for_order, param_side
from .verify import FaceFamily, verify

# the exports that load numpy, by home module, each imported on first read
_LAZY = {
    name: module
    for module, names in (
        ("core", ("HermitianSpace", "HVec", "Model", "inner", "siegel_model")),
        ("reference", ("box_rows", "face_points")),
        ("isometry", ("EllipticType", "Isometry", "IsometryKind", "classify", "eigen", "elliptic_type", "goldman_f", "verify_su21")),
        ("family", ("FamilyParams", "FamilyRep", "schwartz_point")),
        ("visual", ("VisualChart",)),
    )
    for name in names
}

__all__ = sorted(["ALPHA2_LIM", "FaceFamily", "VerificationReport", "alpha2_for_order", "param_side", "verify", *_LAZY])
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound in the package, so that a later read skips __getattr__
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value
