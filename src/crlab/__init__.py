"""crlab: numerical geometry of the complex hyperbolic plane for a
one-parameter family of deformed Ford domains.

Modules:
  core       Hermitian linear algebra of signature (2,1), the box product
  isometry   SU(2,1) lifts, trace classification, eigendata, elliptic types
  family     the two-parameter representation family, its point table and
             the closed-form projected disks of J_0^+ and J_0^-
  bisector   Giraud tori as row arrays: column forms, level sets
  visual     visual-sphere charts, on which U acts by its multiplier;
             no check reads one (the tests' oracles do)
  verify     the TF/LC/GC verification engine and surgery verdicts
  report     check results, verdicts and the report-v11 JSON layout
  figures    deterministic CSV/SVG figure data
  csvfloat   the byte-exact %.17g and %.9g kernel of the figure CSVs and SVGs
  cli        the `crlab` command line
  reference  the paper's objects no check computes with (trace coordinates,
             region Z, peripheral words, fixed points, ball and custom
             models, and the per-point forms: remarkable points as HVecs,
             box, locate, proj_equal); not imported here, nor by any
             module above
"""

from .core import (
    HermitianSpace,
    HVec,
    Model,
    box_rows,
    inner,
    siegel_model,
)
from .isometry import (
    EllipticType,
    Isometry,
    IsometryKind,
    classify,
    eigen,
    elliptic_type,
    goldman_f,
    verify_su21,
)
from .family import (
    ALPHA2_LIM,
    FamilyParams,
    FamilyRep,
    alpha2_for_order,
    face_points,
    param_side,
    schwartz_point,
)
from .visual import VisualChart
from .report import VerificationReport
from .verify import FaceFamily, verify

__version__ = "0.1.0"
