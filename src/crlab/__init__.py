"""crlab: numerical geometry of the complex hyperbolic plane for a
one-parameter family of deformed Ford domains.

Modules:
  core       Hermitian linear algebra of signature (2,1), the box product
  isometry   SU(2,1) lifts, trace classification, eigendata, elliptic types
  family     the two-parameter representation family and its remarkable points
  bisector   bisectors/extors, pair classification, Giraud tori, level sets
  visual     visual-sphere charts, silhouettes, tangency and angle bounds
  verify     the TF/LC/GC verification engine and surgery verdicts
  report     check results, verdicts and the report-v1 JSON layout
  figures    deterministic CSV/SVG figure data
  csvfloat   the byte-exact %.17g kernel of the figure CSVs
  cli        the `crlab` command line
  reference  the paper's objects no check computes with (trace coordinates,
             region Z, peripheral words, fixed points, ball and custom
             models); not imported here, nor by any module above
"""

from .core import (
    HermitianSpace,
    HVec,
    Location,
    Model,
    box,
    inner,
    locate,
    proj_equal,
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
    param_side,
    remarkable_points,
    schwartz_point,
)
from .bisector import (
    Bisector,
    BisectorKind,
    ExtorPairKind,
    GiraudTorus,
    classify_bisector,
    classify_pair,
    symmetric_intersection_type,
)
from .visual import (
    VisualChart,
    angular_diameter,
    project_bisector,
    silhouette_circles,
    tangency_check,
)
from .report import VerificationReport
from .verify import FaceFamily, verify

__version__ = "0.1.0"
