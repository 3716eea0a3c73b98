"""crlab: numerical geometry of the complex hyperbolic plane for a
one-parameter family of deformed Ford domains.

Subpackages:
  core      Hermitian linear algebra of signature (2,1), box product, polarity
  isometry  SU(2,1) lifts, trace classification, eigendata, elliptic types
  family    the two-parameter representation family and its trace coordinates
  bisector  bisectors/extors, pair classification, Giraud tori, level sets
  visual    visual-sphere charts, projections, tangency and angle bounds
  verify    the TF/LC/GC verification engine and surgery verdicts
  figures   deterministic CSV/SVG figure data
"""

from .core import (
    HermitianSpace,
    HVec,
    Location,
    Model,
    ball_model,
    box,
    custom_model,
    inner,
    locate,
    polar,
    pole,
    proj_equal,
    siegel_model,
)
from .isometry import (
    EllipticType,
    Isometry,
    IsometryKind,
    canonical_fixed_point,
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
    build_rep,
    param_side,
    peripheral_type,
    region_Z,
    remarkable_points,
    schwartz_point,
    trace_coords,
)
from .bisector import (
    Bisector,
    BisectorKind,
    ExtorPairKind,
    GiraudTorus,
    classify_bisector,
    classify_pair,
    membership,
    real_spine_endpoints,
    symmetric_intersection_type,
)
from .visual import (
    VisualChart,
    angular_diameter,
    induced_action,
    project_bisector,
    silhouette_circle,
    tangency_check,
)
from .verify import FaceFamily, VerificationReport, verify

__version__ = "0.1.0"
