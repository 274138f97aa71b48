"""zonofit: approximate a convex polytope by a fixed-rank zonotope.

The optimization variable is a zonotope (generator matrix + translation);
the objective is the exact Hausdorff distance to a fixed polytope, driven
by feasibility-cone-guided subgradient descent with certificate-style
local-minimum diagnostics.
"""

from .geom import (
    FaceDescriptor,
    LiftPoint,
    Polytope,
    Zonotope,
    canonicalize,
    enumerate_vertices,
    is_general_position,
    polytope_from_json,
    polytope_to_json,
    zonotope_as_polytope,
    zonotope_from_json,
    zonotope_to_json,
)
from .hausdorff import (
    AchievingPair,
    LocalityReport,
    SmoothTerm,
    check_locality,
    coarse_hausdorff_distance,
    evaluate,
    hausdorff_distance,
    local_terms,
)
from .subgrad import clarke_subdifferential, finite_difference_gradient
from .cone import DirectionResult, FeasibilityCone, build_cone, descent_direction, tau_limits
from .descent import DescentConfig, DescentTrace, optimize
from .warmstart import warmstart_zonotope

__version__ = "0.1.0"

__all__ = [
    "Zonotope",
    "Polytope",
    "LiftPoint",
    "FaceDescriptor",
    "canonicalize",
    "is_general_position",
    "enumerate_vertices",
    "zonotope_as_polytope",
    "polytope_from_json",
    "polytope_to_json",
    "zonotope_from_json",
    "zonotope_to_json",
    "AchievingPair",
    "LocalityReport",
    "SmoothTerm",
    "hausdorff_distance",
    "coarse_hausdorff_distance",
    "check_locality",
    "evaluate",
    "local_terms",
    "clarke_subdifferential",
    "finite_difference_gradient",
    "FeasibilityCone",
    "DirectionResult",
    "build_cone",
    "descent_direction",
    "tau_limits",
    "DescentConfig",
    "DescentTrace",
    "optimize",
    "warmstart_zonotope",
    "__version__",
]
