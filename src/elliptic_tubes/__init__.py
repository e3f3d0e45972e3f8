"""Elliptic tubes over properly convex projective domains.

A properly convex open set D of real projective space sits inside complex
projective space; its elliptic tube is the union of the disks whose
diameters are the open segments of D.  This package computes with tubes:
membership along two independent routes, slice geometry and the boundary
angle, the two-point distance on its supported configurations, projective
duality with constructive separators, the tangent-vector parametrization,
raster-based topology checks of complex-line slices, and quotients by
discrete groups of projective transformations.
"""

from .catalog import (
    by_name,
    disk,
    doubling_map,
    ellipse,
    halfline,
    interval,
    simplex,
    simplex_diagonal_maps,
    square,
    triangle,
)
from .diskgeom import (
    angle_from_distance,
    disk_automorphism,
    distance_from_angle,
    geodesic_foot,
    poincare_distance,
)
from .domains import ConvexDomain, Ellipsoid, HDomain, SliceDisk, VPolytope
from .domspec import DomainSpec, format_domain_text, load_domain, parse_domain_text, save_domain
from .duality import (
    DualDomain,
    annihilator,
    closed_dual_membership,
    dual_chart,
    dual_of,
    dual_tube,
    tangent_set_sample,
    tube_separator,
)
from .errors import (
    CollinearityError,
    DegenerateError,
    DomainSpecError,
    DrawBudgetError,
    EmptySliceError,
    GeometryError,
    GroupValidationError,
    InfinityError,
    InsideTubeError,
    NotBoundaryError,
    NotInteriorError,
    OutsideTubeError,
    RealInputError,
    RealPointError,
    RepresentationError,
    UnsupportedConfigurationError,
    ValidationError,
    ZeroDirectionError,
)
from .projective import (
    Chart,
    Functional,
    HPoint,
    ProjectiveMap,
    RealLine,
    cross_ratio,
    is_real,
    line_chart,
    normalize_lift,
    proj_eq,
    pushforward,
    real_trace_line,
)
from .quotients import (
    ConvexRPManifold,
    OrbitResult,
    check_free_action,
    orbit_reduce,
    quotient_distance_cyclic,
)
from .report import VerifierReport
from .tangent import TangentVector, from_tangent, to_tangent
from .tube import (
    COMPLEX_BOUNDARY,
    EXTERIOR,
    INTERIOR,
    REAL_BOUNDARY,
    Tube,
    interval_gauges,
)
from .verify import (
    SliceRaster,
    connectivity_counts,
    rasterize_line,
    verify_c_convexity,
    verify_duality_identity,
    verify_exhaustion_monotone,
    verify_homeomorphism,
    verify_linear_convexity,
    verify_metric_consistency,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
