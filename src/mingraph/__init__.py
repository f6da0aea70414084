"""Numerical toolkit for minimal graphs of high codimension.

Pointwise plane invariants (singular spectrum, slope, 2-dilation, Jordan
angles), brute-force verification of the algebraic inequalities behind the
bounded-2-dilation theory, closed-form model geometries, a finite-difference
solver for the minimal surface system, curvature diagnostics, and
graph-volume / density-ratio quadrature.
"""

from mingraph.grassmann import (
    PlaneBasis,
    bernstein_condition,
    graph_plane_basis,
    grassmann_distance,
    induced_metric,
    jordan_angles,
    plane_inner,
    singular_spectrum,
    slope,
    two_dilation,
)
from mingraph.models import (
    AnalyticModel,
    get_model,
    model_affine,
    model_graph_plane_basis,
    model_lawson_osserman,
    model_slag_exp,
)
from mingraph.algebra import (
    check_lambda_inequality,
    check_sqrt2_inequality,
    delta_logv_rhs,
    phi,
    scan_mu123,
    scan_mu123_lambda,
)
from mingraph.solver import (
    GraphPatch,
    load_patch,
    residual_strong,
    save_patch,
    solve,
    weak_harmonicity_defect,
)
from mingraph.diagnostics import (
    curvature_integral,
    deltav_inverse,
    logv_identity,
    sff_at,
    sff_norm2,
)
from mingraph.measure import (
    density_profile,
    graph_volume,
    volume_growth_bound_check,
)

__all__ = [
    "AnalyticModel",
    "GraphPatch",
    "PlaneBasis",
    "bernstein_condition",
    "check_lambda_inequality",
    "check_sqrt2_inequality",
    "curvature_integral",
    "delta_logv_rhs",
    "deltav_inverse",
    "density_profile",
    "get_model",
    "graph_volume",
    "load_patch",
    "logv_identity",
    "phi",
    "residual_strong",
    "save_patch",
    "scan_mu123",
    "scan_mu123_lambda",
    "sff_at",
    "sff_norm2",
    "solve",
    "volume_growth_bound_check",
    "weak_harmonicity_defect",
    "graph_plane_basis",
    "grassmann_distance",
    "induced_metric",
    "jordan_angles",
    "model_affine",
    "model_graph_plane_basis",
    "model_lawson_osserman",
    "model_slag_exp",
    "plane_inner",
    "singular_spectrum",
    "slope",
    "two_dilation",
]
