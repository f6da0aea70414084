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
    jordan_angles,
    log_slope,
    metric_inverse,
    plane_inner,
    singular_spectrum,
    slope,
    two_dilation,
)
from mingraph.models import (
    AnalyticModel,
    get_model,
    model_affine,
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
)
from mingraph.diagnostics import (
    curvature_integral,
    logv_identity,
    sff_norm2,
)
from mingraph.measure import (
    density_profile,
    graph_volume,
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
    "sff_norm2",
    "solve",
    "graph_plane_basis",
    "grassmann_distance",
    "jordan_angles",
    "log_slope",
    "metric_inverse",
    "model_affine",
    "model_lawson_osserman",
    "model_slag_exp",
    "plane_inner",
    "singular_spectrum",
    "slope",
    "two_dilation",
]
