"""The package's public surface: every export resolves, removed names stay gone."""

import importlib
import inspect
import pkgutil

import mingraph
from mingraph import algebra, diagnostics, grassmann, measure

# Definitions deleted or moved into the tests as reference oracles.  None of
# them may come back as a public or private name of the package.
REMOVED = {
    # algebra
    "sqrt2_lower_bound",
    # grassmann
    "induced_metric", "_spd_inverse",
    # diagnostics
    "SffTensor", "sff_at", "sff_tensor", "_adapted_svd", "_contract",
    "laplace_inv_slope_formula", "laplace_inv_slope_fd", "deltav_inverse",
    "intrinsic_laplacian_fd", "grad_logv_tangential_norm2",
    "_tangential_grad2", "_pad_normals", "tangent_projector",
    "sff_norm2_projector",
    # measure
    "volume_growth_bound_check", "GrowthCheck", "PredicateViolationError",
    "blow_down", "max_slope_on_box", "_volume_once", "_unit_ring",
    # models
    "model_graph_plane_basis",
    # solver
    "weak_harmonicity_defect", "divergence_residual_field", "_flux_field",
    "_dissection_order", "_unknown_order", "_ordered_solve", "_DISSECTION_LEAF",
    "_stencil", "_stencil_matrix", "_assemble", "_node_ids",
    # util: the midpoint box rule, its vertex excision and chunk-sum stack
    "_ball_midpoint_sum", "_WINDOW", "VERTEX_CUTOFF_FRAC", "_usable_cpus",
    # util: the chunk-streaming layer the box rule needed
    "_ChunkRanges", "chunk_ranges", "grid_points",
}


def package_modules():
    return [mingraph] + [importlib.import_module(f"mingraph.{info.name}")
                         for info in pkgutil.iter_modules(mingraph.__path__)]


def test_every_export_resolves():
    assert len(set(mingraph.__all__)) == len(mingraph.__all__)
    missing = [name for name in mingraph.__all__ if not hasattr(mingraph, name)]
    assert missing == []


def test_removed_names_stay_removed():
    found = {module.__name__: sorted(REMOVED & set(vars(module)))
             for module in package_modules()}
    assert {name: names for name, names in found.items() if names} == {}
    assert not REMOVED & set(mingraph.__all__)


def test_algebra_checks_take_no_per_report_knobs():
    # verify-algebra's report pool is the one place algebra work runs in
    # parallel, and the scans cover the fixed box [0, MU_MAX]^3 with tolerance
    # NONNEG_TOL: no public function takes a thread count, box or tolerance
    knobs = {name: sorted({"threads", "mu_max", "tol"}
                          & set(inspect.signature(fn).parameters))
             for name, fn in inspect.getmembers(algebra, inspect.isfunction)
             if fn.__module__ == algebra.__name__ and not name.startswith("_")}
    assert {name: found for name, found in knobs.items() if found} == {}
    assert "scan_mu123" in knobs and "xi11_sampler" in knobs
    params = inspect.signature(grassmann.PlaneBasis.coordinate).parameters
    assert list(params) == ["dim", "ambient"]


def test_quadratures_take_no_thread_count_or_cutoff():
    # density_profile's radii pool is the one place quadrature runs in
    # parallel, and the polar rule puts no node at a cone vertex
    for fn in (measure.graph_volume, diagnostics.curvature_integral):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"threads", "cutoff"}, fn.__name__
