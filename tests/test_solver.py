"""Unit tests for the grid patch solver, residuals, and MGP1 round trips."""

import itertools
import math

import numpy as np
import pytest

from mingraph import solver
from mingraph.models import model_affine, model_slag_exp


def make_affine():
    return model_affine(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([0.3, -0.2]))


def test_patch_validation():
    with pytest.raises(ValueError):
        solver.GraphPatch(2, 1, (2, 5), 0.1, np.zeros(2), np.zeros((2, 5, 1)))
    with pytest.raises(ValueError):
        solver.GraphPatch(2, 1, (5, 5), -0.1, np.zeros(2), np.zeros((5, 5, 1)))
    with pytest.raises(ValueError):
        solver.GraphPatch(4, 1, (5, 5, 5, 5), 0.1, np.zeros(4), np.zeros((5, 5, 5, 5, 1)))


def test_boundary_mask_is_outer_layer():
    patch = solver.GraphPatch(2, 1, (5, 4), 0.1, np.zeros(2), np.zeros((5, 4, 1)))
    mask = patch.boundary_mask
    assert mask.sum() == 5 * 4 - 3 * 2
    assert not mask[2, 2]


def test_mgp1_roundtrip(tmp_path):
    patch = solver.GraphPatch.from_model(make_affine(), [-1, 0.5], (7, 9), 0.25)
    solver.save_patch(patch, tmp_path / "p.json")
    back = solver.load_patch(tmp_path / "p.json")
    assert back.dims == patch.dims
    assert back.spacing == patch.spacing
    assert np.array_equal(back.values, patch.values)
    assert np.array_equal(back.origin, patch.origin)


def test_mgp1_rejects_foreign_manifest(tmp_path):
    (tmp_path / "bad.json").write_text('{"format": "other"}')
    with pytest.raises(ValueError):
        solver.load_patch(tmp_path / "bad.json")
    (tmp_path / "short.json").write_text('{"format": "MGP1", "n": 2}')
    with pytest.raises(ValueError, match="'m'"):
        solver.load_patch(tmp_path / "short.json")


def test_residual_strong_zero_on_minimal_models():
    slag = model_slag_exp()
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.5, 1.5, (40, 2))
    r = solver.residual_strong(slag.jacobian(x), slag.hessian(x))
    assert np.max(np.abs(r)) < 1e-12


def test_interior_derivatives_match_model():
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [-1, -1], (33, 33), 2 / 32)
    Du, H = solver._interior_derivatives(patch)
    inner = patch.node_coords()[1:-1, 1:-1]
    assert np.max(np.abs(Du - slag.jacobian(inner))) < 5e-3
    assert np.max(np.abs(H - slag.hessian(inner))) < 5e-2


def test_divergence_residual_needs_deep_interior():
    # defined on nodes 2..6 of a 9 x 9 grid only, and zero for affine data
    patch = solver.GraphPatch.from_model(make_affine(), [0, 0], (9, 9), 0.1)
    div = solver.divergence_residual_field(patch)
    assert div.shape == (5, 5, 2)
    assert np.max(np.abs(div)) < 1e-12


def test_divergence_and_strong_residuals_converge_together():
    # on sampled minimal data both discrete residuals vanish at second order,
    # so their gap does too
    slag = model_slag_exp()
    gaps = []
    for nodes in (17, 33):
        patch = solver.GraphPatch.from_model(slag, [0, 0], (nodes, nodes),
                                             1.0 / (nodes - 1))
        strong = solver.strong_residual_field(patch)[1:-1, 1:-1]
        div = solver.divergence_residual_field(patch)
        gaps.append(max(np.max(np.abs(strong)), np.max(np.abs(div))))
    assert math.log2(gaps[0] / gaps[1]) > 1.9


def test_solve_affine_exact():
    patch = solver.GraphPatch.from_model(make_affine(), [-1, -1], (17, 17), 0.125)
    exact = patch.values.copy()
    patch.values[1:-1, 1:-1] = 0.0
    report = solver.solve(patch)
    assert report.converged
    assert report.iterations <= 2
    assert np.max(np.abs(patch.values - exact)) < 1e-12


def test_solve_slag_converges_second_order():
    slag = model_slag_exp()
    errs = []
    for nodes in (17, 33):
        patch = solver.GraphPatch.from_model(slag, [0, 0], (nodes, nodes),
                                             1.0 / (nodes - 1))
        exact = patch.values.copy()
        patch.values[1:-1, 1:-1] = 0.0
        report = solver.solve(patch)
        assert report.converged
        errs.append(np.max(np.abs(patch.values - exact)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_solve_reports_non_convergence():
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    patch.values[1:-1, 1:-1] = 0.0
    report = solver.solve(patch, max_iter=0)
    assert not report.converged
    assert report.residual > 0.0


def test_solve_3d_affine():
    model = model_affine(np.array([[0.5, -1.0, 2.0]]), np.array([0.1]))
    patch = solver.GraphPatch.from_model(model, [0, 0, 0], (7, 7, 7), 1 / 6)
    exact = patch.values.copy()
    patch.values[1:-1, 1:-1, 1:-1] = 0.0
    report = solver.solve(patch)
    assert report.converged
    assert np.max(np.abs(patch.values - exact)) < 1e-11


def test_weak_harmonicity_defect_small_on_solution():
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    solver.solve(patch)
    # sampled (unsolved) data has a much larger defect than the solved patch
    solved = solver.weak_harmonicity_defect(patch, 0)
    rough = patch.values.copy()
    patch.values[1:-1, 1:-1] += 0.01
    perturbed = solver.weak_harmonicity_defect(patch, 0)
    patch.values[:] = rough
    assert solved < 1e-4
    assert perturbed > 10 * solved


def test_residual_strong_hand_value():
    # m=1, n=1 style check embedded in n=2: u = x1^2, residual 2/(1+4x1^2)
    J = np.array([[2.0, 0.0]])  # Du at x1 = 1
    H = np.array([[[2.0, 0.0], [0.0, 0.0]]])
    assert solver.residual_strong(J, H)[0] == pytest.approx(0.4)


def test_solve_target_rigid_motion_equivariance():
    slag = model_slag_exp()
    Q = np.array([[0.6, -0.8], [0.8, 0.6]])
    b = np.array([0.3, -1.0])
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    patch.values[1:-1, 1:-1] = 0.0
    moved = solver.GraphPatch(2, 2, (17, 17), 1 / 16, np.zeros(2),
                              patch.values @ Q.T + b)
    moved.values[1:-1, 1:-1] = 0.0
    bmask = patch.boundary_mask
    moved.values[bmask] = patch.values[bmask] @ Q.T + b
    assert solver.solve(patch).converged
    assert solver.solve(moved).converged
    assert np.max(np.abs(moved.values - (patch.values @ Q.T + b))) < 1e-8


def test_solve_scaling_equivariance():
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    patch.values[1:-1, 1:-1] = 0.0
    scaled = solver.GraphPatch(2, 2, (17, 17), 3.0 / 16, np.zeros(2),
                               3.0 * patch.values)
    scaled.values[1:-1, 1:-1] = 0.0
    assert solver.solve(patch).converged
    assert solver.solve(scaled).converged
    assert np.max(np.abs(scaled.values - 3.0 * patch.values)) < 1e-7


def test_discrete_maximum_principle_scalar():
    patch = solver.GraphPatch(2, 1, (17, 17), 1 / 16, np.zeros(2),
                              np.zeros((17, 17, 1)))
    coords = patch.node_coords()
    bmask = patch.boundary_mask
    bdry = np.sin(3.0 * coords[..., 0]) * np.cos(2.0 * coords[..., 1])
    patch.values[bmask, 0] = bdry[bmask]
    report = solver.solve(patch)
    assert report.converged
    lo = patch.values[bmask].min()
    hi = patch.values[bmask].max()
    assert patch.values.min() >= lo - 10 * solver.DEFAULT_TOL
    assert patch.values.max() <= hi + 10 * solver.DEFAULT_TOL


def test_solve_zero_boundary_gives_zero():
    patch = solver.GraphPatch(2, 2, (9, 9), 0.1, np.zeros(2), np.zeros((9, 9, 2)))
    patch.values[1:-1, 1:-1] = 0.5  # junk interior, must be replaced
    report = solver.solve(patch)
    assert report.converged
    assert np.max(np.abs(patch.values)) < 1e-12


def test_weak_defect_zero_for_affine():
    patch = solver.GraphPatch.from_model(make_affine(), [0, 0], (9, 9), 0.1)
    assert solver.weak_harmonicity_defect(patch, 0) < 1e-12
    assert solver.weak_harmonicity_defect(patch, 1) < 1e-12


def weak_defect_node_loop(patch, alpha):
    """Reference: the weak defect summed node by node, corner by corner."""
    n, h = patch.n, patch.spacing
    corners = list(itertools.product((0, 1), repeat=n))
    DU = np.zeros(tuple(d - 1 for d in patch.dims) + (patch.m, n))
    for cell in itertools.product(*[range(d - 1) for d in patch.dims]):
        for c in corners:
            node = tuple(i + ci for i, ci in zip(cell, c))
            for k in range(n):
                sign = 1.0 if c[k] else -1.0
                DU[cell + (slice(None), k)] += (
                    sign * patch.values[node] / (2 ** (n - 1) * h))
    g = np.eye(n) + np.einsum("...ak,...al->...kl", DU, DU)
    v = np.sqrt(np.linalg.det(g))
    flux = np.einsum("...,...ij,...j->...i", v, np.linalg.inv(g), DU[..., alpha, :])
    defect = 0.0
    for p in itertools.product(*[range(1, d - 1) for d in patch.dims]):
        s = 0.0
        for c in corners:
            fc = flux[tuple(pi - 1 + ci for pi, ci in zip(p, c))]
            for k in range(n):
                s += fc[k] * (1.0 if c[k] else -1.0) / (2 ** (n - 1) * h)
        defect = max(defect, abs(s * h**n))
    return defect / (float(np.sum(v)) * h**n)


@pytest.mark.parametrize("dims", [(9, 7), (5, 6, 4)])
def test_weak_harmonicity_defect_matches_node_loop(dims):
    rng = np.random.default_rng(5)
    patch = solver.GraphPatch(len(dims), 2, dims, 0.2, np.zeros(len(dims)),
                              rng.standard_normal(dims + (2,)))
    for alpha in (0, 1):
        assert solver.weak_harmonicity_defect(patch, alpha) == pytest.approx(
            weak_defect_node_loop(patch, alpha), rel=1e-12)
