"""Unit tests for the grid patch solver, residuals, and MGP1 round trips."""

import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mingraph import solver
from mingraph import grassmann
from mingraph.models import model_affine, model_lawson_osserman, model_slag_exp


def make_affine():
    return model_affine(np.array([[1.0, 2.0], [0.5, -1.0]]), np.array([0.3, -0.2]))


# Reference residuals of the minimal surface system in divergence and weak
# form; solve() drives only the strong form to zero.


def divergence_residual_field(patch) -> np.ndarray:
    """Divergence-form residual (1/v) sum_i d_i (v g^{ij} d_j u^alpha).

    Second-order central differences on the deep interior (2:-2), where the
    stencil of every node stays inside the interior flux field.
    """
    Du, _ = solver._interior_derivatives(patch.values, patch.spacing)
    g = np.eye(patch.n) + np.einsum("...ai,...aj->...ij", Du, Du)
    v = np.exp(grassmann.log_slope(Du))
    # flux F[..., alpha, i] = v g^{ij} d_j u^alpha at interior nodes
    F = v[..., None, None] * np.einsum("...ij,...aj->...ai", np.linalg.inv(g), Du)
    n = patch.n
    out = 0.0
    for k, ek in enumerate(np.eye(n, dtype=int)):
        out = out + (solver._shift(F, ek)[..., k] - solver._shift(F, -ek)[..., k]) / (
            2 * patch.spacing
        )
    return out / solver._shift(v, [0] * n)[..., None]


def weak_harmonicity_defect(patch, alpha) -> float:
    """Max weak-form defect of u^alpha over interior multilinear hat functions.

    For each interior node p, integrates sum_{ij} v g^{ij} d_i u^alpha
    d_j phi_p by the midpoint rule per cell (multilinear interpolant
    gradients at cell centers), normalized by the total integral of v.
    """
    n = patch.n
    h = patch.spacing
    corners = [tuple(int(b) for b in np.binary_repr(c, n)) for c in range(2**n)]
    signs = [[1.0 if ck else -1.0 for ck in c] for c in corners]

    def corner(arr, c):
        # node array: corner c of every cell; cell array: of every interior node
        return arr[tuple(slice(1, None) if ck else slice(None, -1) for ck in c)]

    # cell-center gradient of the multilinear interpolant of the nodal values
    DU = np.stack([
        sum(sg[k] * corner(patch.values, c) / (2 ** (n - 1) * h)
            for c, sg in zip(corners, signs))
        for k in range(n)
    ], axis=-1)  # (cells..., m, n)
    g = np.eye(n) + np.einsum("...ai,...aj->...ij", DU, DU)
    v = np.exp(grassmann.log_slope(DU))
    flux = np.einsum("...,...ij,...j->...i", v, np.linalg.inv(g), DU[..., alpha, :])
    total_v = float(np.sum(v)) * h**n

    # hat at node p: nonzero on the 2^n adjacent cells; its multilinear
    # gradient at each adjacent cell center has magnitude 1/(2h) * 2^{1-n}
    # per axis, pointing toward p
    grad_mag = 1.0 / (2 ** (n - 1) * h)
    s = 0.0
    for c, sg in zip(corners, signs):
        fc = corner(flux, c)
        for k in range(n):
            s = s + fc[..., k] * sg[k] * grad_mag
    return float(np.max(np.abs(s * h**n))) / total_v


def test_patch_validation():
    with pytest.raises(ValueError):
        solver.GraphPatch(2, 1, (2, 5), 0.1, np.zeros(2), np.zeros((2, 5, 1)))
    with pytest.raises(ValueError):
        solver.GraphPatch(2, 1, (5, 5), -0.1, np.zeros(2), np.zeros((5, 5, 1)))
    with pytest.raises(ValueError):
        solver.GraphPatch(5, 1, (3,) * 5, 0.1, np.zeros(5), np.zeros((3,) * 5 + (1,)))
    for spacing, origin in [(np.nan, [0, 0]), (np.inf, [0, 0]), (0.1, [0, np.nan]),
                            (0.1, [0, 0, 0])]:
        with pytest.raises(ValueError, match="spacing|origin"):
            solver.GraphPatch(2, 1, (5, 5), spacing, origin, np.zeros((5, 5, 1)))
    # e^x overflows at x = 800: the model's values, not the zeros they
    # replace, go through the patch's checks
    with pytest.raises(ValueError, match="finite"):
        with np.errstate(over="ignore", invalid="ignore"):
            solver.GraphPatch.from_model(model_slag_exp(), [800.0, 0.0], (5, 5), 0.1)


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


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_residual_strong_matches_the_lapack_inverse(m, n):
    # np.linalg.inv as the oracle, on slopes lam_1 up to 1e3.  Any inverse of
    # g, LAPACK's too, is off by about eps cond(g) <= eps (1 + lam_1^2) of its
    # largest entry, so the bound scales with that, relative to the sum
    # sum |g^{ij} H_ij| that cancellations cannot shrink
    rng = np.random.default_rng(10 * m + n)
    u, _, vt = np.linalg.svd(rng.standard_normal((500, m, n)), full_matrices=False)
    lam = 10.0 ** rng.uniform(-2.0, 3.0, (500, min(m, n)))
    J = (u * lam[..., None, :]) @ vt
    H = rng.standard_normal((500, m, n, n))
    H = H + np.swapaxes(H, -1, -2)
    ginv = np.linalg.inv(np.eye(n) + np.einsum("...ai,...aj->...ij", J, J))
    ref = np.einsum("...ij,...aij->...a", ginv, H)
    scale = np.einsum("...ij,...aij->...a", np.abs(ginv), np.abs(H))
    bound = 16.0 * np.finfo(float).eps * (1.0 + np.max(lam, axis=-1) ** 2)
    assert np.all(np.abs(solver.residual_strong(J, H) - ref) <= bound[:, None] * scale)


def test_interior_derivatives_match_model():
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [-1, -1], (33, 33), 2 / 32)
    Du, H = solver._interior_derivatives(patch.values, patch.spacing)
    inner = patch.node_coords()[1:-1, 1:-1]
    assert np.max(np.abs(Du - slag.jacobian(inner))) < 5e-3
    assert np.max(np.abs(H - slag.hessian(inner))) < 5e-2


def test_divergence_residual_needs_deep_interior():
    # defined on nodes 2..6 of a 9 x 9 grid only, and zero for affine data
    patch = solver.GraphPatch.from_model(make_affine(), [0, 0], (9, 9), 0.1)
    div = divergence_residual_field(patch)
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
        div = divergence_residual_field(patch)
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
    solved = weak_harmonicity_defect(patch, 0)
    rough = patch.values.copy()
    patch.values[1:-1, 1:-1] += 0.01
    perturbed = weak_harmonicity_defect(patch, 0)
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
    assert weak_harmonicity_defect(patch, 0) < 1e-12
    assert weak_harmonicity_defect(patch, 1) < 1e-12


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
        assert weak_harmonicity_defect(patch, alpha) == pytest.approx(
            weak_defect_node_loop(patch, alpha), rel=1e-12)


@pytest.mark.parametrize("dims", [(9, 6), (7, 5, 6), (5, 6, 4, 7)])
def test_poisson_solve_inverts_the_residual_laplacian(dims):
    # the sine-transform solve inverts tr H of _interior_derivatives with
    # zero boundary values, on unequal axes, for every component
    n, m = len(dims), 2
    patch = solver.GraphPatch(n, m, dims, 0.3, np.zeros(n), np.zeros(dims + (m,)))
    f = np.random.default_rng(n).standard_normal(tuple(d - 2 for d in dims) + (m,))
    patch.values[tuple(slice(1, -1) for _ in dims)] = solver._poisson_solve(patch, f)
    _, H = solver._interior_derivatives(patch.values, patch.spacing)
    laplacian = np.trace(H, axis1=-2, axis2=-1)
    assert np.max(np.abs(laplacian - f)) <= 1e-12 * np.max(np.abs(f))


def test_picard_fallback_converges_through_the_krylov_solve(monkeypatch):
    # a negated Newton action turns every damped Newton step into an ascent
    # step, so the first two iterations fall back to the frozen-coefficient
    # Picard step; later ones run plain Newton
    jacobian_action = solver._jacobian_action
    negated = []

    def negated_newton(patch, include_gradient_terms):
        action = jacobian_action(patch, include_gradient_terms)
        if include_gradient_terms and len(negated) < 2:
            negated.append(patch.dims)
            return lambda v: -action(v)
        return action

    solves = []
    krylov_solve = solver._krylov_solve

    def counting_solve(patch, action, rhs, rtol):
        # the second solve, the first Picard one, reports a missed tolerance
        x, stats = krylov_solve(patch, action, rhs, rtol)
        solves.append(rtol)
        return x, dict(stats, gmres_converged=stats["gmres_converged"]
                       and len(solves) != 2)

    monkeypatch.setattr(solver, "_jacobian_action", negated_newton)
    monkeypatch.setattr(solver, "_krylov_solve", counting_solve)
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    exact = patch.values.copy()
    patch.values[1:-1, 1:-1] = 0.0
    report = solver.solve(patch)
    assert report.converged
    assert report.damping_history[:2] == [-1.0, -1.0]
    assert all(step == 1.0 for step in report.damping_history[2:])
    residuals = [entry["residual"] for entry in report.iteration_log]
    assert residuals == sorted(residuals, reverse=True)
    # a Newton and a Picard solve per fallback step, then one per Newton step
    assert len(solves) == 2 * 2 + (report.iterations - 2)
    # both solves of a fallback step run at the eta its log entry shows
    etas = [entry["eta"] for entry in report.iteration_log]
    assert solves == [etas[0]] * 2 + [etas[1]] * 2 + etas[2:]
    # a Picard step's log entry flags a miss of either of its two solves
    flags = [entry["gmres_converged"] for entry in report.iteration_log]
    assert flags == [False] + [True] * (report.iterations - 1)
    assert np.max(np.abs(patch.values - exact)) < 1e-3


def test_ascent_directions_reach_picard_every_iteration(monkeypatch):
    # with the Newton action negated on every iteration no Newton step may
    # pass the sufficient-decrease test, however small the residual: each
    # iteration must end in the Picard fallback, which converges on its own
    jacobian_action = solver._jacobian_action

    def negated_newton(patch, include_gradient_terms):
        action = jacobian_action(patch, include_gradient_terms)
        return (lambda v: -action(v)) if include_gradient_terms else action

    monkeypatch.setattr(solver, "_jacobian_action", negated_newton)
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    exact = patch.values.copy()
    patch.values[1:-1, 1:-1] = 0.0
    report = solver.solve(patch)
    assert report.converged
    assert report.damping_history == [-1.0] * report.iterations
    assert np.max(np.abs(patch.values - exact)) < 1e-3


def scaled_linear_steps(monkeypatch, factor):
    """Make every Krylov solve return ``factor`` times its solution."""
    krylov_solve = solver._krylov_solve

    def scaled(patch, action, rhs, rtol):
        x, stats = krylov_solve(patch, action, rhs, rtol)
        return factor * x, stats

    monkeypatch.setattr(solver, "_krylov_solve", scaled)


def slag_patch_from_harmonic_guess():
    patch = solver.GraphPatch.from_model(model_slag_exp(), [0, 0], (17, 17), 1 / 16)
    patch.values[1:-1, 1:-1] = 0.0
    solver.harmonic_initial_guess(patch)
    return patch


def test_damped_newton_step_is_accepted(monkeypatch):
    # a Newton step 4x too long fails the line search at t = 1, and t = 1/2
    # fails or is halved on to t = 1/4, which is exactly the Newton step: the
    # iterates are those of the undamped solve, bit for bit.  As shipped,
    # the inexact step's linear residual lets t = 1/2 pass on iteration 2;
    # solved to _GMRES_RTOL, t = 1/2 fails outright
    krylov_solve = solver._krylov_solve
    for eta_max in (solver._ETA_MAX, solver._GMRES_RTOL):
        monkeypatch.setattr(solver, "_ETA_MAX", eta_max)
        monkeypatch.setattr(solver, "_krylov_solve", krylov_solve)
        reference = slag_patch_from_harmonic_guess()
        undamped = solver.solve(reference, initial_guess=False)
        assert undamped.damping_history == [1.0] * undamped.iterations
        patch = slag_patch_from_harmonic_guess()
        scaled_linear_steps(monkeypatch, 4.0)
        report = solver.solve(patch, initial_guess=False)
        assert report.converged
        assert report.damping_history == [0.25] * undamped.iterations
        assert np.array_equal(patch.values, reference.values)


def test_divergence_aborts_with_the_best_iterate_restored(monkeypatch):
    # reversed linear steps push the residual up from the start, so the
    # solve must stop 20 iterations after it first exceeds 10x the best one,
    # and hand back the start
    patch = slag_patch_from_harmonic_guess()
    start = patch.values.copy()
    start_residual = float(np.max(np.abs(solver.strong_residual_field(patch))))
    scaled_linear_steps(monkeypatch, -1.0)
    report = solver.solve(patch, initial_guess=False)
    assert not report.converged
    assert report.iterations < 50  # max_iter
    assert report.residual == start_residual
    assert np.array_equal(patch.values, start)
    residuals = [entry["residual"] for entry in report.iteration_log]
    assert min(residuals[-20:]) > 10.0 * start_residual
    assert residuals[-21] <= 10.0 * start_residual


def test_a_solve_that_never_improves_hands_back_the_start(monkeypatch):
    # reversed linear steps within max_iter: the solve ends at the iteration
    # cap, not by divergence, and must still restore the best iterate
    patch = slag_patch_from_harmonic_guess()
    start = patch.values.copy()
    start_residual = float(np.max(np.abs(solver.strong_residual_field(patch))))
    scaled_linear_steps(monkeypatch, -1.0)
    report = solver.solve(patch, initial_guess=False, max_iter=3)
    assert report.iterations == 3
    assert not report.converged
    assert report.residual == start_residual
    assert np.array_equal(patch.values, start)


def smooth_patch(dims, m, seed):
    """Random smooth data sin(a . x + b) per component, spacing 0.2."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    patch = solver.GraphPatch(n, m, dims, 0.2, rng.uniform(-1, 1, n),
                              np.zeros(dims + (m,)))
    a, b = rng.standard_normal((m, n)), rng.uniform(0, np.pi, m)
    patch.values[:] = np.sin(patch.node_coords() @ a.T + b)
    return patch


def central_difference_jacobian(patch, eps=1e-6):
    """d(strong residual)/d(interior values), one unknown at a time."""
    inner = tuple(slice(1, -1) for _ in patch.dims)
    x = patch.values[inner].copy()
    columns = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = eps
        patch.values[inner] = x + step.reshape(x.shape)
        up = solver.strong_residual_field(patch).ravel()
        patch.values[inner] = x - step.reshape(x.shape)
        down = solver.strong_residual_field(patch).ravel()
        columns.append((up - down) / (2 * eps))
    patch.values[inner] = x
    return np.stack(columns, axis=1)


def action_matrix(patch, include_gradient_terms):
    """The matrix of ``_jacobian_action``, one unit direction per column."""
    action = solver._jacobian_action(patch, include_gradient_terms)
    size = math.prod(d - 2 for d in patch.dims) * patch.m
    return np.stack([action(unit) for unit in np.eye(size)], axis=1)


@pytest.mark.parametrize("dims", [(7, 6), (6, 5, 7), (5, 5, 5, 4)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_newton_matrix_is_the_residual_jacobian(dims, m):
    # the Newton action, applied column by column, against central differences
    patch = smooth_patch(dims, m, seed=len(dims) * 10 + m)
    A = action_matrix(patch, include_gradient_terms=True)
    J = central_difference_jacobian(patch)
    assert np.max(np.abs(A - J)) <= 1e-8 * np.max(np.abs(A))


@pytest.mark.parametrize("dims", [(7, 6), (6, 5, 7), (5, 5, 5, 4)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_picard_matrix_applies_the_frozen_metric(dims, m):
    # the Picard action maps delta to g0^{ij} D_ij delta, with g0 = g(Du) of
    # the patch frozen and delta zero on the boundary
    patch = smooth_patch(dims, m, seed=len(dims) * 10 + m)
    Du, _ = solver._interior_derivatives(patch.values, patch.spacing)
    ginv = np.linalg.inv(np.eye(patch.n) + np.einsum("...ai,...aj->...ij", Du, Du))
    delta = solver.GraphPatch(patch.n, m, dims, patch.spacing, patch.origin,
                              np.zeros(dims + (m,)))
    inner = tuple(slice(1, -1) for _ in dims)
    delta.values[inner] = np.random.default_rng(m).standard_normal(Du.shape[:-1])
    _, H = solver._interior_derivatives(delta.values, delta.spacing)
    expected = np.einsum("...kl,...akl->...a", ginv, H).ravel()
    picard = solver._jacobian_action(patch, include_gradient_terms=False)
    got = picard(delta.values[inner].ravel())
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dims, rtol", [
    pytest.param(dims, rtol, id=f"dims{k}{suffix}")
    for rtol, suffix in [(solver._GMRES_RTOL, ""), (1e-3, "-rtol1e-3"), (0.1, "-rtol0.1")]
    for k, dims in enumerate([(33, 33), (9, 8, 7), (7, 6, 7, 5)])
])
def test_krylov_solve_meets_its_tolerance_on_the_newton_system(dims, rtol):
    # preconditioned GMRES solves a Newton system to the relative tolerance
    # on its true residual, well inside one restart cycle: the first slag-exp
    # step in 2-D, smooth data in 3-D and 4-D, at the floor and at two
    # forcing terms
    if len(dims) == 2:
        patch = solver.GraphPatch.from_model(model_slag_exp(), [0, 0], dims, 1 / 32)
        solver.harmonic_initial_guess(patch)
    else:
        patch = smooth_patch(dims, 2, seed=len(dims))
    action = solver._jacobian_action(patch, include_gradient_terms=True)
    rhs = -solver.strong_residual_field(patch)
    x, stats = solver._krylov_solve(patch, action, rhs, rtol)
    assert stats["gmres_converged"]
    assert stats["gmres_iterations"] <= 40
    residual = np.linalg.norm(action(x.ravel()) - rhs.ravel())
    assert residual <= rtol * np.linalg.norm(rhs)


@pytest.mark.parametrize("restart, cycles, rtol, restarted, converged", [
    # within the first cycle, at the floor and at two forcing terms
    pytest.param(60, 5, 1e-12, False, True, id="60-5-False-True"),
    pytest.param(60, 5, 1e-3, False, True, id="60-5-False-True-rtol1e-3"),
    pytest.param(60, 5, 0.1, False, True, id="60-5-False-True-rtol0.1"),
    pytest.param(8, 20, 1e-12, True, True, id="8-20-True-True"),  # through restarts
    # tolerance missed after two cycles
    pytest.param(3, 2, 1e-12, True, False, id="3-2-True-False"),
])
def test_krylov_solve_follows_scipy_gmres(monkeypatch, restart, cycles, rtol,
                                          restarted, converged):
    # the GMRES loop against scipy's, on a nonsymmetric Newton system: same
    # iterations, same outcome and the same x
    import scipy.sparse.linalg as spla
    monkeypatch.setattr(solver, "_GMRES_RESTART", restart)
    monkeypatch.setattr(solver, "_GMRES_CYCLES", cycles)
    patch = smooth_patch((9, 8, 7), 2, seed=3)
    action = solver._jacobian_action(patch, include_gradient_terms=True)
    rhs = -solver.strong_residual_field(patch)
    x, stats = solver._krylov_solve(patch, action, rhs, rtol)

    def precondition(r):
        return solver._poisson_solve(patch, r.reshape(rhs.shape)).ravel()

    # the right-preconditioned system action(precondition(y)) = rhs, with no M,
    # and x = precondition(y)
    size, steps = rhs.size, []
    y, info = spla.gmres(
        spla.LinearOperator((size, size), matvec=lambda v: action(precondition(v)),
                            dtype=float), rhs.ravel(),
        rtol=rtol, restart=restart, maxiter=cycles,
        callback=steps.append, callback_type="pr_norm")
    expected = precondition(y)
    assert stats["gmres_converged"] is (info == 0) is converged
    assert stats["gmres_iterations"] == len(steps)
    assert (len(steps) > restart) is restarted
    assert np.linalg.norm(x.ravel() - expected) <= 1e-12 * np.linalg.norm(expected)


def test_forcing_term_saves_gmres_work_at_no_cost_in_accuracy(monkeypatch):
    # slag-exp on 33^2 as shipped, and with every linear step solved to the
    # floor _GMRES_RTOL (a fixed-tolerance Newton solve): the forcing term
    # must take at most half the GMRES iterations and land on the same values
    runs = []
    for eta_max in (solver._ETA_MAX, solver._GMRES_RTOL):
        monkeypatch.setattr(solver, "_ETA_MAX", eta_max)
        patch = solver.GraphPatch.from_model(model_slag_exp(), [0, 0], (33, 33), 1 / 32)
        patch.values[1:-1, 1:-1] = 0.0
        report = solver.solve(patch)
        assert report.converged
        etas = [entry["eta"] for entry in report.iteration_log]
        assert all(solver._GMRES_RTOL <= eta <= eta_max for eta in etas)
        work = sum(entry["gmres_iterations"] for entry in report.iteration_log)
        runs.append((work, patch.values))
    (forcing_work, forcing), (fixed_work, fixed) = runs
    assert 2 * forcing_work <= fixed_work
    assert np.max(np.abs(forcing - fixed)) <= 1e-10 * np.max(np.abs(fixed))


def test_krylov_solve_degenerate_systems_stay_finite():
    # a zero rhs takes no iteration; a zero action breaks down at once, and
    # its Givens rotation of (0, 0) leaves x = 0, as scipy's gmres does
    patch = solver.GraphPatch(2, 1, (6, 6), 0.25, [0, 0], np.zeros((6, 6, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, zero_rhs = solver._krylov_solve(patch, np.negative, np.zeros((4, 4, 1)),
                                          solver._GMRES_RTOL)
        x, zero_action = solver._krylov_solve(patch, np.zeros_like, np.ones((4, 4, 1)),
                                             solver._GMRES_RTOL)
    assert zero_rhs["gmres_iterations"] == 0 and zero_rhs["gmres_converged"]
    assert zero_action["gmres_iterations"] == 1 and not zero_action["gmres_converged"]
    assert np.array_equal(x, np.zeros((4, 4, 1)))


def test_importing_the_cli_loads_no_scipy():
    # numpy is the only run-time dependency; scipy serves only as the oracle
    code = ("import sys, mingraph.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    src = str(Path(solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_solver_stencil_has_one_home():
    # difference quotients are written only in _interior_derivatives: the
    # Newton and Picard actions, the preconditioner's eigenvalues and the
    # harmonic guess all apply it
    own = inspect.getsource(solver._interior_derivatives)
    text = Path(solver.__file__).read_text()
    assert own in text
    quotient = re.compile(r"\d(\.0)?\s*\*\s*[hn]\b|\bh\s*\*\*|/\s*\(?h\b")
    found = [m.group(0) for m in quotient.finditer(text.replace(own, ""))]
    assert found == []


def test_solver_residual_has_one_home_in_solve():
    # every residual of a solve, the start, each trial step and each halving,
    # is evaluated by one helper
    assert inspect.getsource(solver.solve).count("strong_residual_field(") == 1


def test_solve_4d_cone_from_exact_boundary_data():
    # the Lawson-Osserman cone from exact boundary data, away from its vertex
    cone = model_lawson_osserman()
    errs = []
    for nodes in (5, 7, 9, 11):
        patch = solver.GraphPatch.from_model(cone, [0.5, 0.2, -0.3, 0.4],
                                             (nodes,) * 4, 1.0 / (nodes - 1))
        exact = patch.values.copy()
        patch.values[1:-1, 1:-1, 1:-1, 1:-1] = 0.0
        report = solver.solve(patch)
        assert report.converged
        assert report.damping_history == [1.0] * 4
        errs.append(np.max(np.abs(patch.values - exact)))
    assert errs[1] <= 1.2e-3
    assert errs[0] >= 1.5 * errs[1]
    # second order: the error falls like h^2 from 8 to 10 cells per axis
    assert errs[2] / errs[3] >= 0.9 * (10 / 8) ** 2


def test_solve_scherk_from_exact_boundary_data():
    # Scherk's surface u = log(cos y / cos x), m = 1 and not harmonic, on
    # [-1.45, 1.45]^2: its slope grows toward the corners, where
    # |u_x| = |u_y| = tan 1.45 = 8.2, and GMRES needs more iterations per
    # step as the grid is refined: [5, 5, 8, 11, 11], [6, 8, 8, 14, 22] and
    # [7, 10, 11, 15, 28, 26] at 17, 33 and 65 nodes
    errs = []
    for nodes, steps in ((17, 5), (33, 5), (65, 6)):
        patch = solver.GraphPatch(2, 1, (nodes, nodes), 2.9 / (nodes - 1),
                                  [-1.45, -1.45], np.zeros((nodes, nodes, 1)))
        x = patch.node_coords()
        exact = np.log(np.cos(x[..., 1:]) / np.cos(x[..., :1]))
        patch.values[:] = exact
        patch.values[1:-1, 1:-1] = 0.0
        report = solver.solve(patch)
        assert report.converged
        assert report.damping_history == [1.0] * steps
        assert all(entry["gmres_converged"] for entry in report.iteration_log)
        errs.append(np.max(np.abs(patch.values - exact)))
    # second order: the error falls like h^2 from 32 to 64 cells per axis
    assert errs[1] / errs[2] >= 0.9 * 4


def test_solver_forms_no_log_v(monkeypatch):
    # the solver reads only g^{-1}; no residual or action needs v
    def no_log_v(*args, **kwargs):
        raise AssertionError("the solver needs no log v")

    monkeypatch.setattr(grassmann, "log_slope", no_log_v)
    slag = model_slag_exp()
    patch = solver.GraphPatch.from_model(slag, [0, 0], (17, 17), 1 / 16)
    patch.values[1:-1, 1:-1] = 0.0
    assert solver.solve(patch).converged
    x = patch.node_coords()
    assert np.max(np.abs(solver.residual_strong(slag.jacobian(x), slag.hessian(x)))) < 1e-12
