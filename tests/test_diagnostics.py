"""Unit tests for curvature diagnostics and the log v identity machinery."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mingraph
from mingraph import diagnostics as dg
from mingraph import util
from mingraph.algebra import SQRT2, lambda_lower_bound
from mingraph.grassmann import metric_inverse
from mingraph.models import (
    DomainError,
    model_affine,
    model_lawson_osserman,
    model_slag_exp,
)


def tangent_projector(jacobian) -> np.ndarray:
    """Orthogonal projector of R^{n+m} onto the graph tangent plane."""
    J = np.asarray(jacobian, dtype=float)
    m, n = J.shape[-2:]
    eye = np.broadcast_to(np.eye(n), J.shape[:-2] + (n, n))
    T = np.concatenate([eye, J], axis=-2)
    g = np.eye(n) + np.einsum("...ai,...aj->...ij", J, J)
    return np.einsum("...pi,...ij,...qj->...pq", T, np.linalg.inv(g), T)


def sff_norm2_projector(jacobian, hessian) -> float:
    """|B|^2 from derivatives of the tangent projector (independent route).

    |B|^2 = (1/2) sum_{kl} g^{kl} tr(d_k P d_l P), with d_k P assembled
    exactly from the Hessian.
    """
    J = np.asarray(jacobian, dtype=float)
    H = np.asarray(hessian, dtype=float)
    m, n = J.shape
    ginv = np.linalg.inv(np.eye(n) + np.einsum("ai,aj->ij", J, J))
    T = np.vstack([np.eye(n), J])
    Tg = T @ ginv
    dgk = np.einsum("aki,aj->kij", H, J) + np.einsum("ai,akj->kij", J, H)
    dT = np.concatenate([np.zeros((n, n, n)), H.transpose(1, 0, 2)], axis=1)
    # d_k P = dT_k g^{-1} T^t + T g^{-1} dT_k^t - T g^{-1} dg_k g^{-1} T^t
    dP = (
        np.einsum("kpi,qi->kpq", dT @ ginv, T)
        + np.einsum("pi,kqi->kpq", Tg, dT)
        - np.einsum("pi,kij,qj->kpq", Tg, dgk, Tg)
    )
    return 0.5 * float(np.einsum("kl,kpq,lpq->", ginv, dP, dP))


def gauss_map_norm2_fd(model, x, step=1e-5):
    """|B|^2 from central differences of the tangent projector (oracle)."""
    n = model.n
    J = model.jacobian(x)
    ginv = np.linalg.inv(np.eye(n) + np.einsum("ai,aj->ij", J, J))
    dP = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = step
        dP.append(
            (
                tangent_projector(model.jacobian(x + e))
                - tangent_projector(model.jacobian(x - e))
            )
            / (2 * step)
        )
    return 0.5 * sum(
        ginv[k, l] * np.sum(dP[k] * dP[l]) for k in range(n) for l in range(n)
    )


def test_sff_components_symmetric():
    model = model_lawson_osserman()
    h = dg.sff_components(model.jacobian(np.ones(4)), model.hessian(np.ones(4)))
    assert np.array_equal(h, np.swapaxes(h, -1, -2))


def test_sff_norm2_matches_projector_route():
    rng = np.random.default_rng(1)
    for model in (model_slag_exp(), model_lawson_osserman()):
        for _ in range(10):
            x = rng.uniform(0.3, 1.5, model.n)
            a = dg.sff_norm2(model.jacobian(x), model.hessian(x))
            b = sff_norm2_projector(model.jacobian(x), model.hessian(x))
            assert b == pytest.approx(a, rel=1e-10)


def test_sff_norm2_matches_gauss_map_oracle():
    rng = np.random.default_rng(2)
    for model in (model_slag_exp(), model_lawson_osserman()):
        for _ in range(5):
            x = rng.uniform(0.4, 1.2, model.n)
            exact = dg.sff_norm2(model.jacobian(x), model.hessian(x))
            fd = gauss_map_norm2_fd(model, x)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)


def test_sff_zero_for_affine():
    model = model_affine(np.array([[1.0, 2.0], [0.5, -0.3]]))
    assert dg.sff_norm2(model.jacobian(np.zeros(2)), model.hessian(np.zeros(2))) == 0.0


def _random_jacobian(rng, k, m, n, lam_max):
    """k random m x n matrices with singular values uniform in [0, lam_max]."""
    u, _, vt = np.linalg.svd(rng.standard_normal((k, m, n)), full_matrices=False)
    s = rng.uniform(0.0, lam_max, (k, min(m, n)))
    return (u * s[..., None, :]) @ vt


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 4), (1, 3), (4, 2)])
def test_frame_free_sff_norm2_matches_adapted_frame(m, n):
    rng = np.random.default_rng(10 * m + n)
    J = _random_jacobian(rng, 200, m, n, 10.0)
    H = rng.standard_normal((200, m, n, n))
    H = H + np.swapaxes(H, -1, -2)
    ref = np.sum(dg.sff_components(J, H) ** 2, axis=(-3, -2, -1))
    np.testing.assert_allclose(dg.sff_norm2(J, H), ref, rtol=1e-12, atol=0.0)
    for j in range(5):
        single = dg.sff_norm2(J[j], H[j])
        assert isinstance(single, float)
        assert single == pytest.approx(ref[j], rel=1e-12)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 4), (1, 3), (4, 2)])
def test_frame_free_sff_norm2_error_bound_on_steep_graphs(m, n):
    # the documented accuracy: about eps * (1 + lam_1^2) relative per point
    rng = np.random.default_rng(100 + 10 * m + n)
    J = _random_jacobian(rng, 200, m, n, 1e3)
    H = rng.standard_normal((200, m, n, n))
    H = H + np.swapaxes(H, -1, -2)
    ref = np.sum(dg.sff_components(J, H) ** 2, axis=(-3, -2, -1))
    lam1 = np.linalg.svd(J, compute_uv=False)[..., 0]
    rel = np.abs(dg.sff_norm2(J, H) - ref) / ref
    assert np.all(rel <= 16.0 * np.finfo(float).eps * (1.0 + lam1**2))


def test_curve_curvature_closed_form():
    # graph of u(x) = x^2 / 2: curvature 1 / (1 + x^2)^{3/2} at slope x
    for x in (0.0, 0.7, 2.0):
        J = np.array([[x]])
        H = np.array([[[1.0]]])
        k2 = 1.0 / (1.0 + x * x) ** 3
        assert dg.sff_norm2(J, H) == pytest.approx(k2, rel=1e-12)


def test_grad_logv_matches_finite_differences():
    model = model_slag_exp()
    x = np.array([0.3, -0.6])
    step = 1e-6
    grad = dg.grad_logv(model.jacobian(x), model.hessian(x))
    for j in range(2):
        e = np.zeros(2)
        e[j] = step

        def logv(p):
            J = model.jacobian(p)
            return 0.5 * np.log(np.linalg.det(np.eye(2) + J.T @ J))

        fd = (logv(x + e) - logv(x - e)) / (2 * step)
        assert grad[j] == pytest.approx(fd, abs=1e-8)


def test_grad_logv_tangential_vs_euclidean():
    # |grad_M f|^2 = g^{ij} d_i f d_j f for functions of the base point
    model = model_slag_exp()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, 2)
        J = model.jacobian(x)
        H = model.hessian(x)
        grad = dg.grad_logv(J, H)
        ginv = np.linalg.inv(np.eye(2) + J.T @ J)
        # at Lambda = sqrt(2) the |B|^2 term of the bound is exactly 0, which
        # leaves (1/n) sum_j (sum_i lam_i h_{i,ij})^2 = (1/n) |grad_M log v|^2
        h, lam = dg._sff(J, H)
        assert model.n * lambda_lower_bound(lam, h, SQRT2) == pytest.approx(
            float(grad @ ginv @ grad), rel=1e-9, abs=1e-12
        )


def test_logv_identity_second_order():
    model = model_slag_exp()
    x = np.array([0.4, -0.3])
    gaps = [abs(dg.logv_identity(model, x, h).gap) for h in (1e-2, 5e-3, 2.5e-3)]
    assert math.log2(gaps[0] / gaps[1]) > 1.9
    assert math.log2(gaps[1] / gaps[2]) > 1.9


def test_logv_identity_zero_on_cone():
    # the cone has constant slope, so both sides vanish
    model = model_lawson_osserman()
    rep = dg.logv_identity(model, np.array([1.0, 0.2, -0.4, 0.8]), 1e-3)
    assert abs(rep.lhs) < 1e-10
    assert abs(rep.rhs) < 1e-12


@pytest.mark.parametrize("model", [model_lawson_osserman(), model_slag_exp()],
                         ids=["cone", "slag-exp"])
def test_logv_identity_batch_matches_single_points(model):
    rng = np.random.default_rng(6)
    x = rng.uniform(0.3, 1.5, (20, model.n))
    batch = dg.logv_identity(model, x, 1e-3)
    for k in range(20):
        one = dg.logv_identity(model, x[k], 1e-3)
        for name in ("lhs", "rhs", "b_norm2", "margin_sqrt2", "margin_lambda"):
            assert isinstance(getattr(one, name), float)
            assert abs(getattr(batch, name)[k] - getattr(one, name)) < 1e-12
        assert np.array_equal(batch.spectrum[k], one.spectrum)


def test_lambda_bound_has_one_home():
    # (1 - Lambda/sqrt(2)) |B|^2 + (1/n) |grad_M log v|^2, the bound behind
    # margin_lambda, is formed only in algebra.lambda_lower_bound
    own = inspect.getsource(lambda_lower_bound)
    inline = re.compile(r"/\s*(SQRT2|np\.sqrt\(2|math\.sqrt\(2)")
    found = []
    for path in sorted(Path(mingraph.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "algebra.py":
            assert own in text
            text = text.replace(own, "")
        found += [f"{path.name}: {m.group(0)}" for m in inline.finditer(text)]
    assert found == []


def test_unbatching_has_one_home():
    # the pointwise kernels broadcast over leading axes: no single-point flag
    # picks a second path, and a 0-d result becomes a float only in
    # util._unbatch
    own = inspect.getsource(util._unbatch)
    flag = re.compile(r"\bsingle\s*=|\bif single\b")
    to_float = re.compile(r"float\([^\n]*\)[ \t]+if\b|def _unbatch\b")
    found = []
    for path in sorted(Path(mingraph.__file__).parent.glob("*.py")):
        text = path.read_text()
        if path.name == "util.py":
            assert own in text
            text = text.replace(own, "")
        found += [f"{path.name}: {m.group(0)}" for pattern in (flag, to_float)
                  for m in pattern.finditer(text)]
    assert found == []


def test_steep_plane_curvature_is_zero():
    # det g overflows on this plane; the exact values are 0
    model = model_affine(1e100 * np.eye(2))
    assert dg.curvature_integral(model, 1.0, 8) == 0.0
    assert dg.laplace_logv_fd(model, np.array([0.3, 0.2]), 1e-3) == 0.0


def test_curvature_integral_cone_scaling():
    model = model_lawson_osserman()
    slope, vals = dg.curvature_growth_slope(model, [1.0, 2.0], nodes_per_axis=16)
    assert np.all(vals > 0.0)
    assert slope == pytest.approx(2.0, abs=0.05)


def test_cone_curvature_integral_pinned():
    # |B|^2 r^2 = 25/18 and v = 9 on the cone, so the integral over the base
    # ball of radius R is 9 (25/18) 2 pi^2 R^2; the polar rule is exact there
    value = dg.curvature_integral(model_lawson_osserman(), 2.0, 30)
    assert value == pytest.approx(12.5 * math.pi**2 * 2.0**2, rel=1e-13)


def test_curvature_integral_runs_without_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("curvature_integral needs no SVD")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert dg.curvature_integral(model_lawson_osserman(), 1.0, 8) > 0.0


def test_curvature_integral_runs_without_lapack_inverse(monkeypatch):
    def no_inv(*args, **kwargs):
        raise AssertionError("the |B|^2 integrand needs no LAPACK inverse")

    monkeypatch.setattr(np.linalg, "inv", no_inv)
    assert dg.curvature_integral(model_lawson_osserman(), 1.0, 8) > 0.0
    rng = np.random.default_rng(6)
    J, H = rng.standard_normal((5, 3, 4)), rng.standard_normal((5, 3, 4, 4))
    assert np.all(dg.sff_norm2(J, H + np.swapaxes(H, -1, -2)) > 0.0)


def _rel_err(a, b):
    """Largest entry error of each matrix relative to its largest entry."""
    return np.max(np.abs(a - b), axis=(-2, -1)) / np.max(np.abs(b), axis=(-2, -1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_spd_inverse_matches_lapack(n):
    # metric_inverse, the SPD inverse behind _sff_norm2, against LAPACK
    rng = np.random.default_rng(20 + n)
    a = rng.standard_normal((3, 4, 6, n))
    g = np.eye(n) + np.einsum("...ai,...aj->...ij", a, a)
    inv = metric_inverse(a)
    assert inv.shape == g.shape
    assert np.all(_rel_err(inv, np.linalg.inv(g)) <= 1e-14)
    # one matrix without batch axes
    assert np.all(_rel_err(metric_inverse(a[1, 2]), np.linalg.inv(g[1, 2])) <= 1e-14)


def test_spd_inverse_of_the_steep_plane_metric():
    J = 1e100 * np.eye(2)
    g = np.eye(2) + np.einsum("ai,aj->ij", J, J)
    np.testing.assert_allclose(metric_inverse(J), np.linalg.inv(g), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_curvature_integral_rejects_a_non_finite_radius(radius):
    with pytest.raises(ValueError, match="finite"):
        dg.curvature_integral(model_lawson_osserman(), radius, 8)


def test_logv_identity_runs_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    model = model_lawson_osserman()
    x = np.random.default_rng(5).uniform(0.3, 1.5, (20, 4))
    dg.logv_identity(model, x, 1e-3)
    assert len(calls) == 1


def test_curvature_integral_input_validation():
    with pytest.raises(ValueError):
        dg.curvature_integral(model_slag_exp(), -1.0)
    for nodes in (0, -3, 2.5):
        with pytest.raises(ValueError, match="node count"):
            dg.curvature_integral(model_slag_exp(), 1.0, nodes)


def test_write_diagnostics_csv(tmp_path):
    model = model_slag_exp()
    path = tmp_path / "diag.csv"
    pts = np.random.default_rng(4).uniform(-0.5, 0.5, (4, 2))
    dg.write_diagnostics_csv(model, pts, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x0,x1,v,dilation,B2,lhs,rhs,gap,margin_lambda"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == 9 and first[2] >= 1.0


def test_logv_identity_rejects_the_cone_vertex():
    model = model_lawson_osserman()
    rep = dg.logv_identity(model, np.array([1.0, 0.0, 0.0, 0.0]), 1e-3)
    assert rep.b_norm2 > 0.0
    with pytest.raises(DomainError):
        dg.logv_identity(model, np.zeros(4), 1e-3)
    with pytest.raises(DomainError):
        dg.logv_identity(model, np.array([[1.0, 0.0, 0.0, 0.0], [0.0] * 4]), 1e-3)


def test_sff_parabola_hand_value():
    # u = x1^2 on R^2, at the origin: flat frame, h_{1,11} = 2, |B|^2 = 4
    J = np.zeros((1, 2))
    H = np.zeros((1, 2, 2))
    H[0, 0, 0] = 2.0
    h = dg.sff_components(J, H)
    assert h.shape == (1, 2, 2)
    assert abs(h).max() == pytest.approx(2.0)
    assert np.sum(h**2) == pytest.approx(4.0)


def test_curvature_integral_affine_zero():
    model = model_affine(np.array([[1.0, 0.5]]))
    assert dg.curvature_integral(model, 2.0, nodes_per_axis=16) == 0.0


def test_hessian_fd_of_jacobian_second_order():
    model = model_lawson_osserman()
    x = np.array([0.8, 0.1, -0.3, 0.5])
    H = model.hessian(x)
    gaps = []
    for step in (1e-3, 5e-4):
        fd = np.zeros_like(H)
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd[:, :, i] = (model.jacobian(x + e) - model.jacobian(x - e)) / (2 * step)
        gaps.append(np.max(np.abs(fd - H)))
    assert math.log2(gaps[0] / gaps[1]) > 1.9
