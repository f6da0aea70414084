"""Curvature diagnostics for analytic graph models.

Computes the second fundamental form of a graph in an adapted orthonormal
frame from exact Jacobians and Hessians, its squared norm without a frame,
the intrinsic Laplacian of log v (exact interior derivatives, one outer
central difference), and curvature integrals over balls.  Results can be
dumped as CSV for offline inspection.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from mingraph.algebra import SQRT2, lambda_lower_bound
from mingraph.grassmann import log_slope, metric_inverse, slope, two_dilation
from mingraph.util import _polar_ball_sum, _unbatch


def _sff(jacobian, hessian):
    """Adapted-frame SFF components (..., m, n, n) and the padded spectrum (..., n).

    With J = U diag(lam) V^T, the tangent frame is f_i = (v_i, lam_i u_i) /
    sqrt(1 + lam_i^2), so f_i makes Jordan angle arctan(lam_i) with the base
    plane, and the normal frame is nu_g = (-lam_g v_g, u_g) / sqrt(1 + lam_g^2),
    with v_g = 0 for g > n.  h[..., g, i, j] is the component of B(f_i, f_j)
    along nu_g.
    """
    J = np.asarray(jacobian, dtype=float)
    H = np.asarray(hessian, dtype=float)
    m, n = J.shape[-2:]
    U, s, Vt = np.linalg.svd(J)
    lam = np.zeros(J.shape[:-2] + (n,))
    lam[..., : s.shape[-1]] = s
    lam_normal = np.zeros(J.shape[:-2] + (m,))
    lam_normal[..., : s.shape[-1]] = s
    # U^T H over the normal index, then V^T (.) V over the two tangent ones
    h = np.swapaxes(U, -1, -2) @ H.reshape(H.shape[:-2] + (n * n,))
    h = Vt[..., None, :, :] @ h.reshape(h.shape[:-1] + (n, n))
    h = h @ np.swapaxes(Vt, -1, -2)[..., None, :, :]
    wt = 1.0 / np.sqrt(1.0 + lam**2)
    wn = 1.0 / np.sqrt(1.0 + lam_normal**2)
    h = h * wn[..., :, None, None] * wt[..., None, :, None] * wt[..., None, None, :]
    # the contraction is symmetric in (i, j) up to rounding; make it exact
    return 0.5 * (h + np.swapaxes(h, -1, -2)), lam


def sff_components(jacobian, hessian) -> np.ndarray:
    """Adapted-frame SFF components, shape (..., m, n, n); broadcasts."""
    return _sff(jacobian, hessian)[0]


def _sff_norm2(J, H):
    """|B|^2 (...) from J (..., m, n) and H (..., m, n, n)."""
    n = J.shape[-1]
    ginv = metric_inverse(J)[..., None, :, :]
    # N = (I + J J^T)^{-1}, the inverse Gram matrix of the normals (-grad u^a, e_a)
    normal_inv = metric_inverse(np.swapaxes(J, -1, -2))
    w = ginv @ H @ ginv  # g^{ik} H^a_{kl} g^{lj}
    k = normal_inv @ H.reshape(H.shape[:-2] + (n * n,))  # N_ab H^b_ij
    w = w.reshape(w.shape[:-3] + (-1,))
    return np.einsum("...i,...i->...", w, k.reshape(k.shape[:-2] + (-1,)))


def sff_norm2(jacobian, hessian) -> np.ndarray:
    """|B|^2 at one point or a batch, without an adapted frame; broadcasts.

    |B|^2 = sum g^{ik} g^{jl} H^a_{ij} N_{ab} H^b_{kl}, with g = I + J^T J the
    induced metric and N = (I + J J^T)^{-1} the inverse Gram matrix of the
    normals (-grad u^a, e_a).  It agrees with the sum of squared adapted-frame
    components (``sff_components``) to about eps * (1 + lam_1^2) relative,
    lam_1 the largest singular value of J: 2e-10 at lam_1 = 1e3, and no
    correct digits left near lam_1 = 1e8.
    """
    J = np.asarray(jacobian, dtype=float)
    H = np.asarray(hessian, dtype=float)
    return _unbatch(_sff_norm2(J, H))


def grad_logv(jacobian, hessian) -> np.ndarray:
    """Euclidean gradient d_j log v = (1/2) tr(g^{-1} d_j g); broadcasts."""
    J = np.asarray(jacobian, dtype=float)
    H = np.asarray(hessian, dtype=float)
    ginv = metric_inverse(J)
    # d_j g_{ik} = sum_a (H[a,j,i] J[a,k] + J[a,i] H[a,j,k])
    dgj = np.einsum("...aji,...ak->...jik", H, J) + np.einsum(
        "...ai,...ajk->...jik", J, H
    )
    return 0.5 * np.einsum("...ik,...jki->...j", ginv, dgj)


def laplace_logv_fd(model, x, step: float) -> np.ndarray:
    """Intrinsic Laplacian Delta_M log v = (1/v) sum_i d_i(v g^{ij} d_j log v).

    The gradient of log v is exact (``grad_logv``); only the outer
    divergence uses a central difference of size ``step``, so the error is
    O(step^2).  ``x`` may be one point or a batch.
    """
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    x = np.asarray(x, dtype=float)
    n = model.n

    def flux(pts):
        J = model.jacobian(pts)
        return np.exp(log_slope(J))[..., None] * np.einsum(
            "...ij,...j->...i", metric_inverse(J), grad_logv(J, model.hessian(pts))
        )

    out = np.zeros(x.shape[:-1])
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        out += (flux(x + e)[..., i] - flux(x - e)[..., i]) / (2.0 * step)
    return out / np.exp(log_slope(model.jacobian(x)))


@dataclass(frozen=True)
class LogVReport:
    """Pointwise comparison of Delta_M log v with its curvature expression.

    The value fields are floats for one point and arrays for a batch;
    ``spectrum`` holds the padded singular values, (n,) or (k, n).
    """

    point: np.ndarray
    step: float
    lhs: float
    rhs: float
    b_norm2: float
    margin_sqrt2: float
    margin_lambda: float
    lam_bound: float
    spectrum: np.ndarray

    @property
    def gap(self) -> float:
        return self.lhs - self.rhs


def logv_identity(model, x, step: float, lam_bound: float = SQRT2) -> LogVReport:
    """Evaluate both sides of the Delta_M log v identity for a minimal model.

    ``x`` is one point (n,) or a batch of points (k, n).  ``lhs`` is the
    finite-difference intrinsic Laplacian, ``rhs`` the algebraic curvature
    expression.  ``margin_sqrt2`` is rhs - |B|^2 and ``margin_lambda`` is
    rhs minus the two-dilation lower bound at ``lam_bound``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("expected a point (n,) or a batch of points (k, n)")
    model.check_domain(x)
    h, lam = _sff(model.jacobian(x), model.hessian(x))
    bound, rhs, b2 = lambda_lower_bound(lam, h, lam_bound, return_terms=True)
    return LogVReport(
        point=x,
        step=step,
        lhs=_unbatch(laplace_logv_fd(model, x, step)),
        rhs=rhs,
        b_norm2=b2,
        margin_sqrt2=rhs - b2,
        margin_lambda=rhs - bound,
        lam_bound=lam_bound,
        spectrum=lam,
    )


def curvature_integral(model, radius: float, nodes_per_axis: int = 40) -> float:
    """Integral of |B|^2 over the graph above the ball B_radius, by a polar rule.

    Integrates |B|^2 v over the base ball |x| <= radius with the polar Gauss
    rule of ``util._polar_ball_sum`` at ``nodes_per_axis``; no node lies at a
    cone vertex at the origin.  |B|^2 comes from ``sff_norm2``'s frame-free
    formula, so each point carries its relative error of about eps * (1 + lam_1^2).
    """

    def integrand(x):
        J = model.jacobian(x)
        return _sff_norm2(J, model.hessian(x)) * np.exp(log_slope(J))

    return _polar_ball_sum(integrand, np.zeros(model.n), radius, nodes_per_axis,
                           "nodes_per_axis")


def curvature_growth_slope(model, radii, nodes_per_axis: int = 40):
    """Log-log least-squares slope of the curvature integral in the radius."""
    radii = np.asarray(radii, dtype=float)
    vals = np.array(
        [curvature_integral(model, r, nodes_per_axis) for r in radii]
    )
    slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
    return float(slope), vals


def write_diagnostics_csv(model, points, path, step: float = 1e-3,
                          lam_bound: float = SQRT2) -> LogVReport:
    """Dump per-point diagnostics of a batch (k, n) as CSV; return its report.

    Columns: the base coordinates, slope v, 2-dilation, |B|^2, the two sides
    of the Delta_M log v identity, their gap, and the two-dilation margin.
    """
    points = np.asarray(points, dtype=float)
    rep = logv_identity(model, points, step, lam_bound)
    rows = zip(points, slope(rep.spectrum), two_dilation(rep.spectrum), rep.b_norm2,
               rep.lhs, rep.rhs, rep.gap, rep.margin_lambda)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i}" for i in range(model.n)]
            + ["v", "dilation", "B2", "lhs", "rhs", "gap", "margin_lambda"]
        )
        for x, *rest in rows:
            writer.writerow([repr(float(c)) for c in list(x) + rest])
    return rep
