"""Curvature diagnostics for analytic graph models.

Computes the second fundamental form of a graph in an adapted orthonormal
frame from exact Jacobians and Hessians, its squared norm without a frame,
the intrinsic Laplacians of log v and 1/v (exact interior derivatives, one
outer central difference), and curvature integrals over balls.  Results can
be dumped as CSV for offline inspection.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from mingraph.algebra import SQRT2, delta_logv_rhs
from mingraph.grassmann import induced_metric, slope, two_dilation
from mingraph.util import _ball_midpoint_sum

_CHUNK = 50000


@dataclass(frozen=True)
class SffTensor:
    """Second fundamental form components in an adapted orthonormal frame.

    ``h[gamma, i, j]`` is the component of B(f_i, f_j) along the normal
    nu_gamma, where f_i diagonalize the induced metric (the i-th tangent
    direction makes Jordan angle arctan(lam_i) with the base plane).
    ``tangent`` (n, n+m) and ``normal`` (m, n+m) are the frame row vectors.
    """

    h: np.ndarray
    spectrum: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray

    @property
    def norm2(self) -> float:
        return float(np.sum(self.h**2))


def _adapted_svd(J):
    """Batched SVD data: U (..., m, m), lam (..., n) padded, V (..., n, n)."""
    J = np.asarray(J, dtype=float)
    m, n = J.shape[-2:]
    U, s, Vt = np.linalg.svd(J)
    lam = np.zeros(J.shape[:-2] + (n,))
    lam[..., : s.shape[-1]] = s
    lam_normal = np.zeros(J.shape[:-2] + (m,))
    lam_normal[..., : s.shape[-1]] = s
    return U, lam, lam_normal, np.swapaxes(Vt, -1, -2)


def _unbatch(out):
    """A float for an unbatched (0-d) result, else the array itself."""
    return float(out) if np.ndim(out) == 0 else out


def _contract(U, lam, lam_normal, V, H):
    """Adapted-frame SFF components (..., m, n, n) from the SVD of J and H."""
    H = np.asarray(H, dtype=float)
    n = H.shape[-1]
    # U^T H over the normal index, then V^T (.) V over the two tangent ones
    h = np.swapaxes(U, -1, -2) @ H.reshape(H.shape[:-2] + (n * n,))
    h = np.swapaxes(V, -1, -2)[..., None, :, :] @ h.reshape(h.shape[:-1] + (n, n))
    h = h @ V[..., None, :, :]
    wt = 1.0 / np.sqrt(1.0 + lam**2)
    wn = 1.0 / np.sqrt(1.0 + lam_normal**2)
    h = h * wn[..., :, None, None] * wt[..., None, :, None] * wt[..., None, None, :]
    # the contraction is symmetric in (i, j) up to rounding; make it exact
    return 0.5 * (h + np.swapaxes(h, -1, -2))


def _sff(jacobian, hessian):
    """Adapted-frame SFF components (..., m, n, n) and the padded spectrum (..., n)."""
    U, lam, lam_normal, V = _adapted_svd(jacobian)
    return _contract(U, lam, lam_normal, V, hessian), lam


def sff_components(jacobian, hessian) -> np.ndarray:
    """Adapted-frame SFF components, shape (..., m, n, n); broadcasts."""
    return _sff(jacobian, hessian)[0]


def sff_at(model, x) -> SffTensor:
    """Full SFF record of a model at a point, including the adapted frames."""
    x = model.check_domain(np.asarray(x, dtype=float))
    return sff_tensor(model.jacobian(x), model.hessian(x))


def sff_tensor(jacobian, hessian) -> SffTensor:
    """Full SFF record from exact derivatives at a single point."""
    J = np.asarray(jacobian, dtype=float)
    if J.ndim != 2:
        raise ValueError("expected a single Jacobian")
    m, n = J.shape
    U, lam, lam_normal, V = _adapted_svd(J)
    wt = 1.0 / np.sqrt(1.0 + lam**2)
    wn = 1.0 / np.sqrt(1.0 + lam_normal**2)
    # f_i = (v_i, lam_i u_i) / sqrt(1 + lam_i^2); nu_g = (-lam_g v_g, u_g) /
    # sqrt(1 + lam_g^2), where v_g is zero when g exceeds n.
    Vpad = np.zeros((n, m))
    Vpad[:, : min(m, n)] = V[:, : min(m, n)]
    tangent = np.concatenate([V * wt, (J @ V) * wt], axis=0).T
    normal = np.concatenate([-Vpad * (lam_normal * wn), U * wn], axis=0).T
    h = _contract(U, lam, lam_normal, V, hessian)
    return SffTensor(h=h, spectrum=lam.copy(), tangent=tangent, normal=normal)


def _sff_norm2(J, H, g):
    """|B|^2 (...) from J (..., m, n), H (..., m, n, n) and g = I + J^T J."""
    m, n = J.shape[-2:]
    ginv = np.linalg.inv(g)[..., None, :, :]
    # Gram matrix I + J J^T of the graph normals (-grad u^a, e_a)
    gram = J @ np.swapaxes(J, -1, -2) + np.eye(m)
    w = ginv @ H @ ginv  # g^{ik} H^a_{kl} g^{lj}
    k = np.linalg.inv(gram) @ H.reshape(H.shape[:-2] + (n * n,))  # N_ab H^b_ij
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
    return _unbatch(_sff_norm2(J, H, induced_metric(J)[0]))


def tangent_projector(jacobian) -> np.ndarray:
    """Orthogonal projector of R^{n+m} onto the graph tangent plane."""
    J = np.asarray(jacobian, dtype=float)
    m, n = J.shape[-2:]
    eye = np.broadcast_to(np.eye(n), J.shape[:-2] + (n, n))
    T = np.concatenate([eye, J], axis=-2)
    g, _ = induced_metric(J)
    return np.einsum("...pi,...ij,...qj->...pq", T, np.linalg.inv(g), T)


def sff_norm2_projector(jacobian, hessian) -> float:
    """|B|^2 from derivatives of the tangent projector (independent route).

    |B|^2 = (1/2) sum_{kl} g^{kl} tr(d_k P d_l P), with d_k P assembled
    exactly from the Hessian.
    """
    J = np.asarray(jacobian, dtype=float)
    H = np.asarray(hessian, dtype=float)
    m, n = J.shape
    ginv = np.linalg.inv(induced_metric(J)[0])
    T = np.vstack([np.eye(n), J])
    Tg = T @ ginv
    dg = np.einsum("aki,aj->kij", H, J) + np.einsum("ai,akj->kij", J, H)
    dT = np.concatenate([np.zeros((n, n, n)), H.transpose(1, 0, 2)], axis=1)
    # d_k P = dT_k g^{-1} T^t + T g^{-1} dT_k^t - T g^{-1} dg_k g^{-1} T^t
    dP = (
        np.einsum("kpi,qi->kpq", dT @ ginv, T)
        + np.einsum("pi,kqi->kpq", Tg, dT)
        - np.einsum("pi,kij,qj->kpq", Tg, dg, Tg)
    )
    return 0.5 * float(np.einsum("kl,kpq,lpq->", ginv, dP, dP))


def grad_logv(jacobian, hessian) -> np.ndarray:
    """Euclidean gradient d_j log v = (1/2) tr(g^{-1} d_j g); broadcasts."""
    J = np.asarray(jacobian, dtype=float)
    H = np.asarray(hessian, dtype=float)
    ginv = np.linalg.inv(induced_metric(J)[0])
    # d_j g_{ik} = sum_a (H[a,j,i] J[a,k] + J[a,i] H[a,j,k])
    dgj = np.einsum("...aji,...ak->...jik", H, J) + np.einsum(
        "...ai,...ajk->...jik", J, H
    )
    return 0.5 * np.einsum("...ik,...jki->...j", ginv, dgj)


def _pad_normals(h, n):
    """Zero-pad the normal index so h[..., gamma, :, :] exists for gamma < n."""
    m = h.shape[-3]
    if m >= n:
        return h
    pad = np.zeros(h.shape[:-3] + (n - m,) + h.shape[-2:])
    return np.concatenate([h, pad], axis=-3)


def _tangential_grad2(h, lam):
    n = lam.shape[-1]
    hiij = np.einsum("...iij->...ij", _pad_normals(h, n)[..., :n, :, :])
    grad = np.einsum("...i,...ij->...j", lam, hiij)
    return np.einsum("...j,...j->...", grad, grad)


def grad_logv_tangential_norm2(jacobian, hessian) -> np.ndarray:
    """|grad_M log v|^2 = sum_j (sum_i lam_i h_{i,ij})^2 in the adapted frame."""
    return _unbatch(_tangential_grad2(*_sff(jacobian, hessian)))


def intrinsic_laplacian_fd(model, grad_fn, x, step: float) -> np.ndarray:
    """Intrinsic Laplacian (1/v) sum_i d_i(v g^{ij} d_j f) on the graph.

    ``grad_fn(points) -> (..., n)`` must give the exact Euclidean gradient
    of f; only the outer divergence uses a central difference of size
    ``step``, so the error is O(step^2).  ``x`` may be one point or a batch.
    """
    x = np.asarray(x, dtype=float)
    n = model.n

    def flux(pts):
        g, log_v = induced_metric(model.jacobian(pts))
        return np.exp(log_v)[..., None] * np.einsum(
            "...ij,...j->...i", np.linalg.inv(g), grad_fn(pts)
        )

    out = np.zeros(x.shape[:-1])
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        out += (flux(x + e)[..., i] - flux(x - e)[..., i]) / (2.0 * step)
    return out / np.exp(induced_metric(model.jacobian(x))[1])


def laplace_logv_fd(model, x, step: float) -> np.ndarray:
    """Central-difference Delta_M log v at x (exact inner derivatives)."""
    return intrinsic_laplacian_fd(
        model, lambda p: grad_logv(model.jacobian(p), model.hessian(p)), x, step
    )


def laplace_inv_slope_fd(model, x, step: float) -> np.ndarray:
    """Central-difference Delta_M (1/v) at x."""

    def grad(p):
        J = model.jacobian(p)
        v = np.exp(induced_metric(J)[1])
        return -grad_logv(J, model.hessian(p)) / v[..., None]

    return intrinsic_laplacian_fd(model, grad, x, step)


def deltav_inverse(model, x) -> float:
    """Delta_M (1/v) of a minimal model at a point, from its SFF."""
    x = model.check_domain(np.asarray(x, dtype=float))
    return float(laplace_inv_slope_formula(model.jacobian(x), model.hessian(x)))


def laplace_inv_slope_formula(jacobian, hessian) -> np.ndarray:
    """Delta_M (1/v) for a minimal graph from its adapted-frame SFF.

    Delta_M v^{-1} = -v^{-1} (|B|^2
        + sum_{l, i != j} lam_i lam_j h_{i,jl} h_{j,il}
        - sum_{l, i != j} lam_i lam_j h_{i,il} h_{j,jl}).
    """
    h, lam = _sff(jacobian, hessian)
    n = lam.shape[-1]
    v = np.exp(0.5 * np.sum(np.log1p(lam**2), axis=-1))
    hn = _pad_normals(h, n)[..., :n, :, :]
    ll = lam[..., :, None] * lam[..., None, :]
    off = 1.0 - np.eye(n)
    b2 = np.einsum("...gij,...gij->...", h, h)
    cross = np.einsum("...ijl,...jil->...ij", hn, hn)
    hiil = np.einsum("...iil->...il", hn)
    square = np.einsum("...il,...jl->...ij", hiil * lam[..., :, None], hiil * lam[..., :, None])
    out = -(
        b2
        + np.einsum("...ij,...ij,ij->...", ll, cross, off)
        - np.einsum("...ij,ij->...", square, off)
    ) / v
    return _unbatch(out)


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
    rhs = delta_logv_rhs(lam, h)
    b2 = np.sum(h**2, axis=(-3, -2, -1))
    bound = (1.0 - lam_bound / SQRT2) * b2 + _tangential_grad2(h, lam) / model.n
    return LogVReport(
        point=x,
        step=step,
        lhs=_unbatch(laplace_logv_fd(model, x, step)),
        rhs=_unbatch(rhs),
        b_norm2=_unbatch(b2),
        margin_sqrt2=_unbatch(rhs - b2),
        margin_lambda=_unbatch(rhs - bound),
        lam_bound=lam_bound,
        spectrum=lam,
    )


def curvature_integral(
    model, radius: float, nodes_per_axis: int = 40, vertex_cutoff_frac: float = 1e-3
) -> float:
    """Midpoint-rule integral of |B|^2 over the graph above the ball B_radius.

    Integrates |B|^2 v over {x : cutoff <= |x| <= radius} in the base, the
    cutoff excising a fixed fraction of the radius around possible cone
    vertices.  |B|^2 comes from ``sff_norm2``'s frame-free formula, so each
    point carries its relative error of about eps * (1 + lam_1^2).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")

    def integrand(x):
        J = model.jacobian(x)
        g, log_v = induced_metric(J)
        return float(np.sum(_sff_norm2(J, model.hessian(x), g) * np.exp(log_v)))

    return _ball_midpoint_sum(integrand, np.zeros(model.n), radius, nodes_per_axis,
                              _CHUNK, vertex_cutoff_frac * radius)


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
    columns = zip(points, rep.spectrum, rep.b_norm2, rep.lhs, rep.rhs, rep.gap,
                  rep.margin_lambda)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{i}" for i in range(model.n)]
            + ["v", "dilation", "B2", "lhs", "rhs", "gap", "margin_lambda"]
        )
        for x, lam, *rest in columns:
            row = list(x) + [slope(lam), two_dilation(lam)] + rest
            writer.writerow([repr(float(c)) for c in row])
    return rep
