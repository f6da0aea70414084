"""Pointwise invariants of n-planes and graph Jacobians in R^{n+m}.

Everything here is a pure function of an m x n Jacobian matrix Du (entry
(alpha, i) = d u^alpha / d x_i) or of orthonormal plane bases.  The singular
values lambda_1 >= ... >= lambda_n of Du are the tangents of the Jordan
angles between the graph plane and the base n-plane; the slope
v = prod sqrt(1 + lambda_i^2) and the 2-dilation lambda_1 * lambda_2 are the
two quantities every other module is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mingraph.util import _unbatch

ORTHONORMALITY_TOL = 1e-12


class InvalidInputError(ValueError):
    """Raised for non-finite or malformed numeric input."""


class DimensionMismatchError(ValueError):
    """Raised when two plane bases live in incompatible spaces."""


def singular_spectrum(jacobian) -> np.ndarray:
    """Singular values of an m x n Jacobian, length n, sorted descending.

    The squared values are the eigenvalues of Du^T Du; when m < n the
    spectrum is padded with zeros.
    """
    J = np.asarray(jacobian, dtype=float)
    if J.ndim != 2 or J.shape[0] < 1 or J.shape[1] < 1:
        raise InvalidInputError(f"expected an m x n matrix, got shape {J.shape}")
    if not np.all(np.isfinite(J)):
        raise InvalidInputError("Jacobian has non-finite entries")
    m, n = J.shape
    s = np.linalg.svd(J, compute_uv=False)
    if s.size < n:
        s = np.concatenate([s, np.zeros(n - s.size)])
    return np.sort(s)[::-1]


def slope(spectrum) -> float:
    """Slope v = prod_i sqrt(1 + lambda_i^2) = sqrt(det(I + Du^T Du)) >= 1.

    Broadcasts over a (..., n) spectrum; (n,) or a bare number gives a float.
    """
    lam = _as_spectrum(spectrum)
    # log(1 + lam^2) piecewise so that lam^2 never overflows
    big = lam > 1e150
    logs = np.where(big, 2.0 * np.log(np.where(big, lam, 1.0)),
                    np.log1p(np.where(big, 0.0, lam) ** 2))
    return _unbatch(np.exp(0.5 * np.sum(logs, axis=-1)))


def metric_inverse(jacobian):
    """Inverse g^{-1} (..., n, n) of the induced metric g = I + Du^T Du; batched.

    ``jacobian`` has shape (..., m, n).  g is ``_gram`` plus I, so it has the
    bits of ``np.eye(n) + np.einsum("...ai,...aj->...ij", J, J)``, and is
    inverted in place by Gauss-Jordan over batch columns.  Every pivot is a
    diagonal entry of a Schur complement of g >= I, so it is >= 1 and no row
    swaps are needed; on small matrices this beats LAPACK's one call per
    matrix several times over.  Callers that need v call ``log_slope``.
    """
    a = _gram(np.asarray(jacobian, dtype=float))
    n = a.shape[0]
    a += np.eye(n).reshape((n, n) + (1,) * (a.ndim - 2))
    for k in range(n):
        # in place: column k, reduced to e_k, holds column k of the inverse
        pivot = 1.0 / a[k, k]
        a[k, k] = 1.0
        a[k] *= pivot
        for i in range(n):
            if i != k:
                f = a[i, k].copy()
                a[i, k] = 0.0
                a[i] -= f * a[k]
    # contiguous, which keeps _sff_norm2's matmuls on it about 10% faster
    return np.ascontiguousarray(np.moveaxis(a, (0, 1), (-2, -1)))


def log_slope(jacobian):
    """log v = (1/2) log det(I + Du^T Du) of a batch (..., m, n) of Jacobians.

    det(I + J^T J) = det(I + J J^T), so the smaller Gram matrix S is used.
    An LDL^T factorisation of I + S runs over batch columns, as in
    ``metric_inverse``, on E = (I + S) - I: each pivot is 1 + e_j with e_j >= 0
    (a Schur complement of I + S is >= I), so no row swaps are needed and
    log v = (1/2) sum log1p(e_j).  I + S is never formed, so a near-flat
    graph keeps full relative accuracy in log v, which log det(I + S) loses
    to the rounding of 1 + S; each multiplier is formed before its product,
    so v stays finite where det g overflows.  A single matrix gives a float.
    """
    J = np.asarray(jacobian, dtype=float)
    if J.shape[-2] < J.shape[-1]:
        J = np.swapaxes(J, -2, -1)
    e = _gram(J)
    log_det = np.zeros(e.shape[2:])
    for k in range(e.shape[0]):
        log_det += np.log1p(e[k, k])
        # the trailing Schur complement, upper triangle only
        for i in range(k + 1, e.shape[0]):
            e[i, i:] -= e[k, i] / (1.0 + e[k, k]) * e[k, i:]
    return _unbatch(0.5 * log_det)


def _gram(J):
    """J^T J of a batch (..., m, n) as an (n, n, ...) array of batch columns.

    Each entry sums J_ai J_aj over alpha in ``np.einsum``'s order, on a
    contiguous (m, n, ...) copy of J; the upper triangle is mirrored, so the
    result is exactly symmetric.
    """
    cols = np.moveaxis(J, (-2, -1), (0, 1)).copy()
    m, n = cols.shape[:2]
    s = np.empty((n, n) + cols.shape[2:])
    for i in range(n):
        for j in range(i, n):
            t = np.multiply(cols[0, i], cols[0, j], out=s[i, j, ...])
            for a in range(1, m):
                t += cols[a, i] * cols[a, j]
            s[j, i] = t
    return s


def two_dilation(spectrum) -> float:
    """2-dilation max_{i != j} lambda_i lambda_j = lambda_1 lambda_2.

    Broadcasts like ``slope``; for n = 1 there is no pair, and the value is 0.
    """
    lam = _as_spectrum(spectrum)
    if lam.shape[-1] < 2:
        return _unbatch(np.zeros(lam.shape[:-1]))
    return _unbatch(lam[..., 0] * lam[..., 1])


def bernstein_condition(spectrum) -> bool:
    """Whether (lambda_1 lambda_2)^2 <= 2 Lip^2 / |Lip^2 - 1| with Lip = lambda_1.

    The right-hand side is treated as +inf when lambda_1 = 1.  ``spectrum``
    is read as one flat sequence.
    """
    lam = _as_spectrum(np.ravel(spectrum))
    lip2 = float(lam[0]) ** 2
    dil2 = two_dilation(lam) ** 2
    denom = abs(lip2 - 1.0)
    return denom == 0.0 or dil2 <= 2.0 * lip2 / denom


def _as_spectrum(spectrum) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(spectrum, dtype=float))
    if lam.shape[-1] == 0 or not np.all(np.isfinite(lam)):
        raise InvalidInputError("spectrum must be a nonempty finite sequence")
    if np.any(lam < -1e-15):
        raise InvalidInputError("spectrum entries must be nonnegative")
    return np.abs(lam)


@dataclass(frozen=True)
class PlaneBasis:
    """An oriented n-plane in R^{ambient} given by n orthonormal row vectors."""

    vectors: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=float)
        if V.ndim != 2:
            raise InvalidInputError("basis must be an n x ambient matrix")
        gram = V @ V.T
        if np.max(np.abs(gram - np.eye(V.shape[0]))) > ORTHONORMALITY_TOL:
            raise InvalidInputError("basis vectors are not orthonormal to 1e-12")
        object.__setattr__(self, "vectors", V)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def ambient(self) -> int:
        return self.vectors.shape[1]

    @classmethod
    def coordinate(cls, dim: int, ambient: int) -> "PlaneBasis":
        """Span of the first ``dim`` coordinate axes."""
        return cls(np.eye(dim, ambient))


def graph_plane_basis(jacobian) -> PlaneBasis:
    """Orthonormal oriented basis of the graph plane of a Jacobian.

    The plane is spanned by f_i = E_i + sum_alpha (Du)_{alpha i} E_{n+alpha};
    the basis is orthonormalized so the associated unit n-vector pairs
    positively with E_1 ^ ... ^ E_n (its inner product with the base plane is
    1/v).
    """
    J = np.asarray(jacobian, dtype=float)
    if not np.all(np.isfinite(J)):
        raise InvalidInputError("Jacobian has non-finite entries")
    m, n = J.shape
    span = np.vstack([np.eye(n), J])  # (n+m) x n, columns span the plane
    Q, R = np.linalg.qr(span)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return PlaneBasis((Q * signs).T)


def _overlap_matrix(P: PlaneBasis, Q: PlaneBasis) -> np.ndarray:
    if P.dim != Q.dim or P.ambient != Q.ambient:
        raise DimensionMismatchError(
            f"planes of shape {P.vectors.shape} and {Q.vectors.shape}"
        )
    return P.vectors @ Q.vectors.T


def jordan_angles(P: PlaneBasis, Q: PlaneBasis) -> np.ndarray:
    """Jordan angles theta_i in [0, pi/2] between two n-planes, descending.

    cos(theta_i) are the singular values of the overlap matrix
    W = (<e_i, f_j>), clamped into [0, 1].
    """
    W = _overlap_matrix(P, Q)
    mu = np.clip(np.linalg.svd(W, compute_uv=False), 0.0, 1.0)
    return np.sort(np.arccos(mu))[::-1]


def plane_inner(P: PlaneBasis, Q: PlaneBasis) -> float:
    """Signed inner product <e_1^...^e_n, f_1^...^f_n> = det W."""
    W = _overlap_matrix(P, Q)
    return float(np.linalg.det(W))


def grassmann_distance(P: PlaneBasis, Q: PlaneBasis) -> float:
    """Distance sqrt(sum_i theta_i^2) between two n-planes."""
    return float(np.sqrt(np.sum(jordan_angles(P, Q) ** 2)))
