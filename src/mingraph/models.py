"""Closed-form graph geometries with exact derivatives.

Each model is a map u: R^n -> R^m with exact value, Jacobian and Hessian,
used as ground truth by the solver, the diagnostics and the quadrature
modules.  All evaluators broadcast: the point argument may have shape (n,)
or (..., n), and the results gain the corresponding leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DomainError(ValueError):
    """Point outside the model's domain (e.g. the vertex of a cone)."""


@dataclass(frozen=True)
class AnalyticModel:
    """A graph u: R^n -> R^m with closed-form derivatives.

    ``value(x) -> (..., m)``, ``jacobian(x) -> (..., m, n)``,
    ``hessian(x) -> (..., m, n, n)`` symmetric in the last two axes.
    """

    label: str
    n: int
    m: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], np.ndarray] = field(
        default=lambda x: np.ones(np.asarray(x).shape[:-1], dtype=bool)
    )

    def check_domain(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ok = np.asarray(self.in_domain(x))
        if not np.all(ok):
            raise DomainError(f"point outside domain of model '{self.label}'")
        return x

    def graph_point(self, x) -> np.ndarray:
        """Ambient point (x, u(x)) in R^{n+m}."""
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, self.value(x)], axis=-1)


def model_affine(A, b=None) -> AnalyticModel:
    """Affine graph u(x) = A x + b: constant Jacobian, zero Hessian."""
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and b.shape == (m,)):
        raise ValueError("affine model needs finite A (m x n) and b (m,)")

    def value(x):
        x = np.asarray(x, dtype=float)
        return x @ A.T + b

    def jacobian(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(A, x.shape[:-1] + (m, n)).copy()

    def hessian(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (m, n, n))

    return AnalyticModel("affine", n, m, value, jacobian, hessian)


def model_slag_exp() -> AnalyticModel:
    """Special Lagrangian graph u = D phi with phi = e^x cos y on R^2.

    u = (e^x cos y, -e^x sin y); the Jacobian is the symmetric matrix
    D^2 phi whose square is e^{2x} I, so both singular values equal e^x and
    the graph is minimal.
    """

    def _parts(x):
        x = np.asarray(x, dtype=float)
        ex = np.exp(x[..., 0])
        return ex * np.cos(x[..., 1]), ex * np.sin(x[..., 1])

    def value(x):
        c, s = _parts(x)
        return np.stack([c, -s], axis=-1)

    def jacobian(x):
        c, s = _parts(x)
        row0 = np.stack([c, -s], axis=-1)
        row1 = np.stack([-s, -c], axis=-1)
        return np.stack([row0, row1], axis=-2)

    def hessian(x):
        c, s = _parts(x)
        h1 = np.stack(
            [np.stack([c, -s], axis=-1), np.stack([-s, -c], axis=-1)], axis=-2
        )
        h2 = np.stack(
            [np.stack([-s, -c], axis=-1), np.stack([-c, s], axis=-1)], axis=-2
        )
        return np.stack([h1, h2], axis=-3)

    return AnalyticModel("slag-exp", 2, 2, value, jacobian, hessian)


# Quadratic forms q^alpha with w = (sqrt(5)/2) (x^T Q^alpha x) / |x|, written
# in real coordinates x = (a, b, c, d), z1 = a + ib, z2 = c + id, so that the
# Hopf map is (a^2+b^2-c^2-d^2, 2(ac+bd), 2(bc-ad)).
_LO_Q = np.zeros((3, 4, 4))
_LO_Q[0] = np.diag([1.0, 1.0, -1.0, -1.0])
_LO_Q[1][0, 2] = _LO_Q[1][2, 0] = 1.0
_LO_Q[1][1, 3] = _LO_Q[1][3, 1] = 1.0
_LO_Q[2][1, 2] = _LO_Q[2][2, 1] = 1.0
_LO_Q[2][0, 3] = _LO_Q[2][3, 0] = -1.0
_LO_SCALE = np.sqrt(5.0) / 2.0
# each row of each Q^a holds one +-1, so (Q^a x)_i = _LO_SIGN[a, i] x[_LO_COL[a, i]]
_LO_COL = np.abs(_LO_Q).argmax(axis=-1)
_LO_SIGN = _LO_Q.sum(axis=-1)


def _norm2(x):
    """|x|^2 for points x (..., 4), summed column by column.

    That is the order of np.sum(x**2, axis=-1), so the bits are the same.
    """
    a, b, c, d = np.moveaxis(x, -1, 0)
    return a * a + b * b + c * c + d * d


def _hopf(x):
    """x^T Q^a x, shape (..., 3), for points x (..., 4), without einsum.

    Each form is summed in the order np.einsum("...i,aij,...j->...a") sums
    it, and onto +0 as einsum does, so the bits are einsum's, signed zeros
    included.
    """
    a, b, c, d = np.moveaxis(x, -1, 0)
    q = np.zeros(x.shape[:-1] + (3,))
    q[..., 0] += a * a + b * b - c * c - d * d
    q[..., 1] += a * c + b * d + c * a + d * b
    q[..., 2] += b * c - a * d + c * b - d * a
    return q


def model_lawson_osserman() -> AnalyticModel:
    """The Lawson-Osserman Hopf cone graph w: R^4 \\ {0} -> R^3.

    w(x) = (sqrt(5)/2) |x| eta(x/|x|) with eta the Hopf map; w is
    1-homogeneous and Lipschitz but not differentiable at 0.  At every
    x != 0 its largest singular value is sqrt(5), its 2-dilation is 5 and
    its slope is 9.
    """

    def _radius(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(_norm2(x))
        if np.any(r == 0.0):
            raise DomainError("Lawson-Osserman model is undefined at x = 0")
        return x, r

    def value(x):
        x, r = _radius(x)
        return _LO_SCALE * _hopf(x) / r[..., None]

    def jacobian(x):
        x, r = _radius(x)
        # 2 Q^a x; adding 0.0 makes a zero entry +0, as einsum's sum onto +0 does
        dq = x[..., _LO_COL] * _LO_SIGN
        dq += 0.0
        dq *= 2.0
        # r ** 3 stays an array power: on a numpy scalar it rounds differently
        return _LO_SCALE * (
            dq / r[..., None, None]
            - _hopf(x)[..., None] * x[..., None, :] / r[..., None, None] ** 3
        )

    def hessian(x):
        # with e = x/|x| and c^a = e^T Q^a e:
        # H^a = (S/|x|) [2 Q^a - 2 (Q^a e e^T + e e^T Q^a) - c^a (I - 3 e e^T)]
        x, r = _radius(x)
        e = x / r[..., None]
        qe = np.einsum("aij,...j->...ai", _LO_Q, e)
        c = np.einsum("...ai,...i->...a", qe, e)
        ee = e[..., :, None] * e[..., None, :]
        qee = qe[..., :, :, None] * e[..., None, None, :]
        # qee + qee^T is exactly symmetric: floating-point addition commutes
        h = 2.0 * (_LO_Q - (qee + np.swapaxes(qee, -1, -2)))
        h -= c[..., None, None] * (np.eye(4) - 3.0 * ee)[..., None, :, :]
        h *= (_LO_SCALE / r)[..., None, None, None]
        return h

    def in_domain(x):
        return _norm2(np.asarray(x, dtype=float)) > 0.0

    return AnalyticModel("lawson-osserman", 4, 3, value, jacobian, hessian, in_domain)


_REGISTRY: dict[str, Callable[..., AnalyticModel]] = {
    "affine": lambda A=None, b=None: model_affine(
        np.zeros((1, 2)) if A is None else A, b
    ),
    "slag-exp": model_slag_exp,
    "lawson-osserman": model_lawson_osserman,
}


def model_labels() -> list[str]:
    return sorted(_REGISTRY)


def get_model(label: str, **params) -> AnalyticModel:
    """Look a model up by its CLI label."""
    try:
        factory = _REGISTRY[label]
    except KeyError:
        raise KeyError(
            f"unknown model '{label}'; available: {', '.join(model_labels())}"
        ) from None
    return factory(**params)
