"""Finite-difference solver for the minimal surface system on grid patches.

Uniform grids over a box in R^n (n = 2, 3 or 4) carrying m-vector node values
with Dirichlet boundary data on the outermost node layer.  The strong form
sum_{ij} g^{ij} d^2 u^alpha / dx_i dx_j = 0 is discretized with second-order
central differences, written once in ``_interior_derivatives``, and solved by
Newton's method under pseudo-transient continuation.  No matrix is formed:
GMRES solves each shifted linear step with the operator applied to vectors,
right-preconditioned by the residual's own Laplacian tr H, which a sine
transform diagonalizes, scaled by the metric: the principal part is about
a tr H with a = tr g^{-1} / n, so the residual is divided by a and the shift
by its mean before the transform solve.  The slope is bounded, so the
operator is spectrally equivalent to that Laplacian uniformly in the spacing.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from mingraph.grassmann import metric_inverse

DEFAULT_TOL = 1e-10
_GMRES_RTOL = 1e-12  # smallest relative residual a linear solve aims for
_ETA_MAX = 0.1  # largest relative residual a Newton step's linear solve may keep
_GMRES_RESTART = 60  # Krylov vectors kept before GMRES restarts
_GMRES_CYCLES = 5  # GMRES cycles before a linear solve counts as missed
# the first pseudo-time shift is |F_0|_inf / _SHIFT_DIVISOR: of 3, 10, 30 and
# 100, only 10 solved all ten steep 17^3 patches (boundary data x30, seeds 0-9)
_SHIFT_DIVISOR = 10.0


@dataclass
class GraphPatch:
    """Grid data for a graph u: box in R^n -> R^m.

    ``values`` has shape dims + (m,); the boundary is the outermost node
    layer and holds the Dirichlet data.
    """

    n: int
    m: int
    dims: tuple
    spacing: float
    origin: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.origin = np.asarray(self.origin, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.n not in (2, 3, 4):
            raise ValueError("only n in {2, 3, 4} is supported")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if len(self.dims) != self.n or any(d < 3 for d in self.dims):
            raise ValueError("need at least 3 nodes per axis")
        if not 0 < self.spacing < np.inf:
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if self.origin.shape != (self.n,) or not np.all(np.isfinite(self.origin)):
            raise ValueError(f"origin must hold {self.n} finite entries")
        if self.values.shape != self.dims + (self.m,):
            raise ValueError(
                f"values shape {self.values.shape} != {self.dims + (self.m,)}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("patch values must be finite")

    @property
    def boundary_mask(self) -> np.ndarray:
        return np.pad(np.zeros([d - 2 for d in self.dims], dtype=bool), 1,
                      constant_values=True)

    def node_coords(self) -> np.ndarray:
        """Physical coordinates of all nodes, shape dims + (n,)."""
        axes = [self.origin[k] + self.spacing * np.arange(self.dims[k])
                for k in range(self.n)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    @classmethod
    def from_model(cls, model, origin, dims, spacing) -> "GraphPatch":
        """Sample an analytic model onto a grid (all nodes, not just boundary)."""
        grid = cls(model.n, model.m, tuple(dims), spacing, origin,
                   np.zeros(tuple(dims) + (model.m,)))
        # a new patch, so that the model's values pass the same checks
        values = np.array(model.value(grid.node_coords()), dtype=float, order="C")
        return replace(grid, values=values)


def save_patch(patch: GraphPatch, manifest_path) -> None:
    """Write a patch in MGP1 form: JSON manifest + raw little-endian float64."""
    manifest_path = Path(manifest_path)
    data_path = manifest_path.with_suffix(".bin")
    manifest = {
        "format": "MGP1",
        "n": patch.n,
        "m": patch.m,
        "dims": list(patch.dims),
        "spacing": patch.spacing,
        "origin": [float(x) for x in patch.origin],
        "data": data_path.name,
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    data_path.write_bytes(np.ascontiguousarray(patch.values, dtype="<f8").tobytes())


def load_patch(manifest_path) -> GraphPatch:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text())
    if not isinstance(manifest, dict) or manifest.get("format") != "MGP1":
        raise ValueError("not an MGP1 manifest")
    for key in ("n", "m", "dims", "spacing", "origin", "data"):
        if key not in manifest:
            raise ValueError(f"MGP1 manifest lacks the key '{key}'")
    dims = tuple(manifest["dims"])
    m = manifest["m"]
    raw = (manifest_path.parent / manifest["data"]).read_bytes()
    values = np.frombuffer(raw, dtype="<f8").reshape(dims + (m,)).copy()
    return GraphPatch(
        manifest["n"], m, dims, manifest["spacing"], manifest["origin"], values
    )


def residual_strong(jacobian, hessian) -> np.ndarray:
    """Strong residual sum_{ij} g^{ij} H[alpha, i, j]; broadcasts over batches."""
    ginv = metric_inverse(jacobian)
    return np.einsum("...ij,...aij->...a", ginv, np.asarray(hessian, dtype=float))


def _shift(arr, offset):
    """The window arr[1 + o_k : -1 + o_k] on each leading grid axis k.

    On an array over all nodes this picks the neighbour at ``offset`` of
    every interior node (1:-1); on an array over the interior nodes, that
    of every deep-interior node (2:-2).
    """
    return arr[tuple(slice(1 + o, (o - 1) or None) for o in offset)]


def _interior_derivatives(values, spacing: float):
    """Du (..., m, n) and Hessians (..., m, n, n) at interior nodes (1:-1).

    The solver's one home of difference quotients: the Newton operator
    applies it to a direction, and ``_laplacian_symbol`` reads the
    preconditioner's eigenvalues off it.
    """
    U, h, n = values, spacing, values.ndim - 1
    unit = np.eye(n, dtype=int)
    center = _shift(U, [0] * n)
    Du = np.empty(center.shape + (n,))
    H = np.empty(center.shape + (n, n))
    for k in range(n):
        ek = unit[k]
        up, dn = _shift(U, ek), _shift(U, -ek)
        Du[..., :, k] = (up - dn) / (2 * h)
        H[..., :, k, k] = (up - 2 * center + dn) / h**2
        for l in range(k + 1, n):
            el = unit[l]
            pp, pm = _shift(U, ek + el), _shift(U, ek - el)
            mp, mm = _shift(U, el - ek), _shift(U, -ek - el)
            mixed = (pp - pm - mp + mm) / (4 * h**2)
            H[..., :, k, l] = mixed
            H[..., :, l, k] = mixed
    return Du, H


def strong_residual_field(patch: GraphPatch) -> np.ndarray:
    """Discrete strong residual at all interior nodes, shape inner-dims + (m,)."""
    Du, H = _interior_derivatives(patch.values, patch.spacing)
    return residual_strong(Du, H)


@dataclass
class SolveReport:
    """Outcome of ``solve``.

    ``iteration_log`` holds one dict per Newton iteration: residual, step
    length (always 1), pseudo-time ``shift``, the relative GMRES tolerance
    ``eta`` of its linear solve, seconds to freeze the coefficients
    (``assemble_s``) and to run GMRES (``solve_s``), GMRES iterations, and
    ``gmres_converged``, false when the linear solve missed its tolerance.
    ``converged`` is judged on the strong residual alone.  The log is left
    out of ``to_dict`` because its timings vary between runs.
    """

    iterations: int
    residual: float
    converged: bool
    damping_history: list = field(default_factory=list)
    iteration_log: list = field(default_factory=list, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {key: getattr(self, key)
                for key in ("iterations", "residual", "converged", "damping_history")}


def _sine_transform(x, ndim: int):
    """Unnormalized DST-I of x over its first ``ndim`` axes.

    Along an axis of N values it is -1/2 times the imaginary part of the
    real FFT of the odd extension (0, x, 0, -x reversed) at entries 1..N.
    """
    for axis in range(ndim):
        x = np.moveaxis(x, axis, -1)
        size = x.shape[-1]
        odd = np.zeros(x.shape[:-1] + (2 * size + 2,))
        odd[..., 1:size + 1] = x
        odd[..., size + 2:] = -x[..., ::-1]
        x = np.moveaxis(np.fft.rfft(odd)[..., 1:size + 1].imag / -2, -1, axis)
    return x


@functools.lru_cache(maxsize=4)
def _laplacian_symbol(dims: tuple, spacing: float) -> np.ndarray:
    """Eigenvalues of L = tr H (zero boundary values) per sine mode, read-only.

    Read off ``_interior_derivatives`` as DST(L delta) / DST(delta) for a
    unit delta at the first interior node.
    """
    n = len(dims)
    delta = np.zeros(dims + (1,))
    delta[(1,) * n] = 1.0
    _, H = _interior_derivatives(delta, spacing)
    symbol = (_sine_transform(np.trace(H, axis1=-2, axis2=-1), n)
              / _sine_transform(_shift(delta, [0] * n), n))[..., 0]
    symbol.flags.writeable = False
    return symbol


def _poisson_solve(patch: GraphPatch, f, shift: float = 0.0) -> np.ndarray:
    """(L - shift)^{-1} f for each component of f (inner dims + (m,)), L = tr H."""
    symbol = _laplacian_symbol(patch.dims, patch.spacing) - shift
    # the transforms' round trip scales by (N + 1)/2 per axis of N = size - 2 nodes
    symbol *= np.prod([(size - 1) / 2 for size in patch.dims])
    return _sine_transform(_sine_transform(f, patch.n) / symbol[..., None], patch.n)


def _gradient_coefficient(ginv, Du, H):
    """coeff[..., alpha, beta, r] = -2 (g^{-1} H^alpha g^{-1} Du^beta)_r.

    Formed over contiguous batch columns laid out axes-first, as ``_gram``
    forms g: w^beta = g^{-1} Du^beta, P^alpha = g^{-1} H^alpha, then
    coeff = -2 P w^T, each entry a product and a running sum over the small
    index axes.  On n, m <= 4 that beats the three-operand einsum, its
    ``optimize=True`` path and batched matmuls.
    """
    G = np.moveaxis(ginv, (-2, -1), (0, 1)).copy()
    D = np.moveaxis(Du, (-2, -1), (0, 1)).copy()
    Hc = np.moveaxis(H, (-3, -2, -1), (0, 1, 2)).copy()
    m, n = D.shape[:2]

    def dot(out, xs, ys):  # out = sum_k xs[k] ys[k], batch column by column
        np.multiply(xs[0], ys[0], out=out)
        for k in range(1, n):
            out += xs[k] * ys[k]

    W, P = np.empty_like(D), np.empty_like(Hc)
    for a in range(m):
        for r in range(n):
            dot(W[a, r], G[r], D[a])
            for j in range(n):
                dot(P[a, r, j], G[r], Hc[a, :, j])
    del G, D, Hc  # before coeff is allocated, which lowers a solve's peak memory
    coeff = np.empty((m, m) + W.shape[1:])
    for a in range(m):
        for b in range(m):
            for r in range(n):
                dot(coeff[a, b, r], P[a, r], W[b])
    coeff *= -2.0
    # a view: the action's einsum reads it as fast as a contiguous copy
    return np.moveaxis(coeff, (0, 1, 2), (-3, -2, -1))


def _jacobian_action(patch: GraphPatch, shift: float):
    """The residual's shifted derivative v -> J v - shift v and its preconditioner.

    The residual is g^{kl}(Du) H_kl.  A direction v (flat interior values,
    zero on the boundary) enters through Dv and Hv from
    ``_interior_derivatives``.  The principal part g^{kl} Hv^alpha_kl acts
    on each component; the gradient terms -2 (g^{-1} H^alpha g^{-1}
    Du^beta)_r Dv^beta_r (``_gradient_coefficient``) differentiate g^{kl}
    through Du.  Both coefficients are frozen here.

    The principal part is about a L with a = tr g^{-1} / n at each node and
    L = tr H, and a L - shift = a (L - shift / a).  So the preconditioner is
    M r = (L - shift / mean(a))^{-1} (r / a) by ``_poisson_solve``, which
    inverts J - shift exactly where g is a constant multiple of I and H = 0
    (Concus & Golub 1973 scale a fast Poisson solver by the coefficient).
    """
    Du, H = _interior_derivatives(patch.values, patch.spacing)
    ginv = metric_inverse(Du)
    coeff = _gradient_coefficient(ginv, Du, H)
    scale = np.trace(ginv, axis1=-2, axis2=-1)[..., None] / patch.n
    scaled_shift = shift / float(np.mean(scale))
    direction = np.zeros_like(patch.values)
    inner = _shift(direction, [0] * patch.n)  # a view: written below

    def action(v):
        inner[...] = v.reshape(inner.shape)
        Dv, Hv = _interior_derivatives(direction, patch.spacing)
        out = np.einsum("...kl,...akl->...a", ginv, Hv)
        out += np.einsum("...abr,...br->...a", coeff, Dv)
        return out.ravel() - shift * v

    def precondition(r):
        return _poisson_solve(patch, r.reshape(inner.shape) / scale,
                              scaled_shift).ravel()

    return action, precondition


def _krylov_solve(action, precondition, rhs, rtol: float):
    """Solve action(x) = rhs (inner dims + (m,)) by preconditioned GMRES.

    Restarted GMRES (Saad & Schultz 1986) from x = 0, right-preconditioned by
    M = ``precondition``; both maps take and return flat vectors, as
    ``_jacobian_action`` builds them.  Arnoldi on action(M v) by modified
    Gram-Schmidt, and Givens rotations as LAPACK's dlartg forms them between
    under- and overflow.  A cycle starts from the true residual, whose norm
    the rotated Hessenberg residual then estimates; it stops there at
    ``rtol`` |rhs|, and the true residual is checked after each cycle.
    Returns x and its stats: seconds, GMRES iterations, and whether the true
    residual met that tolerance within ``_GMRES_CYCLES`` cycles of
    ``_GMRES_RESTART`` iterations.
    """
    shape, b = rhs.shape, rhs.ravel()
    start = time.perf_counter()
    eps, restart = np.finfo(float).eps, min(_GMRES_RESTART, b.size)
    v, h = np.empty((restart + 1, b.size)), np.zeros((restart, restart + 1))
    givens = np.zeros((restart, 2))
    x, r, iterations = np.zeros(b.size), b, 0
    rnorm = np.linalg.norm(b)
    atol = rtol * rnorm
    for _ in range(_GMRES_CYCLES if rnorm else 0):  # a zero rhs is solved by x = 0
        s = np.zeros(restart + 1)  # rotated rhs of the Hessenberg problem
        s[0], v[0] = rnorm, r * (1 / rnorm)
        for col in range(restart):  # h[col] is column col of the Hessenberg
            w = action(precondition(v[col]))
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                h[col, k] = np.dot(v[k], w)
                w -= h[col, k] * v[k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0  # the Krylov space holds the solution
            h[col, col + 1] = 0.0 if breakdown else h1
            v[col + 1] = w if breakdown else w * (1 / h1)
            for k in range(col):
                c, sn = givens[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + sn * n1, c * n1 - sn * n0
            f, g = h[col, col], h[col, col + 1]  # f = g = 0 on a singular action
            d = np.copysign(np.sqrt(f * f + g * g), f) or 1.0
            givens[col] = c, sn = abs(f) / abs(d), g / d
            h[col, col], h[col, col + 1] = d, 0.0
            s[col], s[col + 1] = c * s[col], -sn * s[col]
            iterations += 1
            if abs(s[col + 1]) <= atol or breakdown:
                break
        y = s[:col + 1]  # solved in place
        for k in range(col, -1, -1):  # back-substitution
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
        x += precondition(y @ v[:col + 1])
        r = b - action(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
    return x.reshape(shape), {"solve_s": time.perf_counter() - start,
                              "gmres_iterations": iterations,
                              "gmres_converged": bool(rnorm <= atol)}


def harmonic_initial_guess(patch: GraphPatch) -> None:
    """Replace the interior by the discrete harmonic extension of the boundary.

    One correction: delta = L^{-1}(-tr H(u)) with zero boundary values, by
    one sine-transform solve per component, added to the interior.  Exact
    for affine boundary data, like the multilinear interpolant.
    """
    _, H = _interior_derivatives(patch.values, patch.spacing)
    _shift(patch.values, [0] * patch.n)[...] += _poisson_solve(
        patch, -np.trace(H, axis1=-2, axis2=-1))


def solve(
    patch: GraphPatch,
    tol: float = DEFAULT_TOL,
    max_iter: int = 50,
    initial_guess: bool = True,
) -> SolveReport:
    """Newton solve of the discrete minimal surface system in place.

    Boundary values are kept fixed; interior values are updated until the
    strong residual sup-norm drops below ``tol``.  Pseudo-transient
    continuation (Kelley & Keyes 1998) globalizes Newton: each iteration
    takes in full the solution s of (J - sigma I) s = -F.  The shift sigma
    starts at |F_0| / ``_SHIFT_DIVISOR`` and is scaled by |F_k+1| / |F_k|
    (Mulder & van Leer's SER), so it falls with the residual toward Newton.
    Each linear step is one ``_krylov_solve`` of ``_jacobian_action``
    (inexact Newton): its relative tolerance eta starts at 0.1 and then
    follows Eisenstat & Walker's choice 2, 0.9 (|F_k| / |F_k-1|)^2, floored
    at tol / (2 |F_k|_2) so that the last step is not solved past the stop
    test, and kept within [``_GMRES_RTOL``, ``_ETA_MAX``].  Norms are
    sup-norms unless marked.  The solve stops at ``tol``, at ``max_iter``
    iterations, or after 20 consecutive iterations above 10x the best
    residual (divergence), and hands back the best iterate.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    if initial_guess:
        harmonic_initial_guess(patch)
    inner = tuple(slice(1, -1) for _ in range(patch.n))

    def residual_at(values):
        patch.values[inner] = values
        R = strong_residual_field(patch)
        return R, float(np.max(np.abs(R)))

    R, res_norm = residual_at(patch.values[inner])
    best_vals, best_norm = patch.values.copy(), res_norm
    log, bad_streak = [], 0
    forcing = 0.1  # Eisenstat-Walker's eta_0
    shift = res_norm / _SHIFT_DIVISOR
    while res_norm > tol and len(log) < max_iter and bad_streak < 20:
        # Kelley's floor: |.|_inf <= |.|_2, so the linear model is not solved
        # past the stop test
        floor = 0.5 * tol / float(np.linalg.norm(R))
        eta = min(_ETA_MAX, max(forcing, floor, _GMRES_RTOL))
        start = time.perf_counter()
        action, precondition = _jacobian_action(patch, shift)
        assembled = time.perf_counter() - start
        delta, stats = _krylov_solve(action, precondition, -R, eta)
        trial, trial_norm = residual_at(patch.values[inner] + delta)
        log.append(dict(stats, assemble_s=assembled, iteration=len(log) + 1,
                        residual=trial_norm, step=1.0, eta=eta, shift=shift))
        # Eisenstat-Walker choice 2 (gamma = 0.9, alpha = 2); their safeguard,
        # 0.9 eta^2 once that exceeds 0.1, cannot act under _ETA_MAX = 0.1.
        # The ratio is taken in the sup-norm of the stop test, while GMRES
        # bounds the 2-norm.  On N values the two norms differ by at most
        # sqrt(N), which only scales gamma by up to N in EW's local analysis
        # (eta = O(|F_k|^2 / |F_k-1|^2) in either norm); the clamp to
        # _ETA_MAX < 1 and Kelley's 2-norm floor hold as written.  SER scales
        # the shift, not its inverse, so a zero residual divides nothing
        ratio = trial_norm / res_norm
        forcing, shift = 0.9 * ratio**2, shift * ratio
        R, res_norm = trial, trial_norm
        if res_norm < best_norm:
            best_norm, best_vals, bad_streak = res_norm, patch.values.copy(), 0
        else:
            bad_streak = bad_streak + 1 if res_norm > 10.0 * best_norm else 0
    if not res_norm <= best_norm:  # the last iterate is not the best, or NaN
        patch.values[:] = best_vals
    return SolveReport(len(log), best_norm, best_norm <= tol,
                       [e["step"] for e in log], log)
